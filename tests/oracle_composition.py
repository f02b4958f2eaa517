"""Independent oracle: the literal stage-by-stage composition g_N o ... o g_1.

Each stage map is built straight from its three-case definition by brute
enumeration of that stage's disks.  The stage-k disks are centered at the
image-side generation-k centers with radius (sigma^(1/K) r)^(k-1) * r;
centers are composed here digit by digit, independently of the library's
enumeration helpers.  Deliberately unoptimized.
"""

from itertools import product

import numpy as np


def chain(J, params, side):
    """``(a, b)`` of the composite similarity ``z -> a + b*z`` addressed by the
    digits ``J`` on the ``"source"`` or ``"image"`` side, first digit outermost."""
    z = params.packing.centers
    q = params.sigma if side == "source" else params.sigma ** (1.0 / params.K)
    q *= params.packing.r
    a, b = 0j, 1.0
    for digit in J:
        a = a + b * z[digit]
        b *= q
    return a, b


def stage_centers(params, k):
    """Image-side generation-k centers by explicit similarity composition."""
    return np.asarray([chain(J, params, "image")[0] for J in product(range(params.m), repeat=k)])


def stage_map(params, k):
    """The stage-k map: identity except inside that stage's disks."""
    centers = stage_centers(params, k)
    q = params.sigma ** (1.0 / params.K) * params.packing.r
    r_k = q ** (k - 1) * params.packing.r
    sigma = params.sigma
    exponent = 1.0 / params.K - 1.0

    def g(w):
        w = np.asarray(w, dtype=np.complex128)
        out = w.copy()
        dist = np.abs(w[:, None] - centers[None, :])
        hit = dist.min(axis=1) < r_k
        which = dist.argmin(axis=1)
        for idx in np.nonzero(hit)[0]:
            c = centers[which[idx]]
            d = abs(w[idx] - c)
            if d < sigma * r_k:
                out[idx] = c + sigma**exponent * (w[idx] - c)
            else:
                out[idx] = c + (d / r_k) ** exponent * (w[idx] - c)
        return out

    return g


def literal_phi(points, params, n_stages):
    """Values of g_n o ... o g_1 plus a mask of points resolved by stage n.

    A point is unresolved when it still sits inside a generation-n source
    disk, where the finite composition has not converged yet.
    """
    w = np.asarray(points, dtype=np.complex128).copy()
    for k in range(1, n_stages + 1):
        w = stage_map(params, k)(w)

    src_centers = np.asarray(
        [chain(J, params, "source")[0] for J in product(range(params.m), repeat=n_stages)]
    )
    pts = np.asarray(points, dtype=np.complex128)
    dmin = np.abs(pts[:, None] - src_centers[None, :]).min(axis=1)
    resolved = dmin >= (params.sigma * params.packing.r) ** n_stages
    return w, resolved
