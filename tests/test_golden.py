"""Golden outputs of the map entry points, pinned bit for bit.

Seeded unit-disk points, points of random source and image cylinders of
radius about 1e-12, and points on the seam circles of the first three
generations go through the three batch entry points and, on a subsample,
the three scalar ones, at m in {7, 19, 217}, K in {1, 2} and depth_max in
{1, 5, 32}.  Each test pins the SHA-256 of one entry point's outputs over
all 18 configurations, so a rewrite of the descent must reproduce every
bit.  The criterion-12 CLI digests cannot stand in for this: they cover
only three shallow points.  ``test_qcmap.py`` also checks that each scalar
entry point returns its batch twin's bits on every one of these points.
They can, because the scalar ring stretch uses NumPy's array pow on a
one-element array, which rounds as the batch's does where Python's ``**``
does not.

The digests were captured with NumPy 2.4.6 on x86-64.  NumPy's vectorized
pow and complex multiply may round differently under another version or
CPU; a digest that breaks after such an upgrade, with the map code
unchanged, is recaptured, not mended.
"""

import hashlib
import math
from functools import lru_cache

import numpy as np
import pytest

from cantorqc import (
    build_packing,
    derive_params,
    jacobian,
    jacobian_batch,
    phi,
    phi_batch,
    phi_inverse,
    phi_inverse_batch,
)

#: (t, m) per layout; t = 1.9 at m = 217 leaves a thin annulus (sigma near 1).
LAYOUTS = ((1.0, 7), (1.0, 19), (1.9, 217))
KS = (1.0, 2.0)
DEPTHS = (1, 5, 32)
N_DISK, N_CYL, N_SEAM, N_SCALAR = 1500, 500, 1000, 64

DIGESTS = {
    "phi_batch": "ad557ba23bffa896a1b08592775906adfcc725803e03ff2cf2c87ae64693cdf1",
    "phi_inverse_batch": "4a605f9476debec5ff58e03cbd02b96e74595e7429dca512d3ff2eb018aba695",
    "jacobian_batch": "084ca335568cf68963757f8d6ba5e1dc97fda0304bac6f5a5640b48de5f84482",
    "scalar": "bccbf24d556097c6614793c6f4edd51a1e5681f547ca4d2dc394ce2fe391a1e9",
}


def _disk(rng, n, radius=1.0):
    return radius * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))


def _chain(centers, digits, ratio):
    a, s = np.zeros(len(digits), dtype=np.complex128), 1.0
    for j in range(digits.shape[1]):
        a += s * centers[digits[:, j]]
        s *= ratio
    return a, s


@lru_cache(maxsize=None)
def _case(t, m, K):
    """Parameters plus the seeded point families ``(disk, cylinders, seams)``."""
    p = derive_params(t, K, build_packing(m))
    rng = np.random.default_rng([m, int(K)])
    centers = p.packing.centers
    cylinders = []
    for ratio in (p.source_ratio, p.image_ratio):
        k = round(math.log(1e-12) / math.log(ratio))
        a, s = _chain(centers, rng.integers(0, m, (N_CYL, k)), ratio)
        cylinders.append(a + s * _disk(rng, N_CYL))
    seams = []
    for ratio, radii in ((p.source_ratio, (p.r, p.source_ratio)), (p.image_ratio, (p.r, p.image_ratio))):
        level = rng.integers(0, 3, N_SEAM)
        digits = rng.integers(0, m, (N_SEAM, 3))
        radius = np.asarray(radii)[rng.integers(0, 2, N_SEAM)]
        u = centers[digits[:, 2]] + radius * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, N_SEAM))
        for lv in range(3):
            sel = level == lv
            a, s = _chain(centers, digits[sel, :lv], ratio)
            seams.append(a + s * u[sel])
    families = (_disk(rng, N_DISK, 1.05), np.concatenate(cylinders), np.concatenate(seams))
    return p, families


def _configs():
    for t, m in LAYOUTS:
        for K in KS:
            p, families = _case(t, m, K)
            for depth_max in DEPTHS:
                yield p, families, depth_max


def _update(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())


def _digest(name):
    h = hashlib.sha256()
    for p, families, depth_max in _configs():
        zs = np.concatenate(families)
        if name == "phi_batch":
            _update(h, *phi_batch(zs, p, depth_max))
        elif name == "phi_inverse_batch":
            _update(h, *phi_inverse_batch(zs, p, depth_max))
        elif name == "jacobian_batch":
            _update(h, jacobian_batch(zs, p, depth_max))
        else:
            pts = [complex(z) for fam in families for z in fam[:: fam.size // N_SCALAR]]
            results = (
                [phi(z, p, depth_max) for z in pts],
                [phi_inverse(z, p, depth_max) for z in pts],
                [jacobian(z, p, depth_max) for z in pts],
            )
            h.update(repr(results).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_digest(name):
    assert _digest(name) == DIGESTS[name]
