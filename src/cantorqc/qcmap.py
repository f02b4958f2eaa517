"""Evaluation of the limit quasiconformal map, its inverse and its Jacobian.

One construction step replaces the identity inside each protecting disk
``D(z_i, r)`` by a radial interpolation: a pure scaling ``sigma**(1/K - 1)``
on the generating disk ``D(z_i, sigma*r)``, the radial stretch
``w -> |w/r|**(1/K - 1) * w`` (centered at ``z_i``) on the ring between them,
and the identity outside.  Inside a generating disk the whole construction
repeats, rescaled, which yields the conjugacy

    phi(z_i + sigma*r*u) = z_i + sigma**(1/K)*r * phi(u)

used here to evaluate the limit map with one case split per generation
instead of composing explicit stage maps.  Points that never exit the nested
generating disks within ``depth_max`` generations receive the center of the
deepest localizing image disk together with a rigorous error bound (its
diameter).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import ConstructionParams, Disk, ParameterError, _chain_offsets

#: Relative half-width of the band around each seam circle where the
#: Jacobian is reported as undefined rather than picked from one side.
SEAM_RTOL = 1e-12

#: Detection tolerance for the critical integrability exponent p = K/(K-1).
CRITICAL_P_TOL = 1e-12


@dataclass(frozen=True)
class MapResult:
    """A map value with a truncation certificate.

    ``err_bound == 0`` means the recursion terminated and the value is exact
    up to floating round-off; otherwise the value is the center of the
    generation-``depth`` localizing disk and ``err_bound`` is that disk's
    diameter.
    """

    value: complex
    depth: int
    err_bound: float


def _side_table(params: ConstructionParams, side: str) -> tuple[float, float, float]:
    """``(ratio, affine_ratio, exponent)``: the inner seam radius and frame
    contraction, the scale gained per descent, and the ring stretch
    ``rho**exponent`` of the map (``side="source"``) or its inverse."""
    sr, q = params.source_ratio, params.image_ratio
    if side == "source":
        return sr, q, 1.0 / params.K - 1.0
    return q, sr, params.K - 1.0


def _check_depth(depth_max: int, affine_ratio: float) -> None:
    if depth_max < 1:
        raise ParameterError(f"depth_max must be >= 1, got {depth_max}")
    if 2.0 * affine_ratio**depth_max == 0.0:
        raise ParameterError(
            f"depth_max = {depth_max} underflows the truncation bound "
            f"2*{affine_ratio!r}**depth_max to 0"
        )


def _descend(
    zs: np.ndarray, params: ConstructionParams, side: str, depth_max: int
) -> tuple[np.ndarray, ...]:
    """The case split of every generation, vectorized over the flattened points.

    Returns per point ``(level, x, d, idx, a, b, seam)``: the terminal level
    (``depth_max`` if still inside a generating disk), the point in that
    level's unit-disk frame, its distance to the nearest center and that
    center's index (both 0 at unresolved points), the affine pair taking a
    frame value ``v`` to ``a + b*v`` (``b`` is real), and whether a visited
    level lay within :data:`SEAM_RTOL` of a seam.  A
    terminal point is in the identity region if ``d >= r``, else on the ring,
    which holds its inner seam ``d == ratio``.
    """
    ratio, affine, _ = _side_table(params, side)
    _check_depth(depth_max, affine)
    x = np.asarray(zs, dtype=np.complex128).ravel().copy()
    if not np.isfinite(x).all():
        bad = np.flatnonzero(~np.isfinite(x))[0]
        raise ParameterError(f"map points must be finite; point {bad} is {x[bad]}")
    n, r = x.size, params.r
    tol_r, tol_in = SEAM_RTOL * r, SEAM_RTOL * ratio
    a = np.zeros(n, dtype=np.complex128)
    level = np.full(n, depth_max, dtype=np.int64)
    dist = np.zeros(n, dtype=np.float64)
    idx = np.zeros(n, dtype=np.int64)
    seam = np.zeros(n, dtype=bool)
    scales = [1.0]
    active = np.arange(n)
    for lv in range(depth_max):
        if active.size == 0:
            break
        xa = x[active]
        i, d = params.packing.nearest_center(xa)
        seam[active[(np.abs(d - r) <= tol_r) | (np.abs(d - ratio) <= tol_in)]] = True
        inside = d < ratio
        final = np.flatnonzero(~inside)
        done = active[final]
        level[done], dist[done], idx[done] = lv, d[final], i[final]
        active = active[inside]
        c = params.packing.centers[i[inside]]
        a[active] += scales[-1] * c
        scales.append(scales[-1] * affine)
        x[active] = (xa[inside] - c) / ratio
    return level, x, dist, idx, a, np.asarray(scales)[level], seam


def _descend_one(
    z: complex, params: ConstructionParams, side: str, depth_max: int
) -> tuple[int, complex, float, int, complex, complex, bool]:
    """Scalar twin of :func:`_descend` in plain Python arithmetic.

    A batch of one is several times slower per call, and NumPy's ``pow`` and
    complex multiply round differently from Python's, so both twins stay.
    """
    ratio, affine, _ = _side_table(params, side)
    _check_depth(depth_max, affine)
    x = complex(z)
    if not cmath.isfinite(x):
        raise ParameterError(f"map points must be finite, got {x}")
    r = params.r
    tol_r, tol_in = SEAM_RTOL * r, SEAM_RTOL * ratio
    a, b = 0j, 1 + 0j
    seam = False
    for level in range(depth_max):
        i, d = params.packing._nearest_one(x)
        seam = seam or abs(d - r) <= tol_r or abs(d - ratio) <= tol_in
        if d >= ratio:
            return level, x, d, i, a, b, seam
        c = complex(params.packing.centers[i])
        a += b * c
        b *= affine
        x = (x - c) / ratio
    return depth_max, x, 0.0, 0, a, b, seam


def _map_one(z: complex, params: ConstructionParams, side: str, depth_max: int) -> MapResult:
    level, x, d, i, a, b, _ = _descend_one(z, params, side, depth_max)
    if level == depth_max:
        return MapResult(a, depth_max, 2.0 * _side_table(params, side)[1] ** depth_max)
    if d < params.r:
        c = complex(params.packing.centers[i])
        x = c + (d / params.r) ** _side_table(params, side)[2] * (x - c)
    return MapResult(a + b * x, level, 0.0)


def _map_batch(
    zs: np.ndarray, params: ConstructionParams, side: str, depth_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    zs = np.asarray(zs, dtype=np.complex128)
    level, x, d, idx, a, b, _ = _descend(zs, params, side, depth_max)
    _, affine, exponent = _side_table(params, side)
    unresolved = level == depth_max
    ring = ~unresolved & (d < params.r)
    c = params.packing.centers[idx[ring]]
    x[ring] = c + (d[ring] / params.r) ** exponent * (x[ring] - c)
    x *= b
    x += a
    x[unresolved] = a[unresolved]
    err = np.where(unresolved, 2.0 * affine**depth_max, 0.0)
    return x.reshape(zs.shape), level.reshape(zs.shape), err.reshape(zs.shape)


def phi(z: complex, params: ConstructionParams, depth_max: int = 32) -> MapResult:
    """Evaluate the limit map at one point."""
    return _map_one(z, params, "source", depth_max)


def phi_inverse(w: complex, params: ConstructionParams, depth_max: int = 32) -> MapResult:
    """Evaluate the inverse map; the radial stretch inverts in closed form.

    Mirrors :func:`phi` with the roles of the two contraction ratios swapped
    and radial exponent ``K - 1`` on the image-side ring
    ``sigma**(1/K)*r <= |w - z_i| < r``.
    """
    return _map_one(w, params, "image", depth_max)


def jacobian(z: complex, params: ConstructionParams, depth_max: int = 32) -> float | None:
    """Jacobian determinant at ``z``, or ``None`` when unresolved.

    Each descent multiplies by ``sigma**(2(1/K - 1))``; the terminal factor is
    1 in the identity region and ``(1/K) * rho**(2(1/K - 1))`` at normalized
    annulus radius ``rho``.  Points whose descent passes within
    :data:`SEAM_RTOL` (relative) of a seam circle, or still descending at
    ``depth_max``, are reported as undefined.
    """
    level, _, d, _, _, _, seam = _descend_one(z, params, "source", depth_max)
    if seam or level == depth_max:
        return None
    K = params.K
    level_factor = params.sigma ** (2.0 * (1.0 / K - 1.0))
    acc = 1.0
    for _ in range(level):
        acc *= level_factor
    if d > params.r:
        return acc
    return acc * (1.0 / K) * (d / params.r) ** (2.0 * (1.0 / K - 1.0))


# ---------------------------------------------------------------------------
# vectorized evaluation


def phi_batch(
    zs: np.ndarray, params: ConstructionParams, depth_max: int = 32
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`phi`; returns ``(values, depths, err_bounds)``."""
    return _map_batch(zs, params, "source", depth_max)


def phi_inverse_batch(
    ws: np.ndarray, params: ConstructionParams, depth_max: int = 32
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`phi_inverse`; returns ``(values, depths, err_bounds)``."""
    return _map_batch(ws, params, "image", depth_max)


def jacobian_batch(
    zs: np.ndarray, params: ConstructionParams, depth_max: int = 32
) -> np.ndarray:
    """Vectorized :func:`jacobian`; undefined points come back as NaN."""
    zs = np.asarray(zs, dtype=np.complex128)
    level, _, d, _, _, _, seam = _descend(zs, params, "source", depth_max)
    K = params.K
    # lambda**k by repeated multiplication, rounding as the scalar path does
    powers = np.full(int(level.max(initial=0)) + 1, params.sigma ** (2.0 * (1.0 / K - 1.0)))
    powers[0] = 1.0
    out = np.cumprod(powers)[level]
    out[seam | (level == depth_max)] = np.nan
    ring = np.isfinite(out) & (d < params.r)
    out[ring] = out[ring] * (1.0 / K) * (d[ring] / params.r) ** (2.0 * (1.0 / K - 1.0))
    return out.reshape(zs.shape)


def terminal_info(
    zs: np.ndarray, params: ConstructionParams, depth_max: int = 32
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descent diagnostics per point: ``(depth, frame_distance, branch)``.

    ``frame_distance`` is the nearest-center distance in the terminal frame's
    unit-disk coordinates; ``branch`` is 0 in the identity region, 1 on an
    annulus, 2 when still descending at ``depth_max``.  The gap between
    ``frame_distance`` and the seam radii ``r`` and ``sigma*r`` measures how
    safely a finite-difference stencil fits inside one smooth piece.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    level, x, d, _, _, _, _ = _descend(zs, params, "source", depth_max)
    unresolved = level == depth_max
    if unresolved.any():
        d[unresolved] = params.packing.nearest_center(x[unresolved])[1]
    branch = np.where(unresolved, 2, (d < params.r).astype(np.int64))
    return level.reshape(zs.shape), d.reshape(zs.shape), branch.reshape(zs.shape)


def phi_map_fn(
    params: ConstructionParams, depth_max: int = 40
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Adapter for samplers that expect ``z -> (values, err_bounds)``."""

    def fn(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, _, err = phi_batch(zs, params, depth_max)
        return values, err

    return fn


# ---------------------------------------------------------------------------
# Jacobian p-mass


@dataclass(frozen=True)
class LpMassReport:
    """Closed-form p-mass of the Jacobian over the unit disk.

    ``partial_sums[k]`` is the mass of the region resolved within ``k + 1``
    generations; each generation contributes ``level_constant * level_ratio**k``
    with ``level_ratio = c_m * sigma**gamma`` (``c_m`` at the critical
    exponent).  The series converges iff ``level_ratio < 1``, i.e.
    ``sigma**gamma < 1/c_m``.
    """

    p: float
    gamma: float
    converges: bool
    total: float
    partial_sums: tuple[float, ...]
    critical: bool
    level_constant: float
    level_ratio: float

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["total"] = self.total if math.isfinite(self.total) else "inf"
        return out


def lp_mass_closed_form(
    p: float, params: ConstructionParams, n_max: int = 64
) -> LpMassReport:
    """Exact per-generation p-mass sums and, when convergent, the total.

    The generation constant is ``pi*(1 - c_m)`` from the flat part plus
    ``c_m * (2*pi/K**p) * |(1 - sigma**gamma)/gamma|`` from the annuli, with
    ``gamma = 2p(1/K - 1) + 2``; at ``p = K/(K-1)`` (detected within
    :data:`CRITICAL_P_TOL`) the annulus factor becomes ``log(1/sigma)``.
    """
    if p < 1.0:
        raise ParameterError(f"p must be >= 1, got {p}")
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    K, sigma, c_m = params.K, params.sigma, params.c_m
    gamma = 2.0 * p * (1.0 / K - 1.0) + 2.0
    critical = K > 1.0 and abs(p - K / (K - 1.0)) <= CRITICAL_P_TOL
    if critical:
        ann = c_m * (2.0 * math.pi / K**p) * math.log(1.0 / sigma)
        ratio = c_m
    else:
        # |(1 - sigma**gamma)/gamma| via expm1 to stay stable near gamma = 0
        ann = c_m * (2.0 * math.pi / K**p) * abs(math.expm1(gamma * math.log(sigma)) / gamma)
        ratio = c_m * sigma**gamma
    level0 = math.pi * (1.0 - c_m) + ann
    partial = []
    acc, term = 0.0, level0
    for _ in range(n_max):
        acc += term
        partial.append(acc)
        term *= ratio
    converges = ratio < 1.0
    total = level0 / (1.0 - ratio) if converges else math.inf
    return LpMassReport(
        p=float(p),
        gamma=gamma,
        converges=converges,
        total=total,
        partial_sums=tuple(partial),
        critical=critical,
        level_constant=level0,
        level_ratio=ratio,
    )


def unresolved_area(params: ConstructionParams, depth: int) -> float:
    """Exact area of the generation-``depth`` generating disks."""
    return math.pi * (params.c_m * params.sigma**2) ** depth


@dataclass(frozen=True)
class LpMassEstimate:
    """Monte Carlo p-mass over the region resolved within ``depth_max`` generations."""

    p: float
    estimate: float
    stderr: float
    samples: int
    depth_max: int
    seed: int
    method: str
    undefined_fraction: float
    excluded_area: float


def _uniform_disk(rng: np.random.Generator, n: int, radius: float = 1.0) -> np.ndarray:
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    return rad * np.exp(1j * ang)


def _jacobian_powers(
    z: np.ndarray, params: ConstructionParams, depth_max: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """``J(z)**p`` with undefined (unresolved or seam) draws set to 0, and the
    mask of the defined draws."""
    jac = jacobian_batch(z, params, depth_max)
    defined = np.isfinite(jac)
    return np.where(defined, jac, 0.0) ** p * defined, defined


def _template_points(
    rng: np.random.Generator, n: int, params: ConstructionParams
) -> np.ndarray:
    """Uniform draws from the unit disk minus the generating disks.

    Each round draws the radii and angles of ``_uniform_disk`` for twice the
    points still missing, but maps and tests only the leading candidates,
    never more than are still missing at a time, so that the draws after the
    last one kept cost nothing beyond the generator.
    """
    out = np.empty(n, dtype=np.complex128)
    got = 0
    inner = params.sigma * params.r
    while got < n:
        size = max(256, 2 * (n - got))
        rad = rng.uniform(0.0, 1.0, size)
        ang = rng.uniform(0.0, 2.0 * math.pi, size)
        start = 0
        while got < n and start < size:
            stop = start + (n - got)
            cand = np.sqrt(rad[start:stop]) * np.exp(1j * ang[start:stop])
            _, d = params.packing.nearest_center(cand)
            cand = cand[d >= inner]
            out[got : got + cand.size] = cand
            got += cand.size
            start = stop
    return out


def lp_mass_monte_carlo(
    p: float,
    params: ConstructionParams,
    samples: int,
    depth_max: int,
    seed: int,
    method: str = "stratified",
) -> LpMassEstimate:
    """Unbiased Monte Carlo estimate of the resolved p-mass.

    ``method="uniform"`` samples the unit disk directly and reports the
    fraction of draws landing in unresolved territory.  ``method="stratified"``
    samples each generation's congruence class separately (a uniform template
    point pushed through a random chain of source similarities), which removes
    the between-generation variance; the Jacobian itself is still evaluated
    through the production recursion.  Unresolved or seam draws are excluded
    and their exact total area is reported.  A standard error needs two draws
    from the disk, or from every generation: ``samples >= 2`` for the
    uniform method, ``samples >= 2*depth_max`` for the stratified one.
    """
    if p < 1.0:
        raise ParameterError(f"p must be >= 1, got {p}")
    if depth_max < 1:
        raise ParameterError(f"depth_max must be >= 1, got {depth_max}")
    if method not in ("uniform", "stratified"):
        raise ParameterError(f"unknown method {method!r}, expected 'uniform' or 'stratified'")
    if method == "uniform" and samples < 2:
        raise ParameterError(f"uniform samples must be >= 2, got {samples}")
    if method == "stratified" and samples < 2 * depth_max:
        raise ParameterError(
            f"stratified samples must be >= 2*depth_max = {2 * depth_max}, got {samples}"
        )

    if method == "uniform":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        vals, defined = _jacobian_powers(_uniform_disk(rng, samples), params, depth_max, p)
        estimate = math.pi * float(vals.mean())
        stderr = math.pi * float(vals.std(ddof=1)) / math.sqrt(samples)
        undefined = 1.0 - float(defined.mean())
    else:
        m = params.m
        sr = params.source_ratio
        centers = params.packing.centers
        template_area = math.pi * (1.0 - params.c_m * params.sigma**2)
        base = samples // depth_max
        extra = samples % depth_max
        streams = np.random.SeedSequence(seed).spawn(depth_max)
        estimate = 0.0
        variance = 0.0
        n_undefined = 0
        for k in range(depth_max):
            n_k = base + (1 if k < extra else 0)
            rng = np.random.default_rng(streams[k])
            u = _template_points(rng, n_k, params)
            if k > 0:
                a, scale = _chain_offsets(rng.integers(0, m, size=(n_k, k)), centers, sr)
                z = a + scale * u
            else:
                z = u
            vals, defined = _jacobian_powers(z, params, depth_max, p)
            n_undefined += int((~defined).sum())
            area_k = template_area * (params.c_m * params.sigma**2) ** k
            estimate += area_k * float(vals.mean())
            variance += (area_k**2) * float(vals.var(ddof=1)) / n_k
        stderr = math.sqrt(variance)
        undefined = n_undefined / samples
    return LpMassEstimate(
        p=float(p),
        estimate=estimate,
        stderr=stderr,
        samples=samples,
        depth_max=depth_max,
        seed=seed,
        method=method,
        undefined_fraction=undefined,
        excluded_area=unresolved_area(params, depth_max),
    )


# ---------------------------------------------------------------------------
# glued map


@dataclass(frozen=True)
class GluedPiece:
    """One rescaled copy of the construction living on a host disk."""

    host: Disk
    params: ConstructionParams


@dataclass(frozen=True, eq=False)
class GluedMapSpec:
    """A countable-family gluing: identity off the hosts, rescaled maps on them."""

    pieces: tuple[GluedPiece, ...]

    @property
    def t(self) -> float:
        return self.pieces[0].params.t

    @property
    def K(self) -> float:
        return self.pieces[0].params.K

    def holder_constants(self) -> tuple[float, ...]:
        """Per-piece constants ``m**(1/t - 1/t') * r**(1 - t/t')``."""
        out = []
        for piece in self.pieces:
            pr = piece.params
            out.append(
                pr.m ** (1.0 / pr.t - 1.0 / pr.t_prime)
                * piece.host.radius ** (1.0 - pr.t / pr.t_prime)
            )
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "K": self.K,
            "pieces": [
                {
                    "host_center": [piece.host.center.real, piece.host.center.imag],
                    "host_radius": piece.host.radius,
                    "m": piece.params.m,
                    "dim_image": piece.params.dim_image,
                    "epsilon": piece.params.t_prime - piece.params.dim_image,
                    "holder_constant": const,
                }
                for piece, const in zip(self.pieces, self.holder_constants())
            ],
        }


def make_glued_spec(pieces: Sequence[GluedPiece]) -> GluedMapSpec:
    """Validate and freeze a glued-map specification.

    Hosts must be pairwise disjoint closed disks inside the unit disk, every
    piece must satisfy ``m_j * r_j**t < 1`` (equivalently a sub-unit Hölder
    constant when the dimensions genuinely move), and the dimension deficits
    ``eps_j = t' - dim_image_j`` must decrease along the list.
    """
    if not pieces:
        raise ParameterError("glued map needs at least one piece")
    pieces = tuple(pieces)
    t, K = pieces[0].params.t, pieces[0].params.K
    for piece in pieces:
        if abs(piece.params.t - t) > 1e-12 or abs(piece.params.K - K) > 1e-12:
            raise ParameterError("all glued pieces must share the same (t, K)")
        host = piece.host
        if abs(host.center) + host.radius >= 1.0:
            raise ParameterError(
                f"host disk D({host.center}, {host.radius}) is not inside the unit disk"
            )
        mr_t = piece.params.m * host.radius**t
        if mr_t >= 1.0:
            raise ParameterError(
                f"piece violates m_j * r_j**t < 1: got {mr_t:.6g} "
                f"(m={piece.params.m}, r={host.radius})"
            )
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            hi, hj = pieces[i].host, pieces[j].host
            if abs(hi.center - hj.center) <= hi.radius + hj.radius:
                raise ParameterError(f"host disks {i} and {j} overlap")
    spec = GluedMapSpec(pieces=pieces)
    eps = [p.params.t_prime - p.params.dim_image for p in pieces]
    for e in eps:
        if not e >= 0.0:
            raise ParameterError(f"dimension deficit must be nonnegative, got {e}")
    for e0, e1 in zip(eps, eps[1:]):
        if not e1 < e0:
            raise ParameterError(
                f"dimension deficits must decrease along the list, got {e0} -> {e1}"
            )
    t_prime = pieces[0].params.t_prime
    if t_prime > t + 1e-12:
        for const in spec.holder_constants():
            if const >= 1.0:
                raise ParameterError(
                    f"piece Hölder constant m**(1/t - 1/t') * r**(1 - t/t') = "
                    f"{const:.6g} is not < 1"
                )
    return spec


def glued_map(z: complex, spec: GluedMapSpec, depth_max: int = 32) -> MapResult:
    """Evaluate the glued map: ``z_j + r_j * phi_j((z - z_j)/r_j)`` on host ``j``.

    ``z`` and ``depth_max`` are checked as :func:`phi` checks them, for every
    piece, whether or not ``z`` lies on a host.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ParameterError(f"map points must be finite, got {z}")
    for piece in spec.pieces:
        _check_depth(depth_max, piece.params.image_ratio)
    for piece in spec.pieces:
        host = piece.host
        if abs(z - host.center) < host.radius:
            res = phi((z - host.center) / host.radius, piece.params, depth_max)
            return MapResult(
                host.center + host.radius * res.value,
                res.depth,
                host.radius * res.err_bound,
            )
    return MapResult(z, 0, 0.0)
