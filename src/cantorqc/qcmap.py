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

from .geometry import ConstructionParams, Disk, ParameterError, _chain_offsets, _finite_points

#: Relative half-width of the band around each seam circle where the
#: Jacobian is reported as undefined rather than picked from one side.
SEAM_RTOL = 1e-12

#: Detection tolerance for the critical integrability exponent p = K/(K-1).
CRITICAL_P_TOL = 1e-12

#: Points per block of the batch descent: a block's temporaries take a few MB.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class MapResult:
    """A map value with a truncation certificate.

    ``err_bound == 0`` means the recursion terminated; it bounds no rounding.
    Each level's frame map amplifies the input's rounding, so the forward
    error grows with depth: at m = 7 against a 60-digit reference it was
    3.7e-16 at depth 8 and 4.1e-14 (about 180 ulp) at depths 20-24.
    Otherwise the value is the center of the generation-``depth`` localizing
    disk and ``err_bound`` is that disk's diameter.
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
    zs: np.ndarray, params: ConstructionParams, side: str, depth_max: int, frames: bool = True
) -> tuple[np.ndarray | None, ...]:
    """The case split of every generation, vectorized over the flattened points.

    Returns per point ``(level, x, d, idx, a, b, seam)``: the terminal level
    (``depth_max`` if still inside a generating disk), the point in that
    level's unit-disk frame, its distance to the nearest center and that
    center's index (both 0 at unresolved points), the affine pair taking a
    frame value ``v`` to ``a + b*v`` (``b`` is real), and whether a visited
    level lay within :data:`SEAM_RTOL` of a seam.  A
    terminal point is in the identity region if ``d >= r``, else on the ring,
    which holds its inner seam ``d == ratio``.  With ``frames=False``,
    ``x``, ``idx``, ``a`` and ``b`` are ``None`` and their work is skipped;
    ``level``, ``d`` and ``seam`` have the same bits either way.  The
    Jacobian reads only those three, so both Monte Carlo estimators still
    evaluate it through this case split.

    Points go through in blocks of :data:`_BLOCK`, so that no temporary
    grows with the batch; no output depends on the block.  A block's
    frontier (frame points ``xf``, offsets ``af`` and indices ``at`` of the
    points still descending) shrinks only at a level that some point
    leaves, and a leaving point's outputs are written once, at that level.
    Only points with ``d >= ratio - 2*tol_in`` can leave or lie in a seam
    band (the outer one too, as ``r > ratio``), so only they are tested.

    Below level 0 a frame point is ``diff * (1/ratio)`` with
    ``np.abs(diff) < ratio``, so it lies in the closed unit disk up to 3
    ulp, and its lookup takes the clip-free cell index
    (``_CellGrid.nearest(..., inside=True)``); level 0 looks up the
    caller's points, which may lie anywhere, through the clipped one.  A
    level gathers its centres once.  Where no point reaches the tests, the
    gather serves both the frame difference and the offset update;
    otherwise it is dropped before them, so that it adds nothing to their
    temporaries, and gathered again for the points kept.
    """
    # the grid first, so that its tables lie below the batch's arrays on the heap
    grid, centers = params.packing._grid, params.packing.centers
    ratio, affine, _ = _side_table(params, side)
    _check_depth(depth_max, affine)
    zs = _finite_points(zs, "map points")
    n, r = zs.size, params.r
    tol_r, tol_in = SEAM_RTOL * r, SEAM_RTOL * ratio
    near_from = ratio - 2.0 * tol_in
    level = np.full(n, depth_max, dtype=np.int64)
    dist = np.zeros(n, dtype=np.float64)
    seam = np.zeros(n, dtype=bool)
    x = a = idx = af = None
    if frames:
        x, a = zs.copy(), np.zeros(n, dtype=np.complex128)
        idx = np.zeros(n, dtype=np.int64)
    scales, inv = [1.0], 1.0 / ratio
    for start in range(0, n, _BLOCK):
        at = np.arange(start, min(start + _BLOCK, n))
        xf = zs[start : start + _BLOCK]
        if frames:
            af = np.zeros(at.size, dtype=np.complex128)
        for lv in range(depth_max):
            if lv + 1 == len(scales):
                scales.append(scales[-1] * affine)
            # below level 0 every frame point lies in the closed unit disk
            i = grid.nearest(xf, inside=lv > 0)
            c = centers.take(i)
            diff = xf - c
            if not frames:
                c = None
            d = np.abs(diff)
            near = np.flatnonzero(d >= near_from)
            if near.size:
                # the tests' temporaries come first; the kept points gather again
                c = None
                dn = d.take(near)
                seam[at.take(near[(np.abs(dn - r) <= tol_r) | (np.abs(dn - ratio) <= tol_in)])] = True
                final = near[dn >= ratio]
                if final.size:
                    done = at.take(final)
                    level[done], dist[done] = lv, d.take(final)
                    keep = np.flatnonzero(d < ratio)
                    at, diff = at.take(keep), diff.take(keep)
                    if frames:
                        idx[done] = i.take(final)
                        # at level 0 the frame point and its offset 0 are in place
                        if lv:
                            x[done], a[done] = xf[final], af[final]
                        af, i = af.take(keep), i.take(keep)
                    if at.size == 0:
                        break
            if frames:
                if c is None:
                    c = centers.take(i)
                af += scales[lv] * c
            diff *= inv
            xf = diff
        else:
            if frames:
                x[at], a[at] = xf, af
    b = np.asarray(scales)[level] if frames else None
    return level, x, dist, idx, a, b, seam


def _descend_one(
    z: complex, params: ConstructionParams, side: str, depth_max: int
) -> tuple[int, complex, float, int, complex, complex, bool]:
    """Scalar twin of :func:`_descend` in plain Python arithmetic.

    A batch of one is several times slower per call, so both twins stay,
    and they return the same bits.  This twin sets each frame by
    multiplying by ``1/ratio``, as the batch does.  Its callers raise the
    ring ratio ``d/r`` to its power through NumPy's array ``pow`` on a
    one-element array, since Python's ``**`` and NumPy's scalar ``**``
    round differently from the array ``pow`` of the batch.

    Each level's distance is Python's ``abs``, within 2 ulp of the batch's
    ``np.abs`` and ten times cheaper on a scalar.  Where that gap could turn
    a branch or a seam flag, at ``d >= ratio - 2*tol_in`` (the exit level,
    the inner seam band and, as ``r > ratio``, the outer one), the level
    takes NumPy's value instead, and only there are the exit and the seam
    bands tested, as in the batch: below it, NumPy's value lies below both
    bands, since ``r - tol_r > ratio - 2*tol_in`` for every sigma in (0, 1).
    The widening is 1e-12 relative, far more than 2 ulp, so every branch,
    seam flag, index and returned distance has the bits it would have with
    NumPy's value at every level.

    Each level reads the owner table inline, through
    ``_CellGrid.owner_view``: the scalar cell formula, written only here,
    guarded by the border ring's inner edge, beyond which it would wrap
    round the table or run past it.  A point off the ring (entry -1) or in
    a shared cell goes to :meth:`DiskPacking._nearest_one` with its entry.
    """
    ratio, affine, _ = _side_table(params, side)
    _check_depth(depth_max, affine)
    x = complex(z)
    if not cmath.isfinite(x):
        raise ParameterError(f"map points must be finite, got {x}")
    r = params.r
    tol_r, tol_in = SEAM_RTOL * r, SEAM_RTOL * ratio
    exact_from = ratio - 2.0 * tol_in
    grid = params.packing._grid
    x0, y0, h, ny, owners = grid.x0, grid.y0, grid.h, grid.ny, grid.owner_view
    fx_end, fy_end = grid.nx - 1, ny - 1
    nearest, points = params.packing._nearest_one, grid.points
    a, b = 0j, 1 + 0j
    seam, inv = False, 1.0 / ratio
    for level in range(depth_max):
        # the owner entry of x's cell, or -1 off the ring
        i = -1
        fx, fy = (x.real - x0) / h, (x.imag - y0) / h
        if 1.0 <= fx < fx_end and 1.0 <= fy < fy_end:
            i = owners[int(fx) * ny + int(fy)]
        if i < 0:
            i = nearest(x, i)
        c = points[i]
        diff = x - c
        d = abs(diff)
        if d >= exact_from:
            d = float(np.abs(np.complex128(diff)))
            seam = seam or abs(d - r) <= tol_r or abs(d - ratio) <= tol_in
            if d >= ratio:
                return level, x, d, i, a, b, seam
        a += b * c
        b *= affine
        x = diff * inv
    return depth_max, x, 0.0, 0, a, b, seam


def _map_one(z: complex, params: ConstructionParams, side: str, depth_max: int) -> MapResult:
    level, x, d, i, a, b, _ = _descend_one(z, params, side, depth_max)
    _, affine, exponent = _side_table(params, side)
    if level == depth_max:
        return MapResult(a, depth_max, 2.0 * affine**depth_max)
    if d < params.r:
        c = params.packing._grid.points[i]
        x = c + np.power(np.array([d / params.r]), exponent).item() * (x - c)
    return MapResult(a + b * x, level, 0.0)


def _map_batch(
    zs: np.ndarray, params: ConstructionParams, side: str, depth_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    zs = np.asarray(zs, dtype=np.complex128)
    level, x, d, idx, a, b, _ = _descend(zs, params, side, depth_max)
    _, affine, exponent = _side_table(params, side)
    unresolved = level == depth_max
    centers, r = params.packing.centers, params.r
    # block by block, as in the descent, so that no index array or
    # temporary grows with the batch
    for start in range(0, x.size, _BLOCK):
        xb, db = x[start : start + _BLOCK], d[start : start + _BLOCK]
        ring = np.flatnonzero(~unresolved[start : start + _BLOCK] & (db < r))
        c = centers.take(idx[start : start + _BLOCK].take(ring))
        xb[ring] = c + (db.take(ring) / r) ** exponent * (xb.take(ring) - c)
    x *= b
    x += a
    out = np.flatnonzero(unresolved)
    x[out] = a.take(out)
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
    return acc * (1.0 / K) * np.power(np.array([d / params.r]), 2.0 * (1.0 / K - 1.0)).item()


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
    level, _, d, _, _, _, seam = _descend(zs, params, "source", depth_max, frames=False)
    K = params.K
    # lambda**k by repeated multiplication, rounding as the scalar path does
    powers = np.full(int(level.max(initial=0)) + 1, params.sigma ** (2.0 * (1.0 / K - 1.0)))
    powers[0] = 1.0
    out = np.cumprod(powers)[level]
    undefined = seam | (level == depth_max)
    ring = np.flatnonzero(~undefined & (d < params.r))
    out[ring] = out[ring] * (1.0 / K) * (d[ring] / params.r) ** (2.0 * (1.0 / K - 1.0))
    out[np.flatnonzero(undefined)] = np.nan
    return out.reshape(zs.shape)


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
        out["partial_sums"] = [v if math.isfinite(v) else "inf" for v in self.partial_sums]
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
    if not 1.0 <= p < math.inf:
        raise ParameterError(f"p must be finite and >= 1, got {p}")
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    K, sigma, c_m = params.K, params.sigma, params.c_m
    gamma = 2.0 * p * (1.0 / K - 1.0) + 2.0
    critical = K > 1.0 and abs(p - K / (K - 1.0)) <= CRITICAL_P_TOL
    try:
        if critical:
            ann = c_m * (2.0 * math.pi / K**p) * math.log(1.0 / sigma)
            ratio = c_m
        else:
            # |(1 - sigma**gamma)/gamma| via expm1 to stay stable near gamma = 0
            ann = c_m * (2.0 * math.pi / K**p) * abs(math.expm1(gamma * math.log(sigma)) / gamma)
            ratio = c_m * sigma**gamma
    except OverflowError:
        raise ParameterError(f"p = {p} overflows K**p or sigma**gamma in float64") from None
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
    rng: np.random.Generator, n: int, params: ConstructionParams, clear: np.ndarray
) -> np.ndarray:
    """Uniform draws from the unit disk minus the generating disks.

    Each round draws the radii and angles of ``_uniform_disk`` for twice the
    points still missing, but maps and tests only the leading candidates,
    never more than are still missing at a time, so that the draws after the
    last one kept cost nothing beyond the generator.  A candidate is kept
    when ``d >= sigma*r`` for its nearest-center distance ``d``.  ``clear``
    is ``packing._grid.clear_cells(sigma*r)``: a candidate in a clear cell
    is kept without a lookup, as the test would keep it, so the draws kept
    are the same.
    """
    out = np.empty(n, dtype=np.complex128)
    got = 0
    inner = params.sigma * params.r
    grid = params.packing._grid
    while got < n:
        size = max(256, 2 * (n - got))
        rad = rng.uniform(0.0, 1.0, size)
        ang = rng.uniform(0.0, 2.0 * math.pi, size)
        start = 0
        while got < n and start < size:
            stop = start + (n - got)
            cand = np.sqrt(rad[start:stop]) * np.exp(1j * ang[start:stop])
            doubt = np.flatnonzero(~clear.take(grid.cells(cand)))
            if doubt.size:
                _, d = params.packing.nearest_center(cand.take(doubt))
                cand = np.delete(cand, doubt[d < inner])
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
    if not 1.0 <= p < math.inf:
        raise ParameterError(f"p must be finite and >= 1, got {p}")
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
        clear = params.packing._grid.clear_cells(params.sigma * params.r)
        base = samples // depth_max
        extra = samples % depth_max
        streams = np.random.SeedSequence(seed).spawn(depth_max)
        estimate = 0.0
        variance = 0.0
        n_undefined = 0
        for k in range(depth_max):
            n_k = base + (1 if k < extra else 0)
            rng = np.random.default_rng(streams[k])
            u = _template_points(rng, n_k, params, clear)
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
            "t": self.pieces[0].params.t,
            "K": self.pieces[0].params.K,
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


def glued_map(
    zs: np.ndarray, spec: GluedMapSpec, depth_max: int = 32
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The glued map ``z_j + r_j * phi_j((z - z_j)/r_j)`` on host ``j`` and the
    identity off the hosts; returns ``(values, depths, err_bounds)``.

    Every piece checks ``depth_max``, whether or not a point lies on its
    host.  The host test and the rescaling round as Python's ``abs(z - z_j)``
    and ``(z - z_j)/r_j`` do, by ``hypot`` and by two real divisions: NumPy's
    complex ``abs`` and division round differently.
    """
    flat = _finite_points(zs, "map points")
    for piece in spec.pieces:
        _check_depth(depth_max, piece.params.image_ratio)
    values, depths, errs = flat.copy(), np.zeros(flat.size, dtype=np.int64), np.zeros(flat.size)
    free = np.arange(flat.size)
    for piece in spec.pieces:
        c, R = piece.host.center, piece.host.radius
        dz = flat.take(free) - c
        on = np.hypot(dz.real, dz.imag) < R
        at, free = free[on], free[~on]
        if at.size:
            u = (dz[on].view(np.float64) / R).view(np.complex128)
            v, depths[at], err = phi_batch(u, piece.params, depth_max)
            values[at], errs[at] = c + R * v, R * err
    return tuple(out.reshape(np.shape(zs)) for out in (values, depths, errs))
