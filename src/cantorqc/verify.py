"""Empirical checks: box-counting dimension, Hölder regression, packing condition
and Jacobian integral growth.

These estimators never assume the closed forms they are compared against:
dimensions come from grid counts over generation centers, Hölder exponents
from log-log regression over sampled pairs, and the packing/growth constants
from randomized disk sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import (
    ConstructionParams,
    ParameterError,
    _chain_offsets,
    generation_centers,
)
from .qcmap import _jacobian_powers, _uniform_disk

#: 2**63, the end of the int64 range
_INT64_END = 2.0**63

MapFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against x plus the fit's R^2."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


# ---------------------------------------------------------------------------
# box-counting dimension


@dataclass(frozen=True)
class DimensionEstimate:
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float
    r2: float


def _box_count(x: np.ndarray, y: np.ndarray, scale: float, offsets: np.ndarray) -> int:
    """Occupied-box total over several grid offsets (constant factor in the fit).

    Box ``(i, j)`` gets the key ``(i - i_min) * (j_max - j_min + 1) + (j - j_min)``
    and the boxes are counted as the changes along the sorted keys.  Where
    the indices or the keys would not fit in int64, the key is ``i + 1j*j``
    instead, which sorts by ``(i, j)``: exact as well, but slower.
    """
    total = 0
    for ox, oy in offsets:
        i = np.floor((x + ox) / scale)
        j = np.floor((y + oy) / scale)
        i0, i1, j0, j1 = i.min(), i.max(), j.min(), j.max()
        fits = -_INT64_END <= min(i0, j0) and max(i1, j1) < _INT64_END
        if fits:
            rows = int(j1) - int(j0) + 1
            fits = (int(i1) - int(i0) + 1) * rows <= _INT64_END
        if fits:
            key = (i.astype(np.int64) - int(i0)) * rows
            key += j.astype(np.int64) - int(j0)
        else:
            key = i + 1j * j
        key.sort()
        total += 1 + int(np.count_nonzero(key[1:] != key[:-1]))
    return total


def box_dimension(
    side: str,
    params: ConstructionParams,
    N: int,
    seed: int = 0,
) -> DimensionEstimate:
    """Box-counting slope over generation-``N`` disk centers.

    The scales are the self-similar ladder ``0.45 * ratio**k``, stopping
    two levels short of the generation so no scale starves for centers (at
    relative residual depth 1 a box count saturates at the point count and
    drags the slope down); 32 random grid offsets are summed per scale to
    wash out lattice alignment.  A ladder whose finest scale lies below 4096
    float64 spacings of the largest center coordinate is rejected: there the
    centers are rounded together and the counts measure the rounding.
    """
    centers = generation_centers(N, side, params)
    ratio = params.ratio(side)
    top = N - 1 if N >= 4 else N
    scales = tuple(0.45 * ratio**k for k in range(top))
    if len(scales) < 3:
        raise ParameterError(f"need at least 3 scales for a dimension fit, got {len(scales)}")
    re, im = centers.real.copy(), centers.imag.copy()
    floor = 4096 * np.spacing(max(np.abs(re).max(), np.abs(im).max()))
    if scales[-1] < floor:
        raise ParameterError(
            f"finest box scale {scales[-1]:.3g} is below 4096 float64 spacings "
            f"of the centers, {floor:.3g}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = []
    for s in scales:
        offsets = rng.uniform(0.0, s, size=(32, 2))
        counts.append(_box_count(re, im, s, offsets))
    x = np.log(1.0 / np.asarray(scales))
    y = np.log(np.asarray(counts, dtype=float))
    slope, r2 = _loglog_fit(x, y)
    return DimensionEstimate(scales=scales, counts=tuple(counts), slope=slope, r2=r2)


# ---------------------------------------------------------------------------
# Hölder continuity


@dataclass(frozen=True)
class HolderConfig:
    """Pair-sampling plan for Hölder estimation.

    Two random families (uniform pairs, and scale-stratified pairs with
    separations log-uniform over the four decades above 1e-5) plus two
    deterministic adversarial families built from the construction geometry:
    same-parent orbit pairs (the family realizing the dimension-distortion
    exponent) and tangential pairs, 24 to a ring, on the first annuli (where
    the pointwise stretch peaks).
    """

    params: ConstructionParams
    n_uniform: int = 2000
    n_stratified: int = 4000
    adversarial_depth: int = 5
    adversarial_per_generation: int = 400
    adversarial_offset: complex = 0j
    annulus_levels: int = 2
    annulus_disks: int = 12

    def __post_init__(self) -> None:
        for name in ("n_uniform", "n_stratified", "adversarial_depth",
                     "adversarial_per_generation", "annulus_levels", "annulus_disks"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")

    def scaled(self, factor: float) -> "HolderConfig":
        """Same plan with the random sample counts multiplied by ``factor``."""
        return replace(
            self,
            n_uniform=int(self.n_uniform * factor),
            n_stratified=int(self.n_stratified * factor),
            adversarial_per_generation=int(self.adversarial_per_generation * factor),
        )


@dataclass(frozen=True)
class HolderReport:
    exponent_target: float
    max_ratio: float
    regression_exponent: float
    pair_count: int
    regression_exponent_adversarial: float
    r2: float
    excluded_pairs: int


def _chain_endpoints(
    rng: np.random.Generator, config: HolderConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Same-parent orbit pairs across generations 1..adversarial_depth."""
    params = config.params
    m = params.m
    centers = params.packing.centers
    sr = params.source_ratio
    z1_parts, z2_parts = [], []
    n_parents = config.adversarial_per_generation
    for gen in range(1, config.adversarial_depth + 1):
        a, scale = _chain_offsets(rng.integers(0, m, size=(n_parents, gen - 1)), centers, sr)
        i_dig = rng.integers(0, m, n_parents)
        j_dig = (i_dig + 1 + rng.integers(0, m - 1, n_parents)) % m
        off = sr * complex(config.adversarial_offset)
        z1_parts.append(a + scale * (centers[i_dig] + off))
        z2_parts.append(a + scale * (centers[j_dig] + off))
    return np.concatenate(z1_parts), np.concatenate(z2_parts)


def _annulus_endpoints(config: HolderConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic tangential pairs on the first few annulus levels."""
    params = config.params
    centers = params.packing.centers
    r, sigma, sr = params.r, params.sigma, params.source_ratio
    n_disks = min(params.m, config.annulus_disks)
    angles = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    rhos = np.geomspace(sigma * 1.02, 0.98, 5)
    z1_parts, z2_parts = [], []
    for level in range(config.annulus_levels):
        scale = sr**level
        for c in centers[:n_disks]:
            anchor = scale * c
            for rho in rhos:
                ring = anchor + scale * r * rho * np.exp(1j * angles)
                # adjacent pairs probe the local stretch, antipodal the chord sup
                z1_parts.extend([ring, ring])
                z2_parts.extend([np.roll(ring, -1), np.roll(ring, ring.size // 2)])
    return np.concatenate(z1_parts), np.concatenate(z2_parts)


def _collect_pairs(map_fn: MapFn, exponent_target: float, config: HolderConfig, seed: int):
    """Assemble all pair families, evaluate the map, and drop (and count) unusable pairs."""
    if not math.isfinite(exponent_target):
        raise ParameterError(f"Hölder target exponent must be finite, got {exponent_target}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z1_parts, z2_parts, adv_parts = [], [], []

    if config.n_uniform > 0:
        a = _uniform_disk(rng, config.n_uniform, radius=1.0)
        b = _uniform_disk(rng, config.n_uniform, radius=1.0)
        z1_parts.append(a)
        z2_parts.append(b)
        adv_parts.append(np.zeros(config.n_uniform, dtype=bool))
    if config.n_stratified > 0:
        a = _uniform_disk(rng, config.n_stratified, radius=1.0)
        sep = 1e-5 * 10.0 ** rng.uniform(0.0, 4.0, config.n_stratified)
        ang = rng.uniform(0.0, 2.0 * math.pi, config.n_stratified)
        z1_parts.append(a)
        z2_parts.append(a + sep * np.exp(1j * ang))
        adv_parts.append(np.zeros(config.n_stratified, dtype=bool))
    if config.adversarial_depth > 0:
        a, b = _chain_endpoints(rng, config)
        z1_parts.append(a)
        z2_parts.append(b)
        adv_parts.append(np.ones(a.size, dtype=bool))
    if config.annulus_levels > 0:
        a, b = _annulus_endpoints(config)
        z1_parts.append(a)
        z2_parts.append(b)
        adv_parts.append(np.zeros(a.size, dtype=bool))

    z1 = np.concatenate(z1_parts)
    z2 = np.concatenate(z2_parts)
    adversarial = np.concatenate(adv_parts)
    sep = np.abs(z1 - z2)
    keep = (sep > 0.0) & (sep < 1.0)
    z1, z2, sep, adversarial = z1[keep], z2[keep], sep[keep], adversarial[keep]

    v1, e1 = map_fn(z1)
    v2, e2 = map_fn(z2)
    finite = np.isfinite(v1) & np.isfinite(v2) & np.isfinite(e1) & np.isfinite(e2)
    excluded = int((~finite).sum())
    sep, adversarial = sep[finite], adversarial[finite]
    diff = np.abs(v1[finite] - v2[finite])
    bound = e1[finite] + e2[finite]
    return sep, diff, bound, adversarial, excluded


def holder_pair_table(
    map_fn: MapFn,
    exponent_target: float,
    config: HolderConfig,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(separations, certified ratios)`` table for external plotting."""
    sep, diff, bound, _, _ = _collect_pairs(map_fn, exponent_target, config, seed)
    return sep, (diff + bound) / sep**exponent_target


def holder_estimate(
    map_fn: MapFn,
    exponent_target: float,
    config: HolderConfig,
    seed: int = 0,
) -> HolderReport:
    """Measure the modulus of continuity of ``map_fn`` against a target exponent.

    ``map_fn`` returns values and per-point error bounds; the sup ratio is
    certified upward by inflating each difference with both endpoints' bounds,
    while pairs whose bounds are not far below the measured difference are
    dropped from the regression (and counted).  Only pairs with separation
    below 1 enter.
    """
    sep, diff, bound, adversarial, excluded = _collect_pairs(map_fn, exponent_target, config, seed)
    ratio_upper = (diff + bound) / sep**exponent_target
    certain = (diff > 0.0) & (bound <= 0.1 * diff)
    excluded += int((~certain).sum())
    x = np.log(sep[certain])
    y = np.log(diff[certain])
    if x.size < 3:
        raise ParameterError("too few usable pairs for a Hölder regression")
    max_ratio = float(ratio_upper.max())
    slope, r2 = _loglog_fit(x, y)
    adv = adversarial[certain]
    if adv.sum() >= 3:
        slope_adv, _ = _loglog_fit(x[adv], y[adv])
    else:
        slope_adv = math.nan
    return HolderReport(
        exponent_target=float(exponent_target),
        max_ratio=max_ratio,
        regression_exponent=slope,
        pair_count=int(sep.size),
        regression_exponent_adversarial=slope_adv,
        r2=r2,
        excluded_pairs=excluded,
    )


# ---------------------------------------------------------------------------
# packing condition


@dataclass(frozen=True)
class PackingConditionReport:
    """Max observed constant in ``sum diam(G)**s <= C * diam(D)**s`` sweeps."""

    generation: int
    exponent: float
    trials: int
    max_ratio: float
    max_ratio_base: float
    inherited_ok: bool
    floor_diameter: float


def packing_condition_check(
    N: int,
    s: float,
    trials: int,
    seed: int,
    params: ConstructionParams,
) -> PackingConditionReport:
    """Randomized sweep for the s-dimensional packing constant at generation ``N``.

    Trial disks have centers uniform in ``|c| <= 1.5`` and diameters
    log-uniform in ``[(sigma*r)**N, 2]``, plus two deterministic worst-case
    probes: a floor-diameter disk centered on a generation center (one term,
    ratio ``2**s``) and a disk containing the whole packing.  The report also
    tracks the base exponent ``s = t`` on the same disks and whether every
    trial with diameter at least one generation diameter satisfied
    ``ratio_s <= ratio_t`` (the inheritance implied for ``s > t``).
    """
    t = params.t
    if not (math.isfinite(s) and s >= t - 1e-12):
        raise ParameterError(f"packing exponent s = {s} must be finite and >= t = {t}")
    if trials < 0:
        raise ParameterError(f"trials must be >= 0, got {trials}")
    centers = generation_centers(N, "source", params)
    g_diam = 2.0 * params.source_ratio**N
    floor = params.source_ratio**N
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    disk_centers = _uniform_disk(rng, trials, radius=1.5)
    diams = np.exp(rng.uniform(math.log(floor), math.log(2.0), trials))
    disk_centers = np.concatenate([disk_centers, [centers[0], 0.0]])
    diams = np.concatenate([diams, [floor, 2.0]])
    max_s = 0.0
    max_t = 0.0
    inherited_ok = True
    for c, diam in zip(disk_centers, diams):
        hits = int((np.abs(centers - c) < diam / 2.0 + g_diam / 2.0).sum())
        ratio_s = hits * g_diam**s / diam**s
        ratio_t = hits * g_diam**t / diam**t
        max_s = max(max_s, ratio_s)
        max_t = max(max_t, ratio_t)
        if diam >= g_diam and ratio_s > ratio_t * (1.0 + 1e-12):
            inherited_ok = False
    return PackingConditionReport(
        generation=N,
        exponent=float(s),
        trials=trials,
        max_ratio=max_s,
        max_ratio_base=max_t,
        inherited_ok=inherited_ok,
        floor_diameter=floor,
    )


# ---------------------------------------------------------------------------
# Jacobian integral growth


@dataclass(frozen=True)
class GrowthReport:
    """Max of ``integral of J over D / diam(D)**(2t/t')`` over random disks."""

    trials: int
    depth: int
    samples_per_trial: int
    exponent: float
    max_normalized: float
    stderr_at_max: float
    flagged: int
    max_undefined_fraction: float


def integral_growth_check(
    trials: int,
    seed: int,
    params: ConstructionParams,
    depth: int,
    mc_samples: int,
    c_cap: float | None = None,
) -> GrowthReport:
    """Monte Carlo sweep of the Jacobian mass growth over random disks.

    Per trial disk the Jacobian is averaged over uniform draws (unresolved
    draws excluded), scaled by the disk area and normalized by
    ``diam**(2t/t')``.  ``c_cap`` flags disks whose normalized value exceeds
    ``c_cap * (1 + 3 * stderr_rel)``.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if mc_samples < 2:
        raise ParameterError(f"mc_samples (draws per disk) must be >= 2, got {mc_samples}")
    exponent = 2.0 * params.t / params.t_prime
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    disk_centers = _uniform_disk(rng, trials, radius=1.5)
    floor = params.source_ratio**depth
    diams = np.exp(rng.uniform(math.log(floor), math.log(2.0), trials))
    max_norm = -math.inf
    stderr_at_max = 0.0
    max_undef = 0.0
    flagged = 0
    for c, diam in zip(disk_centers, diams):
        pts = c + _uniform_disk(rng, mc_samples, radius=diam / 2.0)
        vals, defined = _jacobian_powers(pts, params, depth, 1.0)
        area = math.pi * (diam / 2.0) ** 2
        est = area * float(vals.mean())
        stderr = area * float(vals.std(ddof=1)) / math.sqrt(mc_samples)
        norm = est / diam**exponent
        norm_err = stderr / diam**exponent
        max_undef = max(max_undef, 1.0 - float(defined.mean()))
        if c_cap is not None and norm > c_cap * (1.0 + 3.0 * norm_err / max(norm, 1e-300)):
            flagged += 1
        if norm > max_norm:
            max_norm = norm
            stderr_at_max = norm_err
    return GrowthReport(
        trials=trials,
        depth=depth,
        samples_per_trial=mc_samples,
        exponent=exponent,
        max_normalized=max_norm,
        stderr_at_max=stderr_at_max,
        flagged=flagged,
        max_undefined_fraction=max_undef,
    )


def generation_disk_growth(
    params: ConstructionParams, n_values: tuple[int, ...]
) -> tuple[float, ...]:
    """Closed-form normalized Jacobian mass over generation disks.

    The mass of a generation-``n`` generating disk is exactly the area of its
    image disk, ``pi * (sigma**(1/K) * r)**(2n)``.  Normalizing by
    ``diam**(2t/t')`` together with the density correction
    ``c_m**(n(K-1)/K)`` yields a constant independent of ``n``; constancy is
    the scale-invariance at the heart of the growth bound.
    """
    t_ratio = 2.0 * params.t / params.t_prime
    out = []
    for n in n_values:
        mass = math.pi * params.image_ratio ** (2 * n)
        norm = (2.0 * params.source_ratio**n) ** t_ratio
        density = params.c_m ** (n * (params.K - 1.0) / params.K)
        out.append(mass / (norm * density))
    return tuple(out)
