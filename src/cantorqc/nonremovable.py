"""Nonremovability counterexample: a discrete growth measure on the image
Cantor set, its Cauchy transform, and the composed map evaluator.

A dimension ``t`` above the removability threshold ``2(1 + alpha*K)/(1 + K)``
leaves room for an epsilon satisfying

    t - 2(1 + alpha*K)/(1 + K) >= epsilon * 2/(K + 1) * (2 + (K - 1) t),

in which case the Cauchy transform of a measure with growth ``t' - 2 eps`` on
the image set, composed with the quasiconformal map, is Hölder continuous
with exponent ``(t' - 2 eps - 1) * t/t' >= alpha`` while failing to extend
quasiregularly across the source set.  The measure here is the uniform
self-similar measure discretized at generation ``N``; its growth is
certified only down to the generation disk radius (the scale floor carried
in every report).

The transform of such a measure is evaluated by a tree code over the image
IFS (Barnes & Hut 1986; Greengard & Rokhlin 1987).  Generation-``N`` atoms
obey ``G_k(u) = sum_j G_{k-1}((u - c_j)/s) / s`` with ``G_0(u) = 1/u``, so a
cluster of ``m**k`` atoms and radius ``R_k`` seen from ``|u| >= R_k/THETA`` is
summed by its Laurent series ``sum_{n<=P} mu_n u**-(n+1)``, whose moments
follow from the centres alone by a binomial recursion (computed on first use
and cached with the measure).  Each far cluster is summed to an order ``n``
whose truncation bound ``ratio**(n+1)/(1 - ratio)``, ``ratio = R_k/|u|``, is
at most ``2**-53`` relative to the cluster's mass over ``|u|``: below the
rounding of the direct sum itself.  Near clusters recurse; near clusters of
at most :data:`LEAF` atoms, whole measures of at most :data:`LEAF` atoms and
measures without an IFS are summed directly as ``weights/(z - positions)``.
Atoms are still enumerated: the near-atom flags and the growth certificate
query them through a KD-tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    ENUMERATION_CAP,
    ConstructionParams,
    ParameterError,
    build_packing,
    derive_params,
    generation_centers,
)
from .qcmap import phi, phi_batch
from .verify import HolderConfig, HolderReport, holder_estimate

#: Hexagonal layouts with complete rings, used when auto-selecting m.
CENTERED_HEX_LADDER = tuple(1 + 3 * k * (k + 1) for k in range(1, 26))

#: A cluster of radius ``R`` is summed by its Laurent series when the point
#: lies at least ``R/THETA`` from the cluster's centre.
THETA = 0.5
#: Highest Laurent order; ``THETA**(P+1)/(1-THETA) <= 2**-53`` keeps the
#: truncation of the series below the rounding of the direct sum.
P = 53
#: Clusters, and whole measures, of at most this many atoms are summed directly.
LEAF = 512
#: Point-cluster pairs held at once by the tree descent: a few MB of temporaries.
_PAIRS = 1 << 16


def _series_order(ratio: float) -> int:
    """Lowest order ``n`` with ``ratio**(n+1)/(1-ratio) <= 2**-53``."""
    n = 0
    while ratio ** (n + 1) / (1.0 - ratio) > 2.0**-53:
        n += 1
    return n


#: Far clusters are banded by ``ratio = R/|u|``: band ``b`` holds ratios in
#: ``(THETA/2**(b+1), THETA/2**b]`` (the last band all smaller ones) and is
#: summed to the order its upper ratio needs.
_BAND_RATIOS = THETA / 2.0 ** np.arange(8)
_BAND_ORDERS = tuple(min(P, _series_order(float(r))) for r in _BAND_RATIOS)


@dataclass(frozen=True, eq=False)
class ImageIFS:
    """The similarities ``z -> c_j + ratio*z`` whose generation-``generation``
    composites place a measure's atoms, in :func:`generation_centers` order."""

    centers: np.ndarray
    ratio: float
    generation: int

    def __post_init__(self) -> None:
        centers = np.ascontiguousarray(self.centers, dtype=np.complex128)
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        if not 0.0 < self.ratio < 1.0:
            raise ParameterError(f"IFS ratio must lie in (0, 1), got {self.ratio}")
        if self.generation < 0:
            raise ParameterError(f"IFS generation must be >= 0, got {self.generation}")

    @property
    def m(self) -> int:
        return self.centers.size

    def radius(self, k: int) -> float:
        """Largest ``|p|`` over the atoms ``p`` of a level-``k`` cluster in its
        own frame: ``max|c_j| * (1 + ratio + ... + ratio**(k-1))``."""
        return float(np.abs(self.centers).max()) * (1.0 - self.ratio**k) / (1.0 - self.ratio)

    @cached_property
    def moments(self) -> tuple[np.ndarray, ...]:
        """``moments[k][n]``: sum of ``p**n`` over the ``m**k`` atoms of a
        level-``k`` cluster in its own frame, for ``n <= P``.

        From ``mu_n^(k) = sum_l C(n,l) A_(n-l) ratio**l mu_l^(k-1)`` with
        ``A_q = sum_j c_j**q``; the absolute values of the terms sum to at most
        ``m**k * radius(k)**n``, so the recursion loses no accuracy.
        """
        n = np.arange(P + 1)
        power_sums = (self.centers[:, None] ** n[None, :]).sum(axis=0)
        binom = np.array([[math.comb(i, l) for l in n] for i in n], dtype=float)
        step = binom * power_sums[np.abs(n[:, None] - n[None, :])]
        scale = self.ratio ** n.astype(float)
        mu = np.zeros(P + 1, dtype=np.complex128)
        mu[0] = 1.0
        out = [mu]
        for _ in range(self.generation):
            mu = step @ (scale * mu)
            out.append(mu)
        return tuple(out)


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Weighted atoms with a power-law growth certificate.

    ``measure(B(z, rho)) <= growth_constant * rho**growth_exponent`` was
    checked on sampled balls with ``rho >= resolution``; nothing is claimed
    below that scale floor.  ``ifs``, when given, generated the atoms (equal
    weights, :func:`generation_centers` order); the Cauchy transform then
    descends its tree instead of summing every atom.
    """

    positions: np.ndarray
    weights: np.ndarray
    resolution: float
    growth_exponent: float
    growth_constant: float
    ifs: ImageIFS | None = None

    def __post_init__(self) -> None:
        positions = np.ascontiguousarray(self.positions, dtype=np.complex128)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        positions.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weights", weights)
        if positions.shape != weights.shape:
            raise ParameterError("positions and weights must have matching shapes")
        if not (weights > 0).all():
            raise ParameterError("all atom weights must be positive")
        if self.ifs is not None:
            if positions.size != self.ifs.m**self.ifs.generation:
                raise ParameterError(
                    f"an IFS of {self.ifs.m} maps at generation {self.ifs.generation} "
                    f"places {self.ifs.m**self.ifs.generation} atoms, got {positions.size}"
                )
            if (weights != weights[0]).any():
                raise ParameterError("a measure with an IFS needs equal atom weights")

    @property
    def count(self) -> int:
        return self.positions.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def _tree(self) -> cKDTree:
        return cKDTree(np.column_stack([self.positions.real, self.positions.imag]))

    def ball_mass(self, center: complex, radius: float) -> float:
        """Mass of the closed ball ``B(center, radius)``."""
        idx = self._tree.query_ball_point([center.real, center.imag], radius)
        return float(self.weights[idx].sum())

    def nearest_atom_distance(self, zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=np.complex128)
        d, _ = self._tree.query(np.column_stack([zs.real, zs.imag]))
        return d

    def growth_ratio(self, centers: np.ndarray, radii: np.ndarray) -> float:
        """Max of ``mass(B)/rho**s`` over all (center, radius) combinations.

        Balls are weighed by counting atoms, so the weights must be equal.
        """
        if np.unique(self.weights).size > 1:
            raise ParameterError("growth_ratio needs equal atom weights")
        weight = float(self.weights[0])
        best = 0.0
        pts = np.column_stack([np.asarray(centers).real, np.asarray(centers).imag])
        for rho in np.asarray(radii, dtype=float):
            counts = self._tree.query_ball_point(pts, rho, return_length=True)
            best = max(best, float(counts.max()) * weight / rho**self.growth_exponent)
        return best

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "resolution": self.resolution,
            "growth_exponent": self.growth_exponent,
            "growth_constant": self.growth_constant,
            "atoms": [
                [float(p.real), float(p.imag), float(w)]
                for p, w in zip(self.positions, self.weights)
            ],
        }


def frostman_measure(
    params: ConstructionParams,
    N: int,
    growth_delta: float = 0.05,
    ball_samples: int = 200,
    n_radii: int = 12,
    seed: int = 0,
    cap: int = ENUMERATION_CAP,
) -> DiscreteMeasure:
    """Uniform atoms on the generation-``N`` image centers, with growth certificate.

    Weights are ``m**-N`` each; the certificate exponent is
    ``dim_image - growth_delta`` and the constant is the observed maximum of
    ``mass(B)/rho**s`` over balls centered at sampled atoms and random points,
    with radii log-spaced between the resolution and 2.
    """
    if growth_delta <= 0:
        raise ParameterError(f"growth_delta must be positive, got {growth_delta}")
    s = params.dim_image - growth_delta
    if s <= 0:
        raise ParameterError(f"growth exponent {s} must be positive")
    centers = generation_centers(N, "image", params, cap=cap)
    weights = np.full(centers.size, float(params.m) ** (-N))
    resolution = params.image_radius(N)
    measure = DiscreteMeasure(
        positions=centers,
        weights=weights,
        resolution=resolution,
        growth_exponent=s,
        growth_constant=math.nan,
        ifs=ImageIFS(params.packing.centers, params.image_ratio, N),
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_atoms = min(ball_samples, centers.size)
    picked = centers[rng.choice(centers.size, size=n_atoms, replace=False)]
    rad = np.sqrt(rng.uniform(0.0, 1.0, ball_samples))
    ang = rng.uniform(0.0, 2.0 * math.pi, ball_samples)
    random_centers = rad * np.exp(1j * ang)
    ball_centers = np.concatenate([picked, random_centers])
    radii = np.geomspace(resolution, 2.0, n_radii)
    return replace(measure, growth_constant=measure.growth_ratio(ball_centers, radii))


# ---------------------------------------------------------------------------
# Cauchy transform


def _scatter_add(acc: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``acc[idx] += values`` with repeated indices accumulated."""
    acc.real += np.bincount(idx, weights=values.real, minlength=acc.size)
    acc.imag += np.bincount(idx, weights=values.imag, minlength=acc.size)


def _laurent(u: np.ndarray, u2: np.ndarray, mu: np.ndarray, radius: float) -> np.ndarray:
    """``sum_n mu_n u**-(n+1)`` for ``|u| >= radius/THETA`` (``u2 = |u|**2``),
    each entry to the order of its band of ``radius/|u|``."""
    v = 1.0 / u
    out = np.empty_like(u)
    band = np.searchsorted((radius / _BAND_RATIOS[1:]) ** 2, u2, side="right")
    for b, order in enumerate(_BAND_ORDERS):
        idx = np.flatnonzero(band == b)
        if idx.size == 0:
            continue
        vb = v[idx]
        acc = np.full(idx.size, mu[order])
        for n in range(order - 1, -1, -1):
            acc *= vb
            acc += mu[n]
        out[idx] = acc * vb
    return out


def _tree_sum(measure: DiscreteMeasure, zs: np.ndarray) -> np.ndarray:
    """``sum_k w_k / (z - p_k)`` by descending the measure's IFS tree."""
    ifs = measure.ifs
    m, s, N = ifs.m, ifs.ratio, ifs.generation
    leaf_levels = 0
    while m ** (leaf_levels + 1) <= LEAF:
        leaf_levels += 1
    leaf_depth = N - leaf_levels
    leaves = measure.positions.reshape(-1, m**leaf_levels)
    leaf_weights = measure.weights[None, : m**leaf_levels]
    leaf_rows = max(1, _PAIRS // m**leaf_levels)
    weight = float(measure.weights[0])
    out = np.empty(zs.size, dtype=np.complex128)
    step = max(1, _PAIRS // m)
    for start in range(0, zs.size, step):
        z = zs[start : start + step]
        acc = np.zeros(z.size, dtype=np.complex128)
        # one entry per (point, cluster) pair still to sum; node numbers the
        # depth-d clusters in atom order
        pt = np.arange(z.size)
        node = np.zeros(z.size, dtype=np.intp)
        centre = np.zeros(z.size, dtype=np.complex128)
        for d in range(leaf_depth + 1):
            k = N - d
            scale = s**d
            u = (z[pt] - centre) / scale
            u2 = u.real**2 + u.imag**2
            radius = ifs.radius(k)
            far = u2 >= (radius / THETA) ** 2
            series = _laurent(u[far], u2[far], ifs.moments[k], radius)
            _scatter_add(acc, pt[far], series * (weight / scale))
            near = ~far
            pt, node, centre = pt[near], node[near], centre[near]
            if d < leaf_depth:
                pt = np.repeat(pt, m)
                node = (node[:, None] * m + np.arange(m)).ravel()
                centre = (centre[:, None] + scale * ifs.centers[None, :]).ravel()
        for i in range(0, pt.size, leaf_rows):
            p, n = pt[i : i + leaf_rows], node[i : i + leaf_rows]
            _scatter_add(acc, p, (leaf_weights / (z[p][:, None] - leaves[n])).sum(axis=1))
        out[start : start + step] = acc
    return out


def cauchy_transform_batch(
    measure: DiscreteMeasure, zs: np.ndarray, chunk: int = 1 << 22
) -> tuple[np.ndarray, np.ndarray]:
    """``(1/pi) * sum_k w_k / (z - p_k)`` with a near-atom flag per point.

    A measure with an IFS and more than :data:`LEAF` atoms is summed by the
    tree descent of the module docstring, to the accuracy of the direct sum;
    any other is summed directly, ``chunk`` bounding the elements of each
    temporary.  Points closer than half the resolution to some atom are
    flagged: there the discrete transform no longer approximates its
    continuous limit.  A non-finite point raises :class:`ParameterError`.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    flat = zs.ravel()
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ParameterError(
            f"Cauchy transform points must be finite; point {bad[0]} is {flat[bad[0]]}"
        )
    if measure.ifs is not None and measure.count > LEAF:
        values = _tree_sum(measure, flat)
    else:
        values = np.zeros(flat.size, dtype=np.complex128)
        n_atoms = measure.count
        z_chunk = max(1, chunk // max(n_atoms, 1))
        for start in range(0, flat.size, z_chunk):
            block = flat[start : start + z_chunk]
            values[start : start + z_chunk] = (
                measure.weights[None, :] / (block[:, None] - measure.positions[None, :])
            ).sum(axis=1)
    values /= math.pi
    flagged = measure.nearest_atom_distance(flat) < measure.resolution / 2.0
    return values.reshape(zs.shape), flagged.reshape(zs.shape)


def cauchy_transform(measure: DiscreteMeasure, z: complex) -> complex:
    """Scalar Cauchy transform (see :func:`cauchy_transform_batch` for flags)."""
    values, _ = cauchy_transform_batch(measure, np.array([z]))
    return complex(values[0])


# ---------------------------------------------------------------------------
# counterexample assembly


def removability_threshold(alpha: float, K: float) -> float:
    """Dimension below which Hölder-``alpha`` quasiregular removability holds."""
    return 2.0 * (1.0 + alpha * K) / (1.0 + K)


def max_admissible_epsilon(alpha: float, K: float, t: float) -> float:
    """Largest epsilon with ``t - threshold >= eps * 2/(K+1) * (2 + (K-1)t)``."""
    return (t - removability_threshold(alpha, K)) * (K + 1.0) / (2.0 * (2.0 + (K - 1.0) * t))


@dataclass(frozen=True, eq=False)
class CounterexampleSpec:
    """A built counterexample: parameters, measure, and the composed evaluator."""

    alpha: float
    K: float
    t: float
    epsilon: float
    expected_f_exponent: float
    params: ConstructionParams
    measure: DiscreteMeasure
    depth_max: int

    def g_batch(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return cauchy_transform_batch(self.measure, zs)

    def f_batch(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``f = g o phi`` on an array; returns values and near-atom flags."""
        w, _, _ = phi_batch(np.asarray(zs, dtype=np.complex128), self.params, self.depth_max)
        return cauchy_transform_batch(self.measure, w)

    def f(self, z: complex) -> complex:
        return cauchy_transform(self.measure, phi(z, self.params, self.depth_max).value)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "K": self.K,
            "t": self.t,
            "epsilon": self.epsilon,
            "expected_f_exponent": self.expected_f_exponent,
            "m": self.params.m,
            "dim_image": self.params.dim_image,
            "t_prime": self.params.t_prime,
            "scale_floor": self.measure.resolution,
            "atom_count": self.measure.count,
            "depth_max": self.depth_max,
        }


def build_counterexample(
    alpha: float,
    K: float,
    t: float,
    N: int = 2,
    depth_max: int = 40,
    m: int | None = None,
    sigma_max: float = 0.995,
    cap: int = ENUMERATION_CAP,
    seed: int = 0,
) -> CounterexampleSpec:
    """Assemble the counterexample for Hölder-``alpha`` nonremovability at dimension ``t``.

    Rejects ``t`` at or below the removability threshold
    ``2(1 + alpha*K)/(1 + K)``.  Epsilon is half the maximal admissible value;
    ``m`` (when not given) is the smallest complete-ring hexagonal count whose
    layout yields ``sigma <= sigma_max`` and an image-dimension deficit at most
    epsilon, so the discrete measure's growth exponent ``t' - 2 eps`` stays
    below the achieved dimension.
    """
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    threshold = removability_threshold(alpha, K)
    if not t > threshold:
        raise ParameterError(
            f"t = {t} must exceed the removability threshold "
            f"2(1 + alpha*K)/(1 + K) = {threshold:.6g}; below it every such set is removable"
        )
    epsilon = 0.5 * max_admissible_epsilon(alpha, K, t)

    def try_m(candidate: int) -> ConstructionParams | None:
        if candidate**N > cap:
            return None
        packing = build_packing(candidate)
        try:
            params = derive_params(t, K, packing)
        except ParameterError:
            return None
        if params.sigma > sigma_max:
            return None
        if params.t_prime - params.dim_image > epsilon:
            return None
        return params

    params = None
    if m is not None:
        params = try_m(m)
        if params is None:
            raise ParameterError(
                f"m = {m} does not satisfy sigma <= {sigma_max}, deficit <= {epsilon:.6g} "
                f"and m**N <= {cap} for (alpha, K, t) = ({alpha}, {K}, {t})"
            )
    else:
        for candidate in CENTERED_HEX_LADDER:
            params = try_m(candidate)
            if params is not None:
                break
        if params is None:
            raise ParameterError(
                f"no ladder layout up to m = {CENTERED_HEX_LADDER[-1]} meets "
                f"sigma <= {sigma_max} and deficit <= {epsilon:.6g} at t = {t}"
            )

    growth_target = params.t_prime - 2.0 * epsilon
    growth_delta = params.dim_image - growth_target
    measure = frostman_measure(params, N, growth_delta=growth_delta, seed=seed, cap=cap)
    expected = (params.t_prime - 2.0 * epsilon - 1.0) * t / params.t_prime
    return CounterexampleSpec(
        alpha=float(alpha),
        K=float(K),
        t=float(t),
        epsilon=epsilon,
        expected_f_exponent=expected,
        params=params,
        measure=measure,
        depth_max=depth_max,
    )


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class CounterexampleReport:
    alpha: float
    K: float
    t: float
    epsilon: float
    expected_f_exponent: float
    measured_exponent: float
    max_ratio: float
    dbar_max: float
    residue_error: float
    residue_error_near: float
    flagged_pairs: int
    scale_floor: float

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "K": self.K,
            "t": self.t,
            "epsilon": self.epsilon,
            "expected_f_exponent": self.expected_f_exponent,
            "measured_exponent": self.measured_exponent,
            "max_ratio": self.max_ratio,
            "dbar_max": self.dbar_max,
            "residue_error": self.residue_error,
            "residue_error_near": self.residue_error_near,
            "flagged_pairs": self.flagged_pairs,
            "scale_floor": self.scale_floor,
        }


def _f_map_fn(spec: CounterexampleSpec):
    def fn(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, flagged = spec.f_batch(zs)
        err = np.where(flagged, math.inf, 0.0)
        return values, err

    return fn


def dbar_max(
    spec: CounterexampleSpec, grid: int = 40, margin_factor: float = 2.0
) -> float:
    """Max finite-difference d-bar of the transform away from the atoms.

    Central differences on a square grid restricted to points at least
    ``margin_factor * resolution`` from every atom, with per-point step
    ``min(distance/1000, 2e-6)`` balancing truncation against round-off;
    holomorphy off the support should drive this to zero.
    """
    axis = np.linspace(-1.1, 1.1, grid)
    zs = (axis[:, None] + 1j * axis[None, :]).ravel()
    dist = spec.measure.nearest_atom_distance(zs)
    keep = dist >= margin_factor * spec.measure.resolution
    zs, dist = zs[keep], dist[keep]
    h = np.minimum(dist / 1000.0, 2e-6)
    gxp, _ = cauchy_transform_batch(spec.measure, zs + h)
    gxm, _ = cauchy_transform_batch(spec.measure, zs - h)
    gyp, _ = cauchy_transform_batch(spec.measure, zs + 1j * h)
    gym, _ = cauchy_transform_batch(spec.measure, zs - 1j * h)
    fx = (gxp - gxm) / (2.0 * h)
    fy = (gyp - gym) / (2.0 * h)
    dbar = 0.5 * (fx + 1j * fy)
    return float(np.abs(dbar).max())


def residue_error(spec: CounterexampleSpec, radius: float, n_points: int = 64) -> float:
    """Max of ``|z*g(z) - 1/pi|`` over a circle; a nonzero residue at infinity
    is the witness that the transform has no entire extension."""
    ang = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    zs = radius * np.exp(1j * ang)
    g, _ = cauchy_transform_batch(spec.measure, zs)
    return float(np.abs(zs * g - 1.0 / math.pi).max())


def verify_counterexample(
    spec: CounterexampleSpec,
    seed: int = 0,
    holder_config: HolderConfig | None = None,
) -> CounterexampleReport:
    """Measure the three claims: Hölder continuity of ``f``, holomorphy of the
    transform off the support, and the nonzero residue at infinity."""
    if holder_config is None:
        holder_config = HolderConfig(
            params=spec.params,
            n_uniform=2000,
            n_stratified=6000,
            adversarial_depth=4,
            adversarial_per_generation=300,
            adversarial_offset=0.37 + 0.21j,
            annulus_levels=1,
            annulus_disks=8,
        )
    report: HolderReport = holder_estimate(
        _f_map_fn(spec), spec.alpha, holder_config, seed=seed
    )
    return CounterexampleReport(
        alpha=spec.alpha,
        K=spec.K,
        t=spec.t,
        epsilon=spec.epsilon,
        expected_f_exponent=spec.expected_f_exponent,
        measured_exponent=report.regression_exponent,
        max_ratio=report.max_ratio,
        dbar_max=dbar_max(spec),
        residue_error=residue_error(spec, 100.0),
        residue_error_near=residue_error(spec, 10.0),
        flagged_pairs=report.excluded_pairs,
        scale_floor=spec.measure.resolution,
    )
