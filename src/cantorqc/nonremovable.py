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

The transform, the near-atom flags and the growth certificate are three
rules of one walk down the tree of the image IFS (Barnes & Hut 1986).  The
walk opens a frontier of (point, cluster) pairs level by level; at each
level a rule finishes the pairs it can, and it visits the atoms of the
leaves left one by one.  For the transform (Greengard & Rokhlin 1987),
generation-``N`` atoms obey ``G_k(u) = sum_j G_{k-1}((u - c_j)/s) / s`` with
``G_0(u) = 1/u``, so a cluster of ``m**k`` atoms and radius ``R_k`` seen from
``|u| >= R_k/THETA`` is summed by its Laurent series ``sum_{n<=P} mu_n u**-(n+1)``,
whose moments follow from the centres alone by a binomial recursion
(computed on first use and cached with the measure), to an order ``n`` whose
truncation bound ``ratio**(n+1)/(1 - ratio)``, ``ratio = R_k/|u|``, is at most
``2**-53`` relative to the cluster's mass over ``|u|``: below the rounding of
the direct sum itself.  The ball counts take a cluster wholly inside a ball
at once and drop one wholly outside; the nearest-atom search drops a
cluster beyond the distance of a first, greedy atom.  Both widen cluster
disks far beyond rounding and compare atoms as a KD-tree would, by
``dx*dx + dy*dy``.  Leaves hold at most :data:`LEAF` atoms; a measure without
an IFS, or of at most :data:`LEAF` atoms, is one leaf.  Atoms are still
enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import (
    ENUMERATION_CAP,
    _CellGrid,
    _sq_dist,
    ConstructionParams,
    ParameterError,
    build_packing,
    derive_params,
    generation_centers,
)
from .qcmap import _uniform_disk, phi_batch
from .verify import HolderConfig, HolderReport, holder_estimate

#: Centered hexagonal numbers ``1 + 3k(k+1)``, tried in order when auto-selecting
#: m.  They count the sites of k complete rings, but ``build_packing`` clips the
#: lattice by norm, so at m = 217, 331 and 469 its layout is not those rings and
#: is not 6-fold symmetric.
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
#: Relative widening of cluster radii in the atom queries, far above the
#: rounding of atom, cluster and point positions.
_SLACK = 1e-9
#: Widening, in a cluster's own frame, of the cells and reach of the
#: ``ImageIFS`` grids.  Clusters of scale below it open every child, so the
#: rounding of a frame point, about ``1e-14/scale``, stays far below it.
_FRAME_SLACK = 1e-6
#: Half-width of the box gridded in a cluster's frame; a point farther out
#: opens every child.
_EXTENT = 2.0


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


def _frame_cells(grid: _CellGrid, u: np.ndarray, scale: float) -> np.ndarray:
    """Cells of points ``u`` in a cluster's frame; -1 (every child) where the
    frame is too small to grid."""
    if scale >= _FRAME_SLACK:
        return grid.cells(u)
    return np.full(u.size, -1, dtype=np.intp)


def _leaf_levels(m: int) -> int:
    """Levels of the largest cluster of at most :data:`LEAF` atoms."""
    levels = 0
    while m ** (levels + 1) <= LEAF:
        levels += 1
    return levels


def _open(ifs: "ImageIFS", d: int, zs: np.ndarray, pt: np.ndarray, node: np.ndarray,
          centre: np.ndarray, tags: np.ndarray, grid: _CellGrid | None):
    """The depth-``d+1`` children of each (point, depth-``d`` cluster) pair: all
    ``m`` of them, or those ``grid`` lists for the point's cell in the cluster's
    frame, each with its pair's tag.  ``pt`` indexes ``zs``, ``node`` numbers
    clusters in atom order and ``centre`` is the cluster's image of 0."""
    m, scale = ifs.m, ifs.ratio**d
    if grid is None:
        return (
            np.repeat(pt, m),
            (node[:, None] * m + np.arange(m)).ravel(),
            (centre[:, None] + scale * ifs.centers[None, :]).ravel(),
            np.repeat(tags, m),
        )
    pair, j = grid.candidates(_frame_cells(grid, (zs[pt] - centre) / scale, scale))
    return pt[pair], node[pair] * m + j, centre[pair] + scale * ifs.centers[j], tags[pair]


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

    def _grid(self, reach: float) -> _CellGrid:
        """Grid over a cluster's frame whose rows reach ``reach`` past the nearest child."""
        return _CellGrid.build(self.centers, 0.0, reach + 2.0 * _FRAME_SLACK, _EXTENT, _FRAME_SLACK)

    @cached_property
    def _near_grid(self) -> _CellGrid:
        """Per cell of a cluster's frame, the children that can be nearest to a
        point of the cell, so hold the cluster's nearest atom at the last level."""
        return self._grid(0.0)

    @cached_property
    def _reach_grid(self) -> _CellGrid:
        """Per cell of a cluster's frame, the children that can hold the
        cluster's atom nearest to a point of the cell: those within twice the
        largest child radius of the nearest child."""
        return self._grid(2.0 * self.ratio * self.radius(max(self.generation - 1, 0)))

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
    """Atoms of one weight each, with a power-law growth certificate.

    ``measure(B(z, rho)) <= growth_constant * rho**growth_exponent`` was
    checked on sampled balls with ``rho >= resolution``; nothing is claimed
    below that scale floor.  ``ifs``, when given, generated the atoms (in
    :func:`generation_centers` order); the Cauchy transform then descends
    its tree instead of summing every atom.
    """

    positions: np.ndarray
    weight: float
    resolution: float
    growth_exponent: float
    growth_constant: float
    ifs: ImageIFS | None = None

    def __post_init__(self) -> None:
        positions = np.ascontiguousarray(self.positions, dtype=np.complex128)
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weight", float(self.weight))
        if positions.size == 0:
            raise ParameterError("a measure needs at least one atom")
        if not self.weight > 0:
            raise ParameterError(f"the atom weight must be positive, got {self.weight}")
        if not np.isfinite(positions).all():
            raise ParameterError("atom positions must be finite")
        if not 0.0 < self.resolution < math.inf:
            raise ParameterError(f"resolution must be positive and finite, got {self.resolution}")
        if self.ifs is not None and positions.size != self.ifs.m**self.ifs.generation:
            raise ParameterError(
                f"an IFS of {self.ifs.m} maps at generation {self.ifs.generation} "
                f"places {self.ifs.m**self.ifs.generation} atoms, got {positions.size}"
            )

    @property
    def count(self) -> int:
        return self.positions.size

    def _walk(self, zs: np.ndarray, finish, leaf, tag: int = 1, levels: int | None = None,
              grid: _CellGrid | None = None) -> None:
        """Walk the IFS tree for the points of the flat ``zs``, in chunks whose
        first opening holds at most :data:`_PAIRS` pairs.

        Each (point, cluster) pair carries an integer tag, ``tag`` at the
        root.  At each depth down to the leaves, clusters of ``m**levels``
        atoms (by default the largest of at most :data:`LEAF`),
        ``finish(d, pt, node, centre, tags)`` settles the pairs it can and
        returns their new tags, 0 (or False) for those settled.  :func:`_open`
        opens the others, through ``grid`` if given, and their children carry
        their tag.  ``leaf(pt, atoms, tags)`` takes the pairs left at the
        leaves in blocks of at most :data:`_PAIRS` atoms, ``atoms[i]`` a copy
        of the leaf of ``pt[i]``.  Without a grid the pairs stay in point
        order, as :func:`_scatter_add` needs.  A measure of one leaf has no
        levels.
        """
        ifs = self._tree
        if ifs is None:
            depth, leaves, width = -1, self.positions[None, :], self.count
        else:
            levels = _leaf_levels(ifs.m) if levels is None else levels
            depth, leaves = ifs.generation - levels, self.positions.reshape(-1, ifs.m**levels)
            width = ifs.m if grid is None else grid.table.shape[1]
        step, rows = max(1, _PAIRS // width), max(1, _PAIRS // leaves.shape[1])
        for start in range(0, zs.size, step):
            pt = np.arange(start, min(start + step, zs.size))
            node = np.zeros(pt.size, dtype=np.intp)
            centre = np.zeros(pt.size, dtype=np.complex128)
            tags = np.full(pt.size, tag)
            for d in range(depth + 1):
                tags = finish(d, pt, node, centre, tags)
                keep = tags.astype(bool, copy=False)
                pt, node, centre, tags = pt[keep], node[keep], centre[keep], tags[keep]
                if d < depth:
                    pt, node, centre, tags = _open(ifs, d, zs, pt, node, centre, tags, grid)
            for i in range(0, pt.size, rows):
                leaf(pt[i : i + rows], leaves[node[i : i + rows]], tags[i : i + rows])

    @property
    def _tree(self) -> ImageIFS | None:
        """The IFS that :meth:`_walk` descends; ``None`` for one leaf."""
        return self.ifs if self.count > LEAF else None

    def _ball_counts(self, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Atoms in each closed ball ``B(center, radius)``, by the KD-tree test
        ``dx*dx + dy*dy <= radius*radius``: one row per center, one column per
        radius, from one walk.

        A pair's tag ``lo*(R+1) + hi`` holds the range ``[lo, hi)`` of the
        ``R`` sorted radii whose balls neither hold its cluster wholly nor
        miss it wholly at every depth above; only those are settled below.
        The counts are kept as their changes from each sorted radius to the
        next, so that a cluster adds its atoms to a whole range at once.
        """
        centers = np.asarray(centers, dtype=np.complex128).ravel()
        radii = np.asarray(radii, dtype=float)
        order = np.argsort(radii)
        r = radii[order]
        R = r.size
        changes = np.zeros(centers.size * (R + 1), dtype=np.int64)
        ifs = self._tree

        def add(pt, lo, hi, n):
            # n atoms more in the balls of radii [lo, hi) about the centers pt
            np.add.at(changes, pt * (R + 1) + lo, n)
            np.add.at(changes, pt * (R + 1) + hi, -n)

        def finish(d, pt, node, centre, tags):
            # a cluster wholly inside a ball is counted, one wholly outside dropped
            lo, hi = np.divmod(tags, R + 1)
            k = ifs.generation - d
            dist = np.sqrt(_sq_dist(centers[pt], centre))
            extent = ifs.ratio**d * ifs.radius(k)
            extent = extent + _SLACK * (1.0 + extent + dist)
            inside = np.minimum(np.maximum(np.searchsorted(r, dist + extent), lo), hi)
            add(pt, inside, hi, ifs.m**k)
            lo = np.maximum(lo, np.searchsorted(r, dist - extent))
            return np.where(lo < inside, lo * (R + 1) + inside, 0)

        def leaf(pt, atoms, tags):
            lo, hi = np.divmod(tags, R + 1)
            d2 = _sq_dist(centers[pt, None], atoms)
            while pt.size:
                # count each pair's lowest radius left, then drop that radius
                add(pt, lo, lo + 1, (d2 <= (r[lo] * r[lo])[:, None]).sum(axis=1))
                left = np.flatnonzero(lo + 1 < hi)
                pt, lo, hi, d2 = pt[left], lo[left] + 1, hi[left], d2[left]

        live = R - int(np.isnan(r).sum())
        if live:
            # NaN radii sort last and hold no atom, as every comparison with them fails
            self._walk(centers, finish, leaf, tag=live)
        counts = np.empty((centers.size, R), dtype=np.int64)
        counts[:, order] = np.cumsum(changes.reshape(-1, R + 1)[:, :R], axis=1)
        return counts

    def nearest_atom_distance(self, zs: np.ndarray) -> np.ndarray:
        """Distance from each point to its nearest atom, ``sqrt(dx*dx + dy*dy)``.

        Branch and bound down the IFS tree to the atoms' parents.  Following
        the nearest child at every level reaches one atom, whose distance
        bounds the search.  A cluster whose disk, widened by :data:`_SLACK`,
        comes within the bound opens only the children its grid lists: every
        child for a point far outside it, or for a cluster too small to grid.
        At the atoms' parents the grid lists the atoms that can be nearest.
        """
        zs = np.asarray(zs, dtype=np.complex128)
        flat = zs.ravel()
        best = np.full(flat.size, math.inf)
        bound = np.empty(flat.size)
        ifs = self._tree

        def finish(d, pt, node, centre, _tags):
            m, s, N = ifs.m, ifs.ratio, ifs.generation
            z = flat[pt]
            if d == 0:
                # the atom reached through the nearest child at every level bounds the search
                atom, at = node, centre
                for level in range(N):
                    j = ifs._near_grid.nearest((z - at) / s**level)
                    atom, at = atom * m + j, at + s**level * ifs.centers[j]
                b = np.sqrt(_sq_dist(z, self.positions[atom]))
                bound[pt] = b + _SLACK * (1.0 + b)
            reach = bound[pt] + s**d * ifs.radius(N - d) * (1.0 + _SLACK)
            keep = _sq_dist(z, centre) <= reach * reach
            if d < N - 1:
                return keep
            # a cell's row of atoms that can be nearest, the padding index m
            # standing for atom m-1 of the same parent; the rest scan every atom
            cells = np.full(pt.size, -1)
            cells[keep] = _frame_cells(ifs._near_grid, (z[keep] - centre[keep]) / s**d, s**d)
            listed = cells >= 0
            atoms = node[listed, None] * m + np.minimum(ifs._near_grid.table[cells[listed]], m - 1)
            d2 = _sq_dist(z[listed, None], self.positions[atoms])
            np.minimum.at(best, pt[listed], d2.min(axis=1))
            return keep & ~listed

        def leaf(pt, atoms, _tags):
            np.minimum.at(best, pt, _sq_dist(flat[pt, None], atoms).min(axis=1))

        self._walk(flat, finish, leaf, levels=1, grid=None if ifs is None else ifs._reach_grid)
        return np.sqrt(best).reshape(zs.shape)

    def growth_ratio(self, centers: np.ndarray, radii: np.ndarray) -> float:
        """Max of ``mass(B)/rho**s`` over all (center, radius) combinations,
        each ball weighed by counting its atoms."""
        radii = np.asarray(radii, dtype=float)
        best = 0.0
        for rho, count in zip(radii, self._ball_counts(centers, radii).max(axis=0)):
            best = max(best, float(count) * self.weight / rho**self.growth_exponent)
        return best

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "resolution": self.resolution,
            "growth_exponent": self.growth_exponent,
            "growth_constant": self.growth_constant,
            "atoms": [
                [float(p.real), float(p.imag), self.weight]
                for p in self.positions
            ],
        }


def frostman_measure(
    params: ConstructionParams,
    N: int,
    growth_delta: float = 0.05,
    seed: int = 0,
) -> DiscreteMeasure:
    """Uniform atoms on the generation-``N`` image centers, with growth certificate.

    Each atom weighs ``m**-N``; the certificate exponent is
    ``dim_image - growth_delta`` and the constant is the observed maximum of
    ``mass(B)/rho**s`` over balls centered at 200 sampled atoms and 200
    random points, with 12 radii log-spaced between the resolution and 2.
    """
    if growth_delta <= 0:
        raise ParameterError(f"growth_delta must be positive, got {growth_delta}")
    s = params.dim_image - growth_delta
    if s <= 0:
        raise ParameterError(f"growth exponent {s} must be positive")
    centers = generation_centers(N, "image", params)
    resolution = params.image_radius(N)
    measure = DiscreteMeasure(
        positions=centers,
        weight=float(params.m) ** (-N),
        resolution=resolution,
        growth_exponent=s,
        growth_constant=math.nan,
        ifs=ImageIFS(params.packing.centers, params.image_ratio, N),
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_atoms = min(200, centers.size)
    picked = centers[rng.choice(centers.size, size=n_atoms, replace=False)]
    ball_centers = np.concatenate([picked, _uniform_disk(rng, 200)])
    radii = np.geomspace(resolution, 2.0, 12)
    return replace(measure, growth_constant=measure.growth_ratio(ball_centers, radii))


# ---------------------------------------------------------------------------
# Cauchy transform


def _scatter_add(acc: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``acc[idx] += values`` for non-decreasing ``idx``, repeated indices accumulated."""
    if idx.size:
        lo, idx = idx[0], idx - idx[0]
        window = acc[lo : lo + idx[-1] + 1]
        window.real += np.bincount(idx, weights=values.real, minlength=window.size)
        window.imag += np.bincount(idx, weights=values.imag, minlength=window.size)


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


def _cauchy_values(measure: DiscreteMeasure, zs: np.ndarray) -> np.ndarray:
    """``(1/pi) * sum_k weight / (z - p_k)`` at each point of ``zs``, by the walk
    of the module docstring; a non-finite point raises :class:`ParameterError`."""
    zs = np.asarray(zs, dtype=np.complex128)
    flat = zs.ravel()
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ParameterError(
            f"Cauchy transform points must be finite; point {bad[0]} is {flat[bad[0]]}"
        )
    acc = np.zeros(flat.size, dtype=np.complex128)
    ifs, weight = measure._tree, measure.weight

    def finish(d, pt, node, centre, _tags):
        # a cluster seen from beyond radius/THETA is summed by its Laurent series
        k, scale = ifs.generation - d, ifs.ratio**d
        u = flat[pt] - centre
        u /= scale
        u2 = u.real**2 + u.imag**2
        radius = ifs.radius(k)
        far = u2 >= (radius / THETA) ** 2
        series = _laurent(u[far], u2[far], ifs.moments[k], radius)
        _scatter_add(acc, pt[far], series * (weight / scale))
        return ~far

    def leaf(pt, atoms, _tags):
        terms = flat[pt][:, None] - atoms
        np.divide(weight, terms, out=terms)
        _scatter_add(acc, pt, terms.sum(axis=1))

    measure._walk(flat, finish, leaf)
    acc /= math.pi
    return acc.reshape(zs.shape)


def cauchy_transform_batch(
    measure: DiscreteMeasure, zs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(1/pi) * sum_k weight / (z - p_k)`` with a near-atom flag per point.

    Summed to the accuracy of the direct sum.  Points closer than half the
    resolution to some atom are flagged: there the discrete transform no
    longer approximates its continuous limit.  A non-finite point raises
    :class:`ParameterError`.
    """
    values = _cauchy_values(measure, zs)
    return values, measure.nearest_atom_distance(zs) < measure.resolution / 2.0


def cauchy_transform(measure: DiscreteMeasure, z: complex) -> complex:
    """Scalar Cauchy transform (see :func:`cauchy_transform_batch` for flags)."""
    return complex(_cauchy_values(measure, np.array([z]))[0])


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

    def f_batch(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``f = g o phi`` on an array; returns values and near-atom flags."""
        w, _, _ = phi_batch(np.asarray(zs, dtype=np.complex128), self.params, self.depth_max)
        return cauchy_transform_batch(self.measure, w)

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
    seed: int = 0,
) -> CounterexampleSpec:
    """Assemble the counterexample for Hölder-``alpha`` nonremovability at dimension ``t``.

    Rejects ``t`` at or below the removability threshold
    ``2(1 + alpha*K)/(1 + K)``.  Epsilon is half the maximal admissible value;
    ``m`` (when not given) is the smallest complete-ring hexagonal count whose
    layout yields ``sigma <= 0.995`` and an image-dimension deficit at most
    epsilon, so the discrete measure's growth exponent ``t' - 2 eps`` stays
    below the achieved dimension.
    """
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if N < 1:
        # a generation-0 measure leaves no grid point two resolutions from its atom
        raise ParameterError(f"measure generation N must be >= 1, got {N}")
    threshold = removability_threshold(alpha, K)
    if not t > threshold:
        raise ParameterError(
            f"t = {t} must exceed the removability threshold "
            f"2(1 + alpha*K)/(1 + K) = {threshold:.6g}; below it every such set is removable"
        )
    epsilon = 0.5 * max_admissible_epsilon(alpha, K, t)

    def try_m(candidate: int) -> ConstructionParams | None:
        if candidate**N > ENUMERATION_CAP:
            return None
        packing = build_packing(candidate)
        try:
            params = derive_params(t, K, packing)
        except ParameterError:
            return None
        if params.sigma > 0.995:
            return None
        if params.t_prime - params.dim_image > epsilon:
            return None
        return params

    params = None
    if m is not None:
        params = try_m(m)
        if params is None:
            raise ParameterError(
                f"m = {m} does not satisfy sigma <= 0.995, deficit <= {epsilon:.6g} "
                f"and m**N <= {ENUMERATION_CAP} for (alpha, K, t) = ({alpha}, {K}, {t})"
            )
    else:
        for candidate in CENTERED_HEX_LADDER:
            params = try_m(candidate)
            if params is not None:
                break
        if params is None:
            raise ParameterError(
                f"no ladder layout up to m = {CENTERED_HEX_LADDER[-1]} meets "
                f"sigma <= 0.995 and deficit <= {epsilon:.6g} at t = {t}"
            )

    growth_target = params.t_prime - 2.0 * epsilon
    growth_delta = params.dim_image - growth_target
    measure = frostman_measure(params, N, growth_delta=growth_delta, seed=seed)
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


def _f_map_fn(spec: CounterexampleSpec):
    def fn(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, flagged = spec.f_batch(zs)
        err = np.where(flagged, math.inf, 0.0)
        return values, err

    return fn


def dbar_max(spec: CounterexampleSpec, grid: int = 40) -> float:
    """Max finite-difference d-bar of the transform away from the atoms.

    Central differences on a square grid restricted to points at least
    twice the resolution from every atom, with per-point step
    ``min(distance/1000, 2e-6)`` balancing truncation against round-off;
    holomorphy off the support should drive this to zero.
    """
    axis = np.linspace(-1.1, 1.1, grid)
    zs = (axis[:, None] + 1j * axis[None, :]).ravel()
    dist = spec.measure.nearest_atom_distance(zs)
    keep = dist >= 2.0 * spec.measure.resolution
    zs, dist = zs[keep], dist[keep]
    h = np.minimum(dist / 1000.0, 2e-6)
    gxp = _cauchy_values(spec.measure, zs + h)
    gxm = _cauchy_values(spec.measure, zs - h)
    gyp = _cauchy_values(spec.measure, zs + 1j * h)
    gym = _cauchy_values(spec.measure, zs - 1j * h)
    fx = (gxp - gxm) / (2.0 * h)
    fy = (gyp - gym) / (2.0 * h)
    dbar = 0.5 * (fx + 1j * fy)
    return float(np.abs(dbar).max())


def residue_error(spec: CounterexampleSpec, radius: float) -> float:
    """Max of ``|z*g(z) - 1/pi|`` over 64 points of a circle; a nonzero
    residue at infinity is the witness that the transform has no entire
    extension."""
    ang = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    zs = radius * np.exp(1j * ang)
    g = _cauchy_values(spec.measure, zs)
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
