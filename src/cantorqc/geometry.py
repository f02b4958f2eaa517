"""Disk packings, defining similarities and derived construction parameters.

The source Cantor set is the attractor of ``m`` similarities
``z -> z_i + (sigma*r) * z`` over a packing of ``m`` equal disks
``D(z_i, r)`` inside the unit disk; the image set uses the milder
contraction ratio ``sigma**(1/K) * r`` over the same centers.  Everything
downstream (map evaluation, mass formulas, dimension predictions) is a
function of the numbers bundled in :class:`ConstructionParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

#: Largest number of same-generation disks that may be materialized at once.
ENUMERATION_CAP = 10**7

#: Safety factor applied to the maximal feasible common radius of a layout.
RADIUS_SAFETY = 0.999


class CantorQCError(Exception):
    """Base class for errors raised by this package."""


class PackingError(CantorQCError):
    """A disk layout could not be constructed or failed validation."""


class ParameterError(CantorQCError):
    """Rejected input parameters; the message names the violated condition."""


class EnumerationCapError(ParameterError):
    """A generation enumeration would exceed :data:`ENUMERATION_CAP`."""


# ---------------------------------------------------------------------------
# elementary geometry


@dataclass(frozen=True)
class Disk:
    """Open disk ``D(center, radius)``."""

    center: complex
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ParameterError(f"disk radius must be positive and finite, got {self.radius}")


@dataclass(frozen=True)
class Similarity:
    """Complex affine map ``z -> a + b*z`` (a pure scale-rotation plus shift)."""

    a: complex = 0j
    b: complex = 1 + 0j

    def __post_init__(self) -> None:
        if self.b == 0:
            raise ParameterError("similarity scale factor b must be nonzero")
        for part in (self.a.real, self.a.imag, self.b.real, self.b.imag):
            if not math.isfinite(part):
                raise ParameterError("similarity coefficients must be finite")

    def __call__(self, z: complex | np.ndarray) -> complex | np.ndarray:
        return self.a + self.b * z

    @property
    def scale(self) -> float:
        return abs(self.b)

    @property
    def unit_disk_image(self) -> Disk:
        return Disk(self.a, self.scale)


# ---------------------------------------------------------------------------
# first-generation layout


@dataclass(frozen=True, eq=False)
class DiskPacking:
    """``m`` equal, pairwise disjoint closed disks inside the unit disk.

    ``centers`` is a complex array of length ``m``; ``r`` is the common
    radius.  ``c_m = m * r**2`` measures the area fraction claimed by the
    packing and controls how close the image dimension gets to its target.
    """

    centers: np.ndarray
    r: float

    def __post_init__(self) -> None:
        centers = np.ascontiguousarray(self.centers, dtype=np.complex128)
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        if not (0 < self.r < 1):
            raise PackingError(f"common radius must lie in (0, 1), got {self.r}")
        if not np.isfinite(centers).all():
            raise PackingError("packing centers must be finite")

    @property
    def m(self) -> int:
        return len(self.centers)

    @property
    def c_m(self) -> float:
        return self.m * self.r**2

    @cached_property
    def _grid(self) -> "_CellGrid":
        return _CellGrid.build(self.centers, self.r, refine=True)

    def nearest_center(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index of the closest packing center per point, and that distance.

        Closed disks are disjoint, so the only disk that can contain a point
        is the one with the nearest center.  The index is exactly
        ``argmin(np.abs(pts - centers))`` (first index on ties), for every
        ``m``: a point whose grid cell has one owner takes it from a table
        read, any other searches its cell's candidate list, and a point
        outside the grid searches every center (see :class:`_CellGrid`).
        """
        pts = np.asarray(pts, dtype=np.complex128)
        flat = pts.ravel()
        idx = np.empty(flat.size, dtype=np.intp)
        dist = np.empty(flat.size)
        # block by block, so that a large batch allocates no temporary of its size
        for start in range(0, flat.size, _PAIRS):
            p = flat[start : start + _PAIRS]
            i = self._grid.nearest(p)
            idx[start : start + _PAIRS] = i
            np.abs(p - self.centers.take(i), out=dist[start : start + _PAIRS])
        return idx.reshape(pts.shape), dist.reshape(pts.shape)

    def _nearest_one(self, z: complex) -> tuple[int, float]:
        """Scalar :meth:`nearest_center` in plain Python: same index and distance."""
        grid = self._grid
        fx, fy = (z.real - grid.x0) / grid.h, (z.imag - grid.y0) / grid.h
        if not (0.0 <= fx < grid.nx and 0.0 <= fy < grid.ny):
            idx, dist = self.nearest_center(np.array([z]))
            return int(idx[0]), float(dist[0])
        cell = int(fx) * grid.ny + int(fy)
        points, j = grid.points, grid.owners.item(cell)
        if j >= 0:
            return j, float(np.abs(np.complex128(z - points[j])))
        best, near = math.inf, []
        # padding reads the sentinel at infinity, which is never near
        for j in grid.table[cell].tolist():
            c = points[j]
            dx, dy = z.real - c.real, z.imag - c.imag
            d2 = dx * dx + dy * dy
            if d2 < best * (1.0 - _TIE_RTOL):
                best, near = d2, [(j, c)]
            elif d2 <= best * (1.0 + _TIE_RTOL):
                near.append((j, c))
        # near ties are decided by the complex absolute value, first index first
        dists = [np.abs(np.complex128(z - c)) for _, c in near]
        k = dists.index(min(dists))
        return near[k][0], float(dists[k])

    def validate(self) -> None:
        """Raise :class:`PackingError` unless disks are disjoint and inside the unit disk."""
        if self.m == 0:
            raise PackingError("packing is empty")
        if np.max(np.abs(self.centers)) + self.r >= 1.0:
            raise PackingError("a disk escapes the open unit disk")
        # pairs k apart in x order; once every such pair is farther apart
        # in x than the closest pair found, so are all pairs further apart
        order = np.argsort(self.centers.real)
        x, y = self.centers.real[order], self.centers.imag[order]
        gap2 = math.inf
        for k in range(1, self.m):
            dx = x[k:] - x[:-k]
            nearest_x = float(dx.min())
            if nearest_x * nearest_x >= gap2:
                break
            dy = y[k:] - y[:-k]
            gap2 = min(gap2, float((dx * dx + dy * dy).min()))
        min_gap = math.sqrt(gap2)
        if min_gap <= 2 * self.r:
            raise PackingError(
                f"closed disks overlap: min center distance {min_gap:.6g} "
                f"<= 2r = {2 * self.r:.6g}"
            )

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "c_m": self.c_m,
            "centers": [[float(z.real), float(z.imag)] for z in self.centers],
        }


#: Side ratio of consecutive grid levels.  A packing's lookup grid is this
#: many times finer than its radius, so most of its cells lie inside one
#: Voronoi cell and have an owner; every grid's rows are drawn from those of
#: coarser levels, each this many times coarser than the next.
_REFINE = 4

#: Relative widening of every grid cell and candidate bound, far above the
#: rounding of the distances compared, so no possible nearest center is dropped.
_GRID_SLACK = 1e-9
#: Squared distances this close (relative) are re-ranked by ``np.abs``.
_TIE_RTOL = 1e-12
#: Grid cells per center, at most: bounds the table of sparse packings.
_CELLS_PER_CENTER = 8
#: Point-candidate pairs, or points of a block, held at once by a lookup: a
#: few hundred kB of temporaries.
_PAIRS = 1 << 13


def _sq_dist(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``dx*dx + dy*dy`` between broadcast points and centres, as a KD-tree sums it."""
    d2 = z.real - p.real
    dy = z.imag - p.imag
    d2 *= d2
    dy *= dy
    d2 += dy
    return d2


def _brute_nearest(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``argmin(np.abs(pts - centers))`` over all centers, in chunks of points."""
    flat = pts.ravel()
    idx = np.empty(flat.size, dtype=np.intp)
    rows = max(1, _PAIRS // centers.size)
    for start in range(0, flat.size, rows):
        block = flat[start : start + rows, None] - centers[None, :]
        idx[start : start + rows] = np.argmin(np.abs(block), axis=1)
    return idx.reshape(pts.shape)


def _rows(
    padded: np.ndarray,
    level: tuple[float, float, float, int, int],
    pad: float,
    reach: float,
    cand: np.ndarray,
    parent_ny: int = 0,
) -> np.ndarray:
    """Candidate table of the ``nx*ny`` cells of side ``h`` from ``(x0, y0)``,
    ``level = (x0, y0, h, nx, ny)``, each widened by ``pad + _GRID_SLACK*h``.

    With ``parent_ny``, ``cand`` is the table of the grid ``_REFINE`` times
    coarser from the same corner, ``parent_ny`` cells high, and cell
    ``(ix, iy)`` searches the row of its parent ``(ix//_REFINE, iy//_REFINE)``;
    without, every cell searches the one row of ``cand``.  Every row lists
    its centers in increasing order, padded with the sentinel index ``m``.
    """
    x0, y0, h, nx, ny = level
    m = padded.size - 1
    x, y = np.ascontiguousarray(padded.real), np.ascontiguousarray(padded.imag)
    half = h / 2.0 + pad + _GRID_SLACK * h
    # a row is never wider than the rows it is drawn from
    table = np.full((nx * ny, cand.shape[1]), m, dtype=np.int32)
    width = 1
    step = max(1, _PAIRS // cand.shape[1])
    for start in range(0, nx * ny, step):
        ix, iy = np.divmod(np.arange(start, min(start + step, nx * ny)), ny)
        # one column per cell, so that reductions over a row run down columns
        if parent_ny:
            row = np.ascontiguousarray(cand.take(ix // _REFINE * parent_ny + iy // _REFINE, axis=0).T)
        else:
            row = np.broadcast_to(cand.T, (cand.shape[1], ix.size))
        ax = np.abs(x.take(row) - (x0 + h * (ix + 0.5)))
        ay = np.abs(y.take(row) - (y0 + h * (iy + 0.5)))
        far = (ax + half) ** 2 + (ay + half) ** 2
        bound = (np.sqrt(far.min(axis=0)) + reach) * (1.0 + _GRID_SLACK)
        ax -= half
        ay -= half
        np.maximum(ax, 0.0, out=ax)
        np.maximum(ay, 0.0, out=ay)
        listed = ax * ax + ay * ay <= bound * bound
        # a listed center's place in its row: how many are listed up to it
        place = np.cumsum(listed, axis=0)
        width = max(width, int(place[-1].max()))
        col, cell = np.nonzero(listed)
        table[start + cell, place[col, cell] - 1] = row[col, cell]
    return np.ascontiguousarray(table[:, :width])


@dataclass(frozen=True, eq=False)
class _CellGrid:
    """Uniform grid over a box holding every center, and ``[-extent, extent]**2``.

    Row ``c`` of ``table`` lists, in increasing order, every center ``S`` with
    ``dist(S, cell) <= min_T maxdist(T, cell) + reach``: with ``reach = 0``
    no other center can be the nearest to a point of cell ``c``.  Rows are
    padded with index ``m``, the sentinel at infinity that ends ``padded``.
    Points outside the box are searched by brute force.

    A cell whose row lists one center is owned by it: ``owners`` holds that
    center per cell, or ``-2 - cell`` where the row lists several, then a
    last entry -1, which a point outside the box (cell -1) reads.
    """

    x0: float
    y0: float
    h: float
    nx: int
    ny: int
    table: np.ndarray
    padded: np.ndarray
    owners: np.ndarray

    @classmethod
    def build(
        cls,
        centers: np.ndarray,
        h: float,
        reach: float = 0.0,
        extent: float = 1.0,
        pad: float = 0.0,
        refine: bool = False,
    ) -> "_CellGrid":
        """Grid of cell side at least ``h``, and at most ``_CELLS_PER_CENTER * m``
        cells, each split into ``_REFINE**2`` with ``refine``; each cell's rows
        also serve the points within ``pad`` of it."""
        x, y = centers.real, centers.imag
        x0, x1 = min(-extent, float(x.min())), max(extent, float(x.max()))
        y0, y1 = min(-extent, float(y.min())), max(extent, float(y.max()))
        h = max(h, math.sqrt((x1 - x0) * (y1 - y0) / (_CELLS_PER_CENTER * centers.size)))
        nx, ny = math.ceil((x1 - x0) / h), math.ceil((y1 - y0) / h)
        levels = [(h / _REFINE, nx * _REFINE, ny * _REFINE)] if refine else []
        levels.append((h, nx, ny))
        while 1 < nx * ny and _PAIRS < nx * ny * centers.size:
            h, nx, ny = h * _REFINE, -(-nx // _REFINE), -(-ny // _REFINE)
            levels.append((h, nx, ny))
        # only the coarsest level searches every center; below it, a cell lies
        # in its parent, so it is nearer to every center and its bound is no
        # larger: the parent's row holds its row
        padded = np.append(centers, complex(math.inf, math.inf))
        table, parent_ny = np.arange(centers.size)[None, :], 0
        for h, nx, ny in reversed(levels):
            table = _rows(padded, (x0, y0, h, nx, ny), pad, reach, table, parent_ny)
            parent_ny = ny
        owned = np.count_nonzero(table < centers.size, axis=1) == 1
        owners = np.append(np.where(owned, table[:, 0], -2 - np.arange(owned.size)), -1)
        return cls(x0, y0, h, nx, ny, table, padded, owners.astype(np.int32))

    @cached_property
    def points(self) -> list[complex]:
        """``padded`` as Python numbers, for the scalar lookup."""
        return self.padded.tolist()

    def cells(self, pts: np.ndarray) -> np.ndarray:
        """Cell of each point of the flat ``pts``, -1 outside the box."""
        fx = pts.real - self.x0
        fx /= self.h
        fy = pts.imag - self.y0
        fy /= self.h
        outside = ~((fx >= 0.0) & (fx < self.nx) & (fy >= 0.0) & (fy < self.ny))
        np.floor(fx, out=fx)
        fx *= self.ny
        fx += np.floor(fy, out=fy)
        fx[outside] = -1.0
        return fx.astype(np.intp)

    def candidates(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(point, center)`` index pairs: the row of each point's cell, or
        every center for a point of cell -1."""
        m = self.padded.size - 1
        listed = np.flatnonzero(cells >= 0)
        rows = self.table[cells[listed]]
        real = rows < m
        rest = np.flatnonzero(cells < 0)
        return (
            np.concatenate([np.repeat(listed, rows.shape[1])[real.ravel()], np.repeat(rest, m)]),
            np.concatenate([rows[real], np.tile(np.arange(m), rest.size)]),
        )

    def nearest(self, pts: np.ndarray) -> np.ndarray:
        """``argmin(np.abs(pts - centers))`` per point of the flat ``pts``."""
        # an owned cell answers at once; any other leaves -2 - cell behind
        idx = self.cells(pts)
        idx[:] = self.owners.take(idx)
        rest = np.flatnonzero(idx < 0)
        width = self.table.shape[1]
        step = max(1, _PAIRS // width)
        for start in range(0, rest.size, step):
            at = rest[start : start + step]
            p, cell = pts.take(at), -2 - idx.take(at)
            cand = self.table.take(cell, axis=0)
            c = self.padded.take(cand)
            d2 = _sq_dist(p[:, None], c)
            best = np.argmin(d2, axis=1)
            flat = best + np.arange(0, p.size * width, width)
            close = d2 <= (d2.ravel().take(flat) * (1.0 + _TIE_RTOL))[:, None]
            if np.count_nonzero(close) > p.size:
                # near ties are decided by the complex absolute value
                tied = np.flatnonzero(np.count_nonzero(close, axis=1) > 1)
                best[tied] = np.argmin(np.abs(p[tied, None] - c[tied]), axis=1)
                flat[tied] = best[tied] + tied * width
            idx[at] = cand.ravel().take(flat)
            # cell -1 read the last row: search every center instead
            out = np.flatnonzero(cell < 0)
            if out.size:
                idx[at[out]] = _brute_nearest(p[out], self.padded[:-1])
        return idx


def _hex_lattice(count: int) -> np.ndarray:
    """First ``count`` points of the unit-spacing triangular lattice, spiraling
    out from the origin (sorted by exact squared norm, then angle)."""
    # ring k holds 6k points, so rings through k cover 1 + 3k(k+1) points
    rings = 1
    while 1 + 3 * rings * (rings + 1) < count:
        rings += 1
    span = rings + 1
    pts = []
    for i in range(-span, span + 1):
        for j in range(-span, span + 1):
            n2 = i * i + i * j + j * j
            if n2 > span * span:
                continue
            x = i + 0.5 * j
            y = 0.5 * math.sqrt(3.0) * j
            pts.append((n2, math.atan2(y, x), x, y))
    pts.sort()
    if len(pts) < count:
        raise PackingError(f"lattice generation produced {len(pts)} < {count} points")
    sel = pts[:count]
    return np.array([complex(x, y) for _, _, x, y in sel])


def build_packing(m: int) -> DiskPacking:
    """Deterministic hexagonal-lattice packing of ``m`` equal disks in the unit disk.

    The lattice is clipped to the ``m`` sites closest to the origin and then
    rescaled so that half the lattice spacing equals the clearance to the
    unit circle; the common radius is that value shrunk by
    :data:`RADIUS_SAFETY`.  For ``m >= 100`` the layout is required to reach
    ``c_m >= 1/2``.
    """
    if m < 1:
        raise ParameterError(f"need m >= 1 disks, got {m}")
    lattice = _hex_lattice(m)
    reach = float(np.max(np.abs(lattice)))
    scale = 1.0 / (reach + 0.5)
    centers = lattice * scale
    r = RADIUS_SAFETY * scale / 2.0
    packing = DiskPacking(centers=centers, r=r)
    packing.validate()
    if m >= 100 and packing.c_m < 0.5:
        raise PackingError(
            f"hexagonal layout reached only c_m = {packing.c_m:.4f} < 1/2 for m = {m}"
        )
    return packing


# ---------------------------------------------------------------------------
# construction parameters


@dataclass(frozen=True, eq=False)
class ConstructionParams:
    """All numbers defining one source/image Cantor pair and its map.

    ``sigma`` is never chosen freely: it is pinned by ``m * (sigma*r)**t = 1``
    so that the source set has dimension exactly ``t``.  ``t_prime`` is the
    distortion target ``2Kt / (2 + (K-1)t)``; the achieved image dimension
    ``dim_image`` approaches it from below as ``m`` grows.
    """

    t: float
    K: float
    packing: DiskPacking
    sigma: float
    t_prime: float
    dim_image: float
    holder_exp: float

    @property
    def m(self) -> int:
        return self.packing.m

    @property
    def r(self) -> float:
        return self.packing.r

    @property
    def c_m(self) -> float:
        return self.packing.c_m

    @cached_property
    def source_ratio(self) -> float:
        """Contraction ratio of the source similarities, ``sigma * r``."""
        return self.sigma * self.r

    @cached_property
    def image_ratio(self) -> float:
        """Contraction ratio of the image similarities, ``sigma**(1/K) * r``."""
        return self.sigma ** (1.0 / self.K) * self.r

    def ratio(self, side: str) -> float:
        """Contraction ratio of the ``"source"`` or ``"image"`` similarities."""
        if side not in ("source", "image"):
            raise ParameterError(f"side must be 'source' or 'image', got {side!r}")
        return self.source_ratio if side == "source" else self.image_ratio

    def image_radius(self, n: int) -> float:
        return self.image_ratio**n

    def to_json_dict(self) -> dict:
        out = self.packing.to_json_dict()
        out.update(
            {
                "t": self.t,
                "K": self.K,
                "sigma": self.sigma,
                "t_prime": self.t_prime,
                "dim_image": self.dim_image,
                "holder_exp": self.holder_exp,
            }
        )
        return out


def derive_params(t: float, K: float, packing: DiskPacking) -> ConstructionParams:
    """Derive ``sigma``, ``t_prime``, the image dimension and the Hölder exponent.

    Raises :class:`ParameterError` when ``t`` or ``K`` is out of range, or when
    the packing is too sparse for ``sigma = m**(-1/t) / r`` to land in (0, 1).
    """
    if not (0.0 < t < 2.0):
        raise ParameterError(f"source dimension t must lie in (0, 2), got {t}")
    if not (K >= 1.0 and math.isfinite(K)):
        raise ParameterError(f"distortion K must satisfy K >= 1, got {K}")
    m, r = packing.m, packing.r
    sigma = m ** (-1.0 / t) / r
    if not (0.0 < sigma < 1.0):
        raise ParameterError(
            f"sigma = m**(-1/t)/r = {sigma:.6g} is not in (0, 1): "
            f"need m * r**t > 1 (increase m for this t)"
        )
    t_prime = 2.0 * K * t / (2.0 + (K - 1.0) * t)
    holder_exp = t / t_prime
    holder_alt = 1.0 / K + (K - 1.0) * t / (2.0 * K)
    if abs(holder_exp - holder_alt) > 1e-12 * max(1.0, holder_exp):
        raise ParameterError(
            f"Hölder exponent closed forms disagree: {holder_exp!r} vs {holder_alt!r}"
        )
    image_ratio = sigma ** (1.0 / K) * r
    dim_image = math.log(m) / math.log(1.0 / image_ratio)
    inv_dim_alt = 1.0 / t_prime + (K - 1.0) / (2.0 * K) * math.log(1.0 / (m * r * r)) / math.log(m)
    dim_alt = 1.0 / inv_dim_alt
    if abs(dim_image - dim_alt) > 1e-12 * max(1.0, dim_image):
        raise ParameterError(
            f"image dimension closed forms disagree: {dim_image!r} vs {dim_alt!r}"
        )
    check = m * (sigma * r) ** t
    if abs(check - 1.0) > 1e-12:
        raise ParameterError(f"m*(sigma*r)**t = {check!r} drifted from 1")
    return ConstructionParams(
        t=float(t),
        K=float(K),
        packing=packing,
        sigma=sigma,
        t_prime=t_prime,
        dim_image=dim_image,
        holder_exp=holder_exp,
    )


# ---------------------------------------------------------------------------
# multi-index addressing

#: A chain of child choices, root first; () addresses the unit disk itself.
MultiIndex = tuple[int, ...]


def _check_index(J: Sequence[int], m: int) -> MultiIndex:
    J = tuple(int(j) for j in J)
    for j in J:
        if not (0 <= j < m):
            raise ParameterError(f"multi-index digit {j} out of range [0, {m})")
    return J


def _chain_offsets(
    digits: np.ndarray, centers: np.ndarray, ratio: float
) -> tuple[np.ndarray, float]:
    """Offsets ``a`` and common scale of the similarities addressed by each row of ``digits``.

    Row ``J`` addresses ``z -> a + scale*z``, the composite of the maps
    ``z -> centers[j] + ratio*z`` with the first digit outermost.  Seeded
    ``lp-mass`` and ``holder`` output depends on this accumulation order.
    """
    a = np.zeros(digits.shape[0], dtype=np.complex128)
    scale = 1.0
    for j in range(digits.shape[1]):
        a += scale * centers[digits[:, j]]
        scale *= ratio
    return a, scale


def _chain_map(J: Sequence[int], params: ConstructionParams, side: str) -> Similarity:
    digits = np.array([_check_index(J, params.m)], dtype=np.intp)
    a, scale = _chain_offsets(digits, params.packing.centers, params.ratio(side))
    return Similarity(complex(a[0]), complex(scale))


def source_map(J: Sequence[int], params: ConstructionParams) -> Similarity:
    """Composite source similarity addressed by ``J`` (first digit outermost)."""
    return _chain_map(J, params, "source")


def image_map(J: Sequence[int], params: ConstructionParams) -> Similarity:
    """Composite image similarity addressed by ``J`` (first digit outermost)."""
    return _chain_map(J, params, "image")


def _check_cap(m: int, N: int) -> None:
    if N < 0:
        raise ParameterError(f"generation N must be >= 0, got {N}")
    if m**N > ENUMERATION_CAP:
        raise EnumerationCapError(f"m**N = {m}**{N} exceeds the enumeration cap {ENUMERATION_CAP}")


def generation_centers(N: int, side: str, params: ConstructionParams) -> np.ndarray:
    """Centers of all generation-``N`` disks in lexicographic multi-index order."""
    ratio = params.ratio(side)
    _check_cap(params.m, N)
    out = np.array([0j])
    for _ in range(N):
        out = (params.packing.centers[:, None] + ratio * out[None, :]).ravel()
    return out


def generation_disks(
    N: int, side: str, params: ConstructionParams
) -> list[tuple[MultiIndex, Disk]]:
    """All generation-``N`` disks with their multi-indices."""
    centers = generation_centers(N, side, params)
    radius = params.ratio(side) ** N if N > 0 else 1.0
    indices = product(range(params.m), repeat=N)
    return [(J, Disk(complex(c), radius)) for J, c in zip(indices, centers)]
