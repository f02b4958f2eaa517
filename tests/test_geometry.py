import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorqc import (
    ConstructionParams,
    Disk,
    DiskPacking,
    EnumerationCapError,
    PackingError,
    ParameterError,
    build_packing,
    derive_params,
    generation_centers,
)
from cantorqc.geometry import _OWNER_REFINE, _CellGrid, _rows
from cantorqc.qcmap import _descend
from descent import assert_twins_agree, descents
from oracle_composition import chain


class TestBuildPacking:
    def test_single_disk_degenerate(self):
        pk = build_packing(1)
        assert pk.m == 1 and pk.centers[0] == 0j and pk.r < 1
        assert pk.c_m == pytest.approx(pk.r**2)

    def test_m7_brute_force_disjoint_and_contained(self):
        # independent oracle: raw pairwise distances and containment
        pk = build_packing(7)
        c = pk.centers
        for i in range(7):
            assert abs(c[i]) + pk.r < 1.0
            for j in range(i + 1, 7):
                assert abs(c[i] - c[j]) > 2 * pk.r
        assert abs(c[0]) == 0.0  # hex ring keeps a disk at the origin

    def test_m100_density(self):
        pk = build_packing(100)
        assert pk.m == 100
        assert pk.c_m >= 0.5

    @pytest.mark.parametrize("m", [2, 3, 19, 250])
    def test_validates_for_assorted_m(self, m):
        pk = build_packing(m)
        pk.validate()
        assert pk.m == m

    def test_overlap_found_two_apart_in_x_order(self):
        # the closest pair (0.5 apart) has the third center between it in x
        c = np.array([-0.25 - 0.45j, 0.05 + 0.45j, 0.25 - 0.45j])
        with pytest.raises(PackingError, match=r"min center distance 0\.5 <= 2r = 0\.51"):
            DiskPacking(c, 0.255).validate()

    @pytest.mark.parametrize("digits", [1, None])
    @pytest.mark.parametrize("seed", range(3))
    def test_overlap_names_the_closest_pair(self, seed, digits):
        # x rounded or not: the closest pair need not be adjacent in x order
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.5, 0.5, 40)
        c = (x if digits is None else np.round(x, digits)) + 1j * rng.uniform(-0.5, 0.5, 40)
        d = np.abs(c[:, None] - c[None, :]) + np.diag(np.full(40, np.inf))
        gap = float(d.min())
        with pytest.raises(PackingError, match=f"min center distance {gap:.6g} <= "):
            DiskPacking(c, 0.51 * gap).validate()
        DiskPacking(c, 0.49 * gap).validate()

    def test_deterministic(self):
        a, b = build_packing(37), build_packing(37)
        assert np.array_equal(a.centers, b.centers) and a.r == b.r

    def test_rejects_m0(self):
        with pytest.raises(ParameterError):
            build_packing(0)


def _dart_packing(count: int = 40, r: float = 0.05, seed: int = 5) -> DiskPacking:
    """A packing off any lattice: seeded darts kept when clear of earlier disks."""
    rng = np.random.default_rng(seed)
    centers: list[complex] = []
    while len(centers) < count:
        z = complex(*rng.uniform(-0.9, 0.9, 2))
        if abs(z) + r < 0.99 and all(abs(z - c) > 2.2 * r for c in centers):
            centers.append(z)
    packing = DiskPacking(np.array(centers), r)
    packing.validate()
    return packing


def _params(packing: DiskPacking) -> ConstructionParams:
    """Parameters at t = 1, K = 2; sigma = 0.5 where the packing is too sparse for t = 1."""
    try:
        return derive_params(1.0, 2.0, packing)
    except ParameterError:
        return ConstructionParams(1.0, 2.0, packing, 0.5, math.nan, math.nan, math.nan)


def _lookup_points(packing: DiskPacking, seed: int) -> np.ndarray:
    """Uniform points in [-3, 3]**2, points on the circles |z - c| = r and
    sigma*r about every center, and points on the bisector of each pair of
    neighbouring centers, where the nearest center is a near tie."""
    rng = np.random.default_rng(seed)
    c, r = packing.centers, packing.r
    sigma = _params(packing).sigma
    uniform = rng.uniform(-3.0, 3.0, 3000) + 1j * rng.uniform(-3.0, 3.0, 3000)
    turns = np.exp(2j * math.pi * rng.uniform(size=(c.size, 4)))
    seams = [(c[:, None] + rho * turns).ravel() for rho in (r, sigma * r)]
    i, j = np.nonzero(np.triu(np.abs(c[:, None] - c[None, :]) < 3.0 * r, k=1))
    offsets = 1j * (c[j] - c[i])[:, None] * rng.uniform(-1.0, 1.0, (i.size, 3))
    bisectors = ((c[i] + c[j])[:, None] / 2.0 + offsets).ravel()
    return np.concatenate([uniform, *seams, bisectors])


def _assert_fallback_finds(packing: DiskPacking, pts: np.ndarray, ref: np.ndarray) -> None:
    """The scalar lookup's fallback returns the brute-force index ``ref`` at
    every point of ``pts`` whose owner entry is negative: -1 beyond the grid,
    ``-2 - cell`` in a shared cell."""
    grid = packing._grid
    entry = grid.owners.take(grid.cells(pts))
    miss = np.flatnonzero(entry < 0)
    assert (entry == -1).any()
    found = [packing._nearest_one(z, j) for z, j in zip(pts[miss].tolist(), entry[miss].tolist())]
    assert found == ref[miss].tolist()


class TestNearestCenter:
    """Batch and scalar lookups against brute force: same index; the descent's
    distances have the same bits."""

    @pytest.mark.parametrize(
        "m", [1, 2, 7, 13, 19, 37, 100, 217, 469, "darts", 3, 4, 5, 6, 8, 9]
    )
    def test_matches_brute_force(self, m):
        packing = _dart_packing() if m == "darts" else build_packing(m)
        pts = _lookup_points(packing, seed=len(packing.centers))
        ref = np.argmin(np.abs(pts[:, None] - packing.centers[None, :]), axis=1)
        ref_dist = np.abs(pts - packing.centers[ref])
        idx, dist = packing.nearest_center(pts)
        assert np.array_equal(idx, ref) and np.array_equal(dist, ref_dist)
        _assert_fallback_finds(packing, pts, ref)
        for depth_max in (1, 32):
            assert_twins_agree(pts, _params(packing), depth_max)
        grid_idx, grid_dist = packing.nearest_center(pts[:1200].reshape(30, 40))
        assert np.array_equal(grid_idx.ravel(), ref[:1200])
        assert np.array_equal(grid_dist.ravel(), ref_dist[:1200])

    def test_non_finite_points_rejected(self):
        with pytest.raises(ParameterError, match="lookup points must be finite; point 1 is"):
            build_packing(7).nearest_center(np.array([0.3, complex(math.nan, 0.0)]))


def _brute(packing: DiskPacking, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``argmin(np.abs(pts - centers))`` and its distance, a few thousand points at a time."""
    idx = np.concatenate([
        np.argmin(np.abs(part[:, None] - packing.centers[None, :]), axis=1)
        for part in np.array_split(pts, -(-pts.size // 4096))
    ])
    return idx, np.abs(pts - packing.centers[idx])


class TestRefinedGrid:
    """The refined lookup table against a full search at the fine side."""

    @pytest.mark.parametrize("m", [7, 100, 217, "darts"])
    def test_rows_match_full_search(self, m):
        # both grids count a ring of one border cell on every side in nx, ny
        # and (x0, y0); the box itself starts at the lower left of the unit
        # square or of the centers
        packing = _dart_packing() if m == "darts" else build_packing(m)
        grid = packing._grid
        coarse = _CellGrid.build(packing.centers, packing.r)
        nx, ny = grid.nx - 2, grid.ny - 2
        assert (nx, ny) == ((coarse.nx - 2) * _OWNER_REFINE, (coarse.ny - 2) * _OWNER_REFINE)
        assert grid.h == coarse.h / _OWNER_REFINE
        x0, y0 = min(-1.0, packing.centers.real.min()), min(-1.0, packing.centers.imag.min())
        assert (grid.x0, grid.y0) == (x0 - grid.h, y0 - grid.h)
        every = np.arange(packing.m)[None, :]
        full = _rows(grid.padded, (x0, y0, grid.h, nx, ny), 0.0, 0.0, every)
        assert np.array_equal(grid.table, full)
        # the border cells, and they only, list no center and read "outside"
        border = np.ones((grid.nx, grid.ny), dtype=bool)
        border[1:-1, 1:-1] = False
        assert np.array_equal(np.count_nonzero(full < packing.m, axis=1) == 0, border.ravel())
        assert np.array_equal(grid.owners[:-1] == -1, border.ravel()) and grid.owners[-1] == -1

    def test_owner_table_answers_most_descent_lookups(self, monkeypatch):
        # the golden point families at (t, K, m) = (1.9, 2, 217), where the
        # disks almost touch, both sides to depth 32: the share of lookups
        # that one owner-table read answers (cells of side r/4 answered
        # 82.7% on the cylinders and 74.6% in all)
        from test_golden import _case

        p, families = _case(1.9, 217, 2.0)
        counts = []
        nearest = _CellGrid.nearest

        def counting(grid, pts, inside=False):
            owned = grid.owners.take(grid.cells(pts, inside))
            counts.append((pts.size, np.count_nonzero(owned >= 0)))
            return nearest(grid, pts, inside)

        monkeypatch.setattr(_CellGrid, "nearest", counting)
        totals = []
        for points in families:
            counts.clear()
            for side in ("source", "image"):
                _descend(points, p, side, 32)
            totals.append(np.sum(counts, axis=0))
        looked_up, owned = np.transpose(totals)
        # (disk, cylinders, seams); the seams lie on circles about nearly
        # touching disks
        shares = owned / looked_up
        assert shares[1] >= 0.9 and owned.sum() / looked_up.sum() >= 0.8, shares

    @pytest.mark.parametrize("m", [1, 7, 100, 217, "darts"])
    def test_clip_free_cells_on_the_closed_disk(self, m):
        # the unit circle at -4..+4 ulp of radius 1, the axes with both
        # signed zeros (so also +-1 and +-1j), and seeded interior points
        packing = _dart_packing() if m == "darts" else build_packing(m)
        grid = packing._grid
        rng = np.random.default_rng(7)
        down, up = [1.0], [1.0]
        for _ in range(4):
            down.append(np.nextafter(down[-1], -np.inf))
            up.append(np.nextafter(up[-1], np.inf))
        radii = np.array(down[::-1] + up[1:])
        turns = np.exp(2j * math.pi * rng.uniform(size=500))
        circle = (radii[:, None] * turns[None, :]).ravel()
        re, im = [], []
        for rad in radii:
            for x, y in product((rad, -rad), (0.0, -0.0)):
                re += [x, y]
                im += [y, x]
        axes = np.empty(len(re), dtype=np.complex128)
        axes.real, axes.imag = re, im
        interior = np.sqrt(rng.uniform(size=5000)) * np.exp(2j * math.pi * rng.uniform(size=5000))
        pts = np.concatenate([circle, axes, interior])
        assert np.abs(pts).max() > 1.0 and np.signbit(axes.real).any()
        assert np.array_equal(grid.cells(pts, inside=True), grid.cells(pts))

    def test_descent_takes_the_clip_free_index_on_disk_points_only(self, monkeypatch):
        # every point that the descents of the golden families, at all 18
        # configurations, look up with inside=True lies in the closed unit
        # disk up to 4 ulp
        from test_golden import _configs

        seen = []
        nearest = _CellGrid.nearest

        def checking(grid, pts, inside=False):
            if inside:
                seen.append(pts.size)
                assert np.abs(pts).max(initial=0.0) <= 1.0 + 4.0 * 2.0**-53
            return nearest(grid, pts, inside)

        monkeypatch.setattr(_CellGrid, "nearest", checking)
        for p, families, depth_max in _configs():
            zs = np.concatenate(families)
            for side in ("source", "image"):
                _descend(zs, p, side, depth_max)
        assert sum(seen) > 0

    @pytest.mark.parametrize("m", [7, 100, 217, "darts"])
    def test_owner_is_nearest_on_the_closed_cell(self, m):
        packing = _dart_packing() if m == "darts" else build_packing(m)
        grid = packing._grid
        owned = np.flatnonzero(grid.owners[:-1] >= 0)
        assert 0 < owned.size < grid.owners.size - 1
        ix, iy = np.divmod(owned, grid.ny)
        for dx, dy in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)]:
            pts = (grid.x0 + grid.h * (ix + dx)) + 1j * (grid.y0 + grid.h * (iy + dy))
            assert np.array_equal(grid.owners[owned], _brute(packing, pts)[0])

    @pytest.mark.parametrize("m", [7, 100, 217, "darts"])
    def test_points_on_cell_edges(self, m):
        packing = _dart_packing() if m == "darts" else build_packing(m)
        grid = packing._grid
        rng = np.random.default_rng(grid.nx)
        lines = []
        for origin, count in ((grid.x0, grid.nx), (grid.y0, grid.ny)):
            edges = origin + grid.h * np.arange(count + 1)
            lines.append(np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)]))
        span = grid.h * max(grid.nx, grid.ny)
        xs = lines[0] + 1j * rng.uniform(grid.y0, grid.y0 + span, lines[0].size)
        ys = rng.uniform(grid.x0, grid.x0 + span, lines[1].size) + 1j * lines[1]
        corners = (lines[0][:, None] + 1j * lines[1][None, :]).ravel()
        pts = np.concatenate([xs, ys, corners[:: max(1, corners.size // 20000)]])
        ref, ref_dist = _brute(packing, pts)
        idx, dist = packing.nearest_center(pts)
        assert np.array_equal(idx, ref) and np.array_equal(dist, ref_dist)
        _assert_fallback_finds(packing, pts, ref)
        for depth_max in (1, 32):
            assert_twins_agree(pts, _params(packing), depth_max)

    @pytest.mark.parametrize("m", [7, 100, 217, "darts"])
    def test_clear_cells_lie_beyond_the_radius(self, m):
        # every point that ``cells`` puts in a clear cell, on its corners and
        # an ulp either side of them, or inside it, is at least the radius
        # from every center
        packing = _dart_packing() if m == "darts" else build_packing(m)
        grid = packing._grid
        rng = np.random.default_rng(grid.ny)
        ix, iy = np.divmod(np.arange(grid.nx * grid.ny), grid.ny)
        for radius in (_params(packing).sigma * packing.r, packing.r, 2.0 * packing.r):
            clear = grid.clear_cells(radius)
            assert clear.shape == (grid.nx * grid.ny + 1,) and not clear[-1]
            # kept per radius, so no caller may write to it
            assert grid.clear_cells(radius) is clear and not clear.flags.writeable
            assert 0 < np.count_nonzero(clear) < grid.nx * grid.ny
            parts = []
            for dx, dy in product((0.0, 1.0), repeat=2):
                x, y = grid.x0 + grid.h * (ix + dx), grid.y0 + grid.h * (iy + dy)
                for ux, uy in product((-np.inf, None, np.inf), repeat=2):
                    parts.append((x if ux is None else np.nextafter(x, ux))
                                 + 1j * (y if uy is None else np.nextafter(y, uy)))
            u = rng.uniform(size=(2, 8, ix.size))
            parts.append((grid.x0 + grid.h * (ix + u[0])) + 1j * (grid.y0 + grid.h * (iy + u[1])))
            pts = np.concatenate([p.ravel() for p in parts])
            pts = pts[clear.take(grid.cells(pts))]
            assert pts.size > 0
            assert (_brute(packing, pts)[1] >= radius).all()


class TestDeriveParams:
    def test_conformal_case(self, packing7):
        p = derive_params(0.8, 1.0, packing7)
        assert p.t_prime == pytest.approx(0.8, abs=1e-15)
        assert p.holder_exp == pytest.approx(1.0, abs=1e-15)
        assert p.dim_image == pytest.approx(0.8, rel=1e-12)

    @pytest.mark.parametrize("K", [1.5, 2.0, 3.0, 7.0])
    def test_critical_source_dimension_maps_to_one(self, K):
        # sets of dimension 2/(K+1) land at dimension (target) exactly 1
        pk = build_packing(100)
        p = derive_params(2.0 / (K + 1.0), K, pk)
        assert p.t_prime == pytest.approx(1.0, rel=1e-14)

    def test_frozen_example_k2_t1(self, params7):
        assert params7.t_prime == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert params7.holder_exp == pytest.approx(0.75, rel=1e-15)
        assert params7.holder_exp == pytest.approx(0.5 + 0.25, rel=1e-15)

    def test_sigma_normalization(self, params7):
        assert params7.m * params7.source_ratio**params7.t == pytest.approx(1.0, rel=1e-13)

    def test_dim_image_two_forms(self, params100):
        p = params100
        direct = math.log(p.m) / math.log(1.0 / p.image_ratio)
        identity = 1.0 / (
            1.0 / p.t_prime
            + (p.K - 1.0) / (2.0 * p.K) * math.log(1.0 / p.c_m) / math.log(p.m)
        )
        assert direct == pytest.approx(identity, rel=1e-12)
        assert p.dim_image == pytest.approx(direct, rel=1e-15)

    def test_rejects_sigma_out_of_range(self, packing7):
        with pytest.raises(ParameterError, match="sigma"):
            derive_params(1.9, 2.0, packing7)

    @pytest.mark.parametrize("t,K", [(0.0, 2.0), (2.0, 2.0), (-1.0, 2.0), (1.0, 0.5)])
    def test_rejects_bad_ranges(self, t, K, packing7):
        with pytest.raises(ParameterError):
            derive_params(t, K, packing7)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.1, 1.8, allow_nan=False),
        st.floats(1.0, 10.0, allow_nan=False),
    )
    def test_identities_over_parameter_plane(self, t, K):
        pk = build_packing(200)
        p = derive_params(t, K, pk)
        holder_alt = 1.0 / K + (K - 1.0) * t / (2.0 * K)
        assert abs(p.holder_exp - holder_alt) <= 1e-12 * max(1.0, p.holder_exp)
        assert abs(p.t / p.t_prime - p.holder_exp) <= 1e-15

    def test_dim_image_nondecreasing_in_m(self):
        # the achieved image dimension climbs toward t' along the hex ladder
        dims = []
        for m in (7, 19, 37, 61, 127, 331):
            p = derive_params(1.0, 2.0, build_packing(m))
            dims.append(p.dim_image)
        assert all(b >= a for a, b in zip(dims, dims[1:]))
        assert dims[-1] < 4.0 / 3.0

    def test_json_dump_keys(self, params7):
        keys = set(params7.to_json_dict())
        assert keys == {
            "m", "r", "c_m", "centers", "t", "K",
            "sigma", "t_prime", "dim_image", "holder_exp",
        }


def _index(J, m):
    """Place of the multi-index ``J`` in lexicographic generation order."""
    return sum(j * m ** (len(J) - 1 - k) for k, j in enumerate(J))


class TestMultiIndexMaps:
    """Generation centers against the digit-by-digit composition of the oracle."""

    def test_empty_chain_is_identity(self, params7):
        assert chain((), params7, "source") == (0j, 1.0)
        assert generation_centers(0, "source", params7).tolist() == [0j]

    def test_single_digit(self, params7):
        zi = params7.packing.centers[3]
        for side in ("source", "image"):
            a, b = chain((3,), params7, side)
            assert a == zi and generation_centers(1, side, params7)[3] == zi
            assert b == pytest.approx(params7.ratio(side))

    def test_two_digit_composition(self, params7):
        i, j = 2, 5
        zi, zj = params7.packing.centers[i], params7.packing.centers[j]
        a, b = chain((i, j), params7, "image")
        assert a == pytest.approx(zi + params7.image_ratio * zj, rel=1e-15)
        assert b == pytest.approx(params7.image_ratio**2, rel=1e-15)
        center = generation_centers(2, "image", params7)[_index((i, j), params7.m)]
        assert center == pytest.approx(zi + params7.image_ratio * zj, rel=1e-15)

    def test_child_center_recursion(self, params7):
        J = (1, 4)
        a, b = chain(J, params7, "source")
        children = generation_centers(3, "source", params7)
        for i in range(params7.m):
            parent_of_zi = a + b * params7.packing.centers[i]
            assert children[_index(J + (i,), params7.m)] == pytest.approx(parent_of_zi, rel=1e-15)


class TestGenerationDisks:
    def test_generation_zero(self, params7):
        assert generation_centers(0, "source", params7).tolist() == [0j]

    def test_generation_one_source(self, params7):
        centers = generation_centers(1, "source", params7)
        assert centers.tolist() == params7.packing.centers.tolist()

    def test_generation_two_image_count_and_radius(self, params7):
        centers = generation_centers(2, "image", params7)
        assert centers.size == 49
        for k, J in enumerate(product(range(params7.m), repeat=2)):
            a, b = chain(J, params7, "image")
            assert b == pytest.approx(params7.image_ratio**2)
            assert centers[k] == pytest.approx(a)

    def test_centers_match_disks_order(self, params7):
        centers = generation_centers(3, "image", params7)
        composed = [chain(J, params7, "image")[0] for J in product(range(params7.m), repeat=3)]
        assert np.allclose(centers, composed)

    def test_cap(self, params7):
        with pytest.raises(EnumerationCapError):
            generation_centers(9, "source", params7)

    def test_side_is_source_or_image(self, params7):
        assert params7.ratio("source") == params7.source_ratio
        assert params7.ratio("image") == params7.image_ratio
        with pytest.raises(ParameterError, match="'target'"):
            generation_centers(1, "target", params7)

    def test_nesting(self, params7):
        # child generating disk sits inside its protecting disk, which sits
        # inside the parent generating disk
        J = (2, 6)
        parent = Disk(*chain(J, params7, "source"))
        for i in range(params7.m):
            child = Disk(*chain(J + (i,), params7, "source"))
            protect = Disk(child.center, child.radius / params7.sigma)
            assert abs(child.center - protect.center) + child.radius <= protect.radius + 1e-15
            assert abs(protect.center - parent.center) + protect.radius < parent.radius

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_same_generation_disjoint(self, N):
        p = derive_params(1.0, 2.0, build_packing(4))
        centers = generation_centers(N, "source", p)
        radius = p.source_ratio**N
        dist = np.abs(centers[:, None] - centers[None, :])
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 2 * radius


class TestLocate:
    """Where a point sits relative to the first generation: a terminal level
    of 0 with ``d >= r`` is the identity region, with ``d < r`` the annulus;
    level 1 means it descended into a generating disk."""

    def test_outside_unit_disk(self, params7):
        for level, _, d, _, _, _, _ in descents(1.5 + 0.2j, params7):
            assert level == 0 and d >= params7.r

    def test_gap_point_outside(self, params7):
        # midpoint between the origin disk and a ring disk lies in no disk
        z = 0.5 * params7.packing.centers[3]
        assert abs(z) > params7.r
        for level, _, d, _, _, _, _ in descents(complex(z), params7):
            assert level == 0 and d >= params7.r

    def test_center_is_inside_with_zero_frame_point(self, params7):
        zi = complex(params7.packing.centers[2])
        for level, x, _, _, a, _, _ in descents(zi, params7):
            assert level == 1 and a == zi
            assert x == 0j

    def test_mid_annulus(self, params7):
        zi = complex(params7.packing.centers[4])
        z = zi + params7.r * (1 + params7.sigma) / 2.0
        for level, _, d, i, _, _, _ in descents(z, params7):
            assert level == 0 and i == 4
            assert params7.sigma < d / params7.r < 1.0

    def test_inner_boundary_tie_break_is_annulus(self, params7):
        zi = complex(params7.packing.centers[1])
        z = zi + params7.sigma * params7.r
        for level, _, d, i, _, _, _ in descents(z, params7):
            assert level == 0 and i == 1 and d < params7.r

    def test_inside_renormalization(self, params7):
        zi = complex(params7.packing.centers[5])
        off = 0.3 * params7.sigma * params7.r * np.exp(0.7j)
        for level, x, _, _, _, _, _ in descents(zi + complex(off), params7):
            assert level == 1
            assert x == pytest.approx(off / (params7.sigma * params7.r), rel=1e-12)
