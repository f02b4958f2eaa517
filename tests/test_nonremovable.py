import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from cantorqc import (
    DiscreteMeasure,
    HolderConfig,
    ParameterError,
    build_counterexample,
    cauchy_transform_batch,
    frostman_measure,
    generation_centers,
    max_admissible_epsilon,
    phi,
    removability_threshold,
    verify_counterexample,
)
from cantorqc.nonremovable import (
    _BAND_ORDERS,
    _BAND_RATIOS,
    _FRAME_SLACK,
    _PAIRS,
    LEAF,
    THETA,
    ImageIFS,
    P,
    _leaf_levels,
    dbar_max,
    residue_error,
)
from cantorqc._farfield import _CELL_LEVELS
from oracle_composition import chain

UNIT_ROUNDOFF = 2.0**-53


def _transform_at(measure, z):
    """The Cauchy transform at the one point ``z``."""
    return complex(cauchy_transform_batch(measure, np.array([z]))[0][0])


def _atoms(positions, resolution=1e-3):
    """The measure of one weight on ``positions``: the generation-1 atoms of
    an IFS with those centers, each of weight ``1/len(positions)``."""
    return DiscreteMeasure(ImageIFS(np.array(positions, dtype=complex), resolution, 1), 1.0, 1.0)


def _assert_tree_matches_direct(mu, zs, rows=50):
    """Tree descent against the direct sum, within 256u of sum |w/(z-p)|/pi
    (summed over ``rows`` points at a time)."""
    assert mu.count > LEAF
    tree, _ = cauchy_transform_batch(mu, zs)
    for i in range(0, zs.size, rows):
        block = zs[i : i + rows]
        terms = mu.weight / (block[:, None] - mu.positions[None, :])
        direct = terms.sum(axis=1) / math.pi
        err = np.abs(tree[i : i + rows] - direct)
        assert (err <= 256 * UNIT_ROUNDOFF * np.abs(terms).sum(axis=1) / math.pi).all()


def _seeded_points(mu, seed, n_disk, n_near, n_ring):
    """Uniform points in the square around the unit disk, points within twice
    the resolution of an atom, and points on the circles |z| = 10 and 100."""
    rng = np.random.default_rng(seed)
    disk = rng.uniform(-1.1, 1.1, n_disk) + 1j * rng.uniform(-1.1, 1.1, n_disk)
    offsets = 2.0 * mu.resolution * rng.uniform(0.05, 1.0, n_near)
    near = mu.positions[rng.choice(mu.count, n_near)] + offsets * np.exp(
        2j * math.pi * rng.uniform(size=n_near)
    )
    rings = [R * np.exp(2j * math.pi * rng.uniform(size=n_ring)) for R in (10.0, 100.0)]
    return np.concatenate([disk, near, *rings])


def _between_sibling_leaves(mu, seed, n):
    """Points between two sibling leaves of the tree walk, near the middle, so
    that most points reach both leaves and their leaf pairs can straddle two
    leaf blocks."""
    rng = np.random.default_rng(seed)
    m = mu.ifs.m
    leaves = mu.positions.reshape(-1, m, m ** _leaf_levels(m)).mean(axis=2)
    parent, j = rng.integers(0, leaves.shape[0], n), rng.integers(0, m, n)
    k = (j + rng.integers(1, m, n)) % m
    a, b = leaves[parent, j], leaves[parent, k]
    return a + rng.uniform(0.4, 0.6, n) * (b - a)


class TestFrostmanMeasure:
    def test_generation_zero_single_atom(self, params7):
        mu = frostman_measure(params7, 0, growth_delta=0.2)
        assert mu.count == 1 and mu.positions[0] == 0j and mu.weight == 1.0

    def test_generation_one_atoms_at_centers(self, params7):
        mu = frostman_measure(params7, 1)
        assert mu.count == 7
        assert np.allclose(mu.positions, params7.packing.centers)
        assert np.allclose(mu.weight, 1.0 / 7.0)
        assert mu.resolution == pytest.approx(params7.image_ratio)

    def test_total_mass_exactly_one(self, params7):
        mu = frostman_measure(params7, 3)
        # uniform weights are 1/m**N by construction: exact in rationals
        assert Fraction(1, params7.m**3) * params7.m**3 == 1
        assert mu.count * mu.weight == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_generation_ball_mass_is_self_similar_count(self, params7, k):
        N = 3
        mu = frostman_measure(params7, N)
        center = chain((2, 4, 1)[:k], params7, "image")[0]
        count = mu._ball_counts(np.array([center]), np.array([params7.image_ratio**k]))[0, 0]
        assert count == params7.m ** (N - k)

    def test_growth_certificate_on_generation_balls(self, params7):
        # measure of a generation ball is radius**dim_image, so constant 1 works
        N, delta = 3, 0.05
        mu = frostman_measure(params7, N, growth_delta=delta)
        for k in (1, 2):
            rho = params7.image_ratio**k
            center = chain((0,) * k, params7, "image")[0]
            count = mu._ball_counts(np.array([center]), np.array([rho]))[0, 0]
            assert count * mu.weight <= 1.0 * rho**mu.growth_exponent * (1 + 1e-9)
        assert math.isfinite(mu.growth_constant) and mu.growth_constant > 0

    def test_growth_doubling(self, params7):
        mu = frostman_measure(params7, 3)
        rng = np.random.default_rng(1)
        centers = mu.positions[rng.choice(mu.count, 50, replace=False)]
        radii = np.geomspace(mu.resolution, 1.0, 8)
        base = mu.growth_ratio(centers, radii)
        doubled = mu.growth_ratio(centers, 2.0 * radii)
        # doubling the radii cannot inflate the certified constant
        assert doubled <= base * (1 + 1e-12)

    def test_rejects_bad_delta(self, params7):
        for delta in (-0.1, math.nan):
            with pytest.raises(ParameterError):
                frostman_measure(params7, 1, growth_delta=delta)

    @pytest.mark.parametrize("positions, resolution, match", [
        ([math.nan + 0j, 0.5 + 0j], 1e-3, "IFS centers must be finite"),
        ([0.5 + 0j, complex(0.0, math.inf)], 1e-3, "IFS centers must be finite"),
        ([0j, 0.5 + 0j], math.nan, r"IFS ratio must lie in \(0, 1\)"),
        ([0j, 0.5 + 0j], math.inf, r"IFS ratio must lie in \(0, 1\)"),
        ([0j, 0.5 + 0j], 0.0, r"IFS ratio must lie in \(0, 1\)"),
    ], ids=["nan-atom", "infinite-atom", "nan-resolution", "infinite-resolution", "zero-resolution"])
    def test_rejects_non_finite_atom_or_resolution(self, positions, resolution, match):
        # at generation 1 the atoms are the IFS centers and the resolution is
        # its ratio; a NaN center would also give the IFS a NaN radius
        with pytest.raises(ParameterError, match=match):
            _atoms(positions, resolution)

    def test_rejects_empty_measure(self):
        with pytest.raises(ParameterError, match="an IFS needs at least one center"):
            _atoms(np.zeros(0, complex))

    def test_weight_and_resolution_follow_the_ifs(self, params7):
        # weight m**-N, resolution ratio**N, and the atoms cached on the IFS,
        # so that a copy of the measure reads the same array
        mu = frostman_measure(params7, 3)
        assert mu.count == 343 and mu.weight == float(7) ** -3
        assert mu.resolution == params7.image_ratio**3
        assert replace(mu, growth_constant=1.0).positions is mu.positions
        assert not mu.positions.flags.writeable
        assert np.array_equal(mu.positions, generation_centers(3, "image", params7))

    @pytest.mark.parametrize("rho", [0.0, -0.1, math.nan, math.inf])
    def test_growth_ratio_rejects_radii_not_positive_and_finite(self, params7, rho):
        # a zero radius would give an infinite ratio, a negative or NaN one
        # would drop out of the maximum unseen
        mu = frostman_measure(params7, 2)
        with pytest.raises(ParameterError, match="growth radii must be positive and finite"):
            mu.growth_ratio(np.array([0.1 + 0j]), np.array([0.5, rho]))


@pytest.fixture(scope="module")
def tree_measures(params7):
    """The criterion-11 measure (217**2 atoms), 7**5 atoms, and 7**2 atoms, at
    most LEAF, whose transform is one direct sum."""
    crit11 = build_counterexample(0.5, 2.0, 1.9, N=2, depth_max=40, seed=0).measure
    return {
        "criterion-11": crit11,
        "m7-N5": frostman_measure(params7, 5),
        "small": frostman_measure(params7, 2),
    }


def _kd_tree(mu):
    return cKDTree(np.column_stack([mu.positions.real, mu.positions.imag]))


class TestAtomQueries:
    """IFS-tree atom queries against a KD-tree over the enumerated atoms."""

    @pytest.mark.parametrize("name", ["criterion-11", "m7-N5"])
    def test_nearest_atom_distance_bitwise(self, tree_measures, name):
        mu = tree_measures[name]
        rng = np.random.default_rng(31)
        far = 3.0 * np.exp(2j * math.pi * rng.uniform(size=200))
        zs = np.concatenate([_seeded_points(mu, 31, 3000, 1000, 100), mu.positions[::97], far])
        ref, _ = _kd_tree(mu).query(np.column_stack([zs.real, zs.imag]))
        assert np.array_equal(mu.nearest_atom_distance(zs), ref)

    def test_nearest_atom_distance_direct_paths(self, tree_measures, params7):
        for mu in (tree_measures["small"], frostman_measure(params7, 0)):
            zs = _seeded_points(mu, 32, 500, 200, 20)
            ref, _ = _kd_tree(mu).query(np.column_stack([zs.real, zs.imag]))
            assert np.array_equal(mu.nearest_atom_distance(zs), ref)

    @pytest.mark.parametrize("centers, ratio, N", [
        ([0.3 + 0.1j], 0.5, 40),
        ([0.4 - 0.2j, 0.4 - 0.2j], 0.45, 1),
        ([0.4 - 0.2j, 0.4 - 0.2j, -0.5 + 0.3j], 0.45, 4),
        ([-0.5 + 0.1j, 0.5 - 0.1j], 0.4, 10),
        ([-0.5 + 0.1j, 0.5 - 0.1j], 0.4, 0),
    ], ids=["one-center-N40", "coincident-N1", "coincident-N4", "two-centers-N10", "generation-0"])
    def test_atom_queries_on_degenerate_layouts(self, centers, ratio, N):
        # one center, whose 40 levels hold one atom; two coincident centers,
        # whose atoms coincide in pairs at N = 1 and in larger groups below;
        # two centers at N = 10 (1,024 atoms) and at N = 0 (one atom, its own
        # leaf): every measure walks the tree
        mu = DiscreteMeasure(ImageIFS(np.array(centers), ratio, N), 1.0, 1.0)
        tree = _kd_tree(mu)
        zs = _seeded_points(mu, 35, 300, 100, 10)
        pts = np.column_stack([zs.real, zs.imag])
        assert np.array_equal(mu.nearest_atom_distance(zs), tree.query(pts)[0])
        # radii at an atom's distance from a point and one ulp either side
        dx, dy = zs[:50].real - mu.positions[-1].real, zs[:50].imag - mu.positions[-1].imag
        rho = np.sqrt(dx * dx + dy * dy)
        radii = np.concatenate([np.nextafter(rho, 0.0), rho, np.nextafter(rho, 9.0),
                                np.geomspace(mu.resolution, 2.0, 12)])
        expected = np.column_stack([tree.query_ball_point(pts, r, return_length=True) for r in radii])
        assert np.array_equal(mu._ball_counts(zs, radii), expected)

    @pytest.mark.parametrize("corner", [0j, 1.0, 1j, 1.0 + 1j])
    def test_near_grid_rows_reach_past_the_cell_edges(self, corner):
        # The near grid's rows serve points up to _FRAME_SLACK outside a cell
        # (its pad) and children up to _FRAME_SLACK off their place (its
        # reach, twice that): the rounding of frame points and atoms.  In
        # the cell [0, 1]**2, child 0 lies nearest to every point, and child
        # 1 beyond ``corner``, just farther than a row without the pad reaches.
        # Past the corner by 0.9 pad, with both children moved 0.9 slack
        # toward it, child 1 is the nearest, and the cell's row must hold it.
        mid = 0.5 + 0.5j
        u = (corner - mid) / abs(corner - mid)
        near = mid - 0.5 * (corner - mid)
        far = corner + (abs(corner - near) + 3.35 * _FRAME_SLACK) * u
        grid = ImageIFS(np.array([near, far]), 0.5, 1)._near_grid
        assert grid.h == 1.0 and grid.x0 + grid.h == -2.0
        row = grid.table[grid.cells(np.array([mid]))[0]]
        children = row[row < 2]
        z = corner + 0.9 * math.sqrt(2.0) * _FRAME_SLACK * u
        moved = np.array([near, far]) - 0.9 * _FRAME_SLACK * u
        assert np.argmin(np.abs(z - moved)) == 1
        assert children[np.argmin(np.abs(z - moved[children]))] == 1

    @pytest.mark.parametrize("name", ["m7-N5", "small"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_points_rejected(self, tree_measures, name, bad):
        # a point that is nowhere has no nearest atom and no ball about it
        mu = tree_measures[name]
        with pytest.raises(ParameterError, match="atom query points must be finite; point 1 is"):
            mu.nearest_atom_distance(np.array([0.3, bad, 0.2j]))
        with pytest.raises(ParameterError, match="ball centers must be finite; point 1 is"):
            mu.growth_ratio(np.array([0.3, bad]), np.array([0.1, 0.5]))

    @pytest.mark.parametrize("name", ["criterion-11", "m7-N5", "small"])
    def test_growth_ratio_counts(self, tree_measures, name):
        mu = tree_measures[name]
        rng = np.random.default_rng(33)
        centers = np.concatenate([
            mu.positions[rng.choice(mu.count, min(150, mu.count), replace=False)],
            rng.uniform(-1.1, 1.1, 150) + 1j * rng.uniform(-1.1, 1.1, 150),
        ])
        tree, weight = _kd_tree(mu), mu.weight
        pts = np.column_stack([centers.real, centers.imag])
        for rho in np.geomspace(mu.resolution, 2.0, 12):
            counts = tree.query_ball_point(pts, rho, return_length=True)
            expected = float(counts.max()) * weight / rho**mu.growth_exponent
            assert mu.growth_ratio(centers, np.array([rho])) == expected
        # every radius from one walk, in any order and repeated; a NaN radius holds no atom
        radii = rng.permutation(np.concatenate([np.geomspace(mu.resolution, 2.0, 12), [0.1, 0.1]]))
        counts = np.column_stack([tree.query_ball_point(pts, rho, return_length=True) for rho in radii])
        got = mu._ball_counts(centers, np.append(radii, np.nan))
        assert np.array_equal(got, np.column_stack([counts, np.zeros(len(centers), dtype=int)]))
        assert mu.growth_ratio(centers, radii) == max(
            float(c.max()) * weight / rho**mu.growth_exponent for c, rho in zip(counts.T, radii)
        )

    @pytest.mark.parametrize("name", ["criterion-11", "m7-N5", "small"])
    def test_ball_mass_at_atom_distances(self, tree_measures, name):
        # radii equal to an atom's distance and one ulp either side, and the
        # radii of the growth certificate
        mu = tree_measures[name]
        rng = np.random.default_rng(34)
        tree = _kd_tree(mu)
        for center in (complex(mu.positions[17]) + 0.0123, 0.05 - 0.2j, 0j):
            dx, dy = mu.positions.real - center.real, mu.positions.imag - center.imag
            rho = np.sqrt(dx * dx + dy * dy)[rng.choice(mu.count, 25, replace=False)]
            radii = np.concatenate([
                np.nextafter(rho, 0.0), rho, np.nextafter(rho, 9.0),
                np.geomspace(mu.resolution, 2.0, 12),
            ])
            pts = np.tile([center.real, center.imag], (radii.size, 1))
            expected = tree.query_ball_point(pts, radii, return_length=True)
            assert np.array_equal(mu._ball_counts(np.array([center]), radii)[0], expected)


#: SHA-256 of each query's outputs on each of the ``tree_measures`` at seeded
#: points, so that a rewrite of the tree walks must reproduce every bit; the
#: comparison with the direct sum above allows 256u.  Captured with NumPy
#: 2.4.6 on x86-64: a digest that breaks after a NumPy or CPU change, with the
#: queries unchanged, is recaptured, not mended.
QUERY_DIGESTS = {
    "cauchy_transform_batch": {
        "criterion-11": "ef0e265168611bb6221cbeebef7e05f6501a03bb250138432a0496f1e3e6f18c",
        "m7-N5": "23f503c9d3e9930884c675326046c7fb223eb75d724468b71cec75ffb053ef4d",
        "small": "4612254020075ce3f406782941eba220003260e64a4d2c320eefe233affb8bc8",
    },
    "growth_ratio": {
        "criterion-11": "13a25940006defde263ee00e07bacd1c6cb3f9fa587b7540186ba5324c3cf771",
        "m7-N5": "89d2412e7e4c7805a0474450eb17207136208ee80d3c5c8dda76f4c866677856",
        "small": "e3b896af2917ecdbff5e47901338fa96b2a9da5c474b03982e0796bb4b067478",
    },
    "nearest_atom_distance": {
        "criterion-11": "030c9ac1df6f1609df1102afc17c16575f76e1e0d20966f1b0b633a6dc933820",
        "m7-N5": "3a9f71ed194f34a517f8bb4e7c1d1840a03919d36e490c82d7fd0f00b7ac0bbb",
        "small": "8e87bf6d63a421437b04cb2097ce23ccd8bb179c561d118dd64f93c565888d60",
    },
}


def _query_outputs(mu, query):
    radii = np.geomspace(mu.resolution, 2.0, 12)
    if query == "cauchy_transform_batch":
        return cauchy_transform_batch(mu, _seeded_points(mu, 41, 400, 150, 25))
    if query == "nearest_atom_distance":
        return [mu.nearest_atom_distance(_seeded_points(mu, 42, 400, 150, 25))]
    rng = np.random.default_rng(43)
    centers = np.concatenate([
        mu.positions[rng.choice(mu.count, min(150, mu.count), replace=False)],
        rng.uniform(-1.1, 1.1, 150) + 1j * rng.uniform(-1.1, 1.1, 150),
    ])
    return [np.array([mu.growth_ratio(centers, np.array([rho])) for rho in radii])]


def _query_digest(mu, query):
    h = hashlib.sha256()
    for a in _query_outputs(mu, query):
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("query", sorted(QUERY_DIGESTS))
def test_query_digest(tree_measures, query):
    pinned = QUERY_DIGESTS[query]
    assert {name: _query_digest(tree_measures[name], query) for name in pinned} == pinned


class TestCauchyTransform:
    def test_single_atom(self):
        mu = _atoms([0j])
        for z in (1 + 0j, 2j, -0.5 + 0.5j):
            assert _transform_at(mu, z) == pytest.approx(1.0 / (math.pi * z), rel=1e-14)

    def test_two_atoms_partial_fractions(self):
        mu = _atoms([0.5 + 0j, -0.5 + 0j])
        assert mu.weight == 0.5
        for z in (1.3 + 0.2j, -2 + 1j, 0.1 + 0.9j):
            expected = z / (math.pi * (z * z - 0.25))
            assert _transform_at(mu, z) == pytest.approx(expected, rel=1e-13)

    def test_residue_at_infinity(self, params7):
        mu = frostman_measure(params7, 2)
        for R in (10.0, 100.0, 1000.0):
            z = R * np.exp(0.3j)
            val = _transform_at(mu, complex(z))
            assert z * val == pytest.approx(1.0 / math.pi, rel=2.0 / R)

    @pytest.mark.parametrize("N", [1, 3])
    def test_duplicated_atoms_at_half_weight(self, params7, N):
        # doubling every center doubles each atom at half its weight: the
        # same measure, summed directly at N = 1 and over the tree at N = 3
        mu = frostman_measure(params7, N)
        twice = DiscreteMeasure(
            ImageIFS(np.repeat(params7.packing.centers, 2), params7.image_ratio, N), 1.0, 1.0
        )
        assert twice.count == 2**N * mu.count and twice.weight == mu.weight / 2**N
        assert (twice.count > LEAF) == (N == 3)
        zs = _seeded_points(mu, 14, 40, 10, 5)
        got, want = cauchy_transform_batch(twice, zs)[0], cauchy_transform_batch(mu, zs)[0]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)), min_size=1, max_size=6))
    def test_reflection_conjugate_symmetry(self, atom_coords):
        pos = np.array([complex(a, b) for a, b in atom_coords])
        mu, mu_refl = _atoms(pos, 1e-4), _atoms(np.conj(pos), 1e-4)
        z = 1.7 + 1.3j
        lhs = np.conj(_transform_at(mu_refl, np.conj(z)))
        assert lhs == pytest.approx(_transform_at(mu, z), rel=1e-12)

    def test_series_truncation_below_unit_roundoff(self):
        assert THETA ** (P + 1) / (1.0 - THETA) <= UNIT_ROUNDOFF
        for ratio, order in zip(_BAND_RATIOS, _BAND_ORDERS):
            assert ratio <= THETA and order <= P
            assert ratio ** (order + 1) / (1.0 - ratio) <= UNIT_ROUNDOFF

    @pytest.mark.parametrize("N", [3, 4])
    def test_moment_recursion_matches_enumerated_atoms(self, params7, N):
        ifs = ImageIFS(params7.packing.centers, params7.image_ratio, N)
        n = np.arange(P + 1)
        for k in range(N + 1):
            atoms = generation_centers(k, "image", params7)
            powers = atoms[:, None] ** n[None, :]
            # relative to sum |p|**n: moments forbidden by the layout's
            # symmetry are zero up to rounding
            scale = np.abs(powers).sum(axis=0)
            assert (np.abs(ifs.moments[k] - powers.sum(axis=0)) <= 1e-12 * scale).all()

    def test_tree_matches_direct_sum_at_criterion_11(self):
        mu = build_counterexample(0.5, 2.0, 1.9, N=2, depth_max=40, seed=0).measure
        assert mu.ifs.m == 217
        _assert_tree_matches_direct(mu, _seeded_points(mu, 11, 1500, 400, 100))

    @pytest.mark.parametrize("N", [1, 2])
    def test_tree_matches_direct_sum_past_leaf_sized_layouts(self, N):
        # m = 547 > LEAF: the transform's leaf clusters are still one level
        # above the atoms, the root at N = 1 and the m generation-1 clusters
        # at N = 2, never single atoms
        spec = build_counterexample(0.5, 2.0, 1.9, N=N, depth_max=40, m=547)
        mu, cells = spec.measure, spec.measure.ifs._targets
        assert mu.ifs.m == 547 > LEAF and _leaf_levels(547) == 1
        assert np.allclose(cells.at, generation_centers(N - 1, "image", spec.params)[cells.node],
                           rtol=0.0, atol=1e-12)
        _assert_tree_matches_direct(mu, _seeded_points(mu, 52, 150, 60, 10), rows=5)

    def test_tree_matches_direct_sum_three_levels(self, params7):
        # 7**5 atoms in leaves of 7**3: the descent expands two levels
        mu = frostman_measure(params7, 5)
        _assert_tree_matches_direct(mu, _seeded_points(mu, 12, 200, 100, 20))

    def test_tree_matches_direct_sum_between_sibling_leaves(self, tree_measures):
        # points that reach two or more leaves, and the corners and edge
        # midpoints of seeded target cells, where two cells' local series meet
        mu = tree_measures["m7-N5"]
        cells = mu.ifs._targets
        rng = np.random.default_rng(48)
        leaf = rng.choice(cells.size.size, 300, replace=False)
        offsets = np.array([1, 1j, -1, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
        edges = (cells.centre[leaf, None] + cells.size[leaf, None] * offsets).ravel()
        zs = np.concatenate([_between_sibling_leaves(mu, 49, 600), edges])
        _assert_tree_matches_direct(mu, zs)

    def test_tree_matches_direct_sum_below_the_finest_cells(self, params13):
        # 13**5 atoms in leaves of 13**2: the seven levels of target cells
        # stop at cells wider than the clusters one level above the leaves,
        # so the finest cells must open those clusters into leaf clusters
        mu = frostman_measure(params13, 5)
        ifs, cells = mu.ifs, mu.ifs._targets
        depth = ifs.generation - _leaf_levels(ifs.m)
        assert cells.top == _CELL_LEVELS
        above = ifs.ratio ** (depth - 1) * ifs.radius(ifs.generation - depth + 1)
        assert cells.size.min() * math.sqrt(2.0) > above
        # every near entry is a leaf cluster, centred where its number puts it
        leaf_centres = generation_centers(depth, "image", params13)
        assert np.allclose(cells.at, leaf_centres[cells.node], rtol=0.0, atol=1e-12)
        rng = np.random.default_rng(50)
        finest = np.flatnonzero(cells.size == cells.size.min())
        corners = cells.centre[rng.choice(finest, 20)] + cells.size.min() * (1 + 1j)
        zs = np.concatenate([_seeded_points(mu, 51, 30, 30, 0), corners])
        _assert_tree_matches_direct(mu, zs, rows=5)

    @pytest.mark.parametrize("name", ["criterion-11", "m7-N5"])
    def test_split_changes_no_bit(self, tree_measures, name):
        # each point's terms are added in node order whatever shares its
        # chunk or leaf block: splits at 1, at the chunk boundary, one past
        # it and at a seeded cut give the bits of one call
        mu = tree_measures[name]
        step = _PAIRS // mu.ifs.m
        zs = _between_sibling_leaves(mu, 46, step + 700)
        whole = cauchy_transform_batch(mu, zs)
        for cut in (1, step, step + 1, int(np.random.default_rng(47).integers(2, zs.size))):
            parts = zip(cauchy_transform_batch(mu, zs[:cut]), cauchy_transform_batch(mu, zs[cut:]))
            for got, want in zip(parts, whole):
                assert np.array_equal(np.concatenate(got), want), cut

    def test_direct_expression_kept_for_one_leaf_measures(self, params7):
        for mu in (frostman_measure(params7, 1), frostman_measure(params7, 2)):
            assert mu.count <= LEAF
            zs = _seeded_points(mu, 13, 40, 10, 5)
            values, _ = cauchy_transform_batch(mu, zs)
            expected = (mu.weight / (zs[:, None] - mu.positions[None, :])).sum(axis=1)
            assert (values == expected / math.pi).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_point_rejected(self, params7, bad):
        tree, direct = frostman_measure(params7, 4), frostman_measure(params7, 1)
        assert tree.count > LEAF >= direct.count
        for mu in (tree, direct):
            with pytest.raises(ParameterError, match=r"point 1 is"):
                cauchy_transform_batch(mu, np.array([0.3, bad, 0.2j]))

    def test_near_atom_flag(self, params7):
        mu = frostman_measure(params7, 2)
        at_atom = mu.positions[5] + mu.resolution / 4.0
        far = 2.0 + 0j
        _, flags = cauchy_transform_batch(mu, np.array([at_atom, far]))
        assert flags[0] and not flags[1]


class TestCounterexampleArithmetic:
    def test_threshold_k1(self):
        for a in (0.1, 0.5, 0.9):
            assert removability_threshold(a, 1.0) == pytest.approx(1.0 + a)

    def test_epsilon_inequality_symbolic(self):
        # the exponent condition and the threshold condition are the same
        # inequality up to the positive factor (K+1)/(2K)
        t, e, a, K = sympy.symbols("t e a K", positive=True)
        t_prime = 2 * K * t / (2 + (K - 1) * t)
        expr1 = t - (2 * e + 1) * t / t_prime - a
        expr2 = (t - 2 * (1 + a * K) / (1 + K)) - e * 2 / (K + 1) * (2 + (K - 1) * t)
        assert sympy.simplify(2 * K * expr1 - (K + 1) * expr2) == 0

    def test_boundary_rejected_interior_accepted(self):
        a, K = 0.4, 3.0
        thr = removability_threshold(a, K)
        with pytest.raises(ParameterError, match="threshold"):
            build_counterexample(a, K, thr)
        spec = build_counterexample(a, K, 1.5, N=1)
        assert 0 < spec.epsilon < max_admissible_epsilon(a, K, 1.5)

    def test_near_boundary_needs_infeasible_layout(self):
        # just above the threshold the admissible epsilon is so small that no
        # desk-scale layout reaches the required dimension deficit
        a, K = 0.4, 3.0
        thr = removability_threshold(a, K)
        with pytest.raises(ParameterError, match="ladder"):
            build_counterexample(a, K, thr + 0.05, N=1)

    def test_frozen_acceptance_numbers(self):
        # independent arithmetic route: solve t - (2e+1) t/t' = alpha for e
        t, a, K = 1.9, 0.5, 2.0
        t_prime = 2 * K * t / (2 + (K - 1) * t)
        eps_max_alt = ((t - a) * t_prime / t - 1.0) / 2.0
        assert max_admissible_epsilon(a, K, t) == pytest.approx(eps_max_alt, rel=1e-12)
        assert removability_threshold(a, K) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_expected_exponent_dominates_alpha(self):
        spec = build_counterexample(0.5, 2.0, 1.9, N=1)
        assert spec.expected_f_exponent >= spec.alpha
        f_exp_alt = spec.params.t - (2 * spec.epsilon + 1) * spec.params.t / spec.params.t_prime
        assert spec.expected_f_exponent == pytest.approx(f_exp_alt, rel=1e-12)

    def test_measure_growth_target(self):
        spec = build_counterexample(0.5, 2.0, 1.9, N=1)
        assert spec.measure.growth_exponent == pytest.approx(
            spec.params.t_prime - 2 * spec.epsilon, rel=1e-12
        )
        assert spec.measure.growth_exponent <= spec.params.dim_image


class TestCounterexampleEvaluator:
    def test_composition_plumbing(self):
        spec = build_counterexample(0.5, 2.0, 1.9, N=1, depth_max=30)
        rng = np.random.default_rng(4)
        zs = rng.uniform(-1.2, 1.2, 20) + 1j * rng.uniform(-1.2, 1.2, 20)
        single, _ = spec.f_map(zs)
        for z, v in zip(zs, single):
            w = phi(complex(z), spec.params, 30).value
            composed = _transform_at(spec.measure, w)
            assert abs(composed - v) <= 1e-12 * max(1.0, abs(v))

    def test_dbar_single_atom_analytic(self):
        mu = _atoms([0j], 1e-2)

        class Shim:
            measure = mu

        assert dbar_max(Shim(), grid=20) < 1e-7

    def test_residue_tail_bound(self):
        spec = build_counterexample(0.5, 2.0, 1.9, N=1)
        mu = spec.measure
        for R in (10.0, 100.0):
            bound = float((mu.weight * np.abs(mu.positions)).sum()) / (
                math.pi * (R - np.abs(mu.positions).max())
            )
            assert residue_error(spec, R) <= bound * (1 + 1e-9)

    def test_k1_end_to_end(self):
        # conformal case: the map drops out and f is the transform itself
        spec = build_counterexample(0.5, 1.0, 1.6, N=2, depth_max=30)
        assert spec.params.K == 1.0
        cfg = HolderConfig(
            params=spec.params, n_uniform=800, n_stratified=1500,
            adversarial_depth=3, adversarial_per_generation=120,
            adversarial_offset=0.37 + 0.21j, annulus_levels=1, annulus_disks=4,
        )
        report = verify_counterexample(spec, seed=3, holder_config=cfg)
        assert report.measured_exponent >= spec.alpha - 0.05
        assert report.dbar_max < 1e-6
        assert report.residue_error <= 0.01 / math.pi
        assert report.residue_error < report.residue_error_near
        assert report.scale_floor == spec.measure.resolution

    def test_auto_m_respects_sigma_margin(self):
        spec = build_counterexample(0.5, 2.0, 1.9, N=2)
        assert spec.params.sigma <= 0.995
        assert spec.params.t_prime - spec.params.dim_image <= spec.epsilon

    def test_explicit_m_validation(self):
        with pytest.raises(ParameterError):
            build_counterexample(0.5, 2.0, 1.9, N=2, m=7)
