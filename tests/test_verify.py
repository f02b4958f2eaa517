import math
import warnings

import numpy as np
import pytest

from cantorqc import (
    HolderConfig,
    ParameterError,
    box_dimension,
    build_packing,
    derive_params,
    generation_centers,
    generation_disk_growth,
    holder_estimate,
    image_map,
    integral_growth_check,
    packing_condition_check,
    phi_batch,
    phi_map_fn,
    source_map,
)
from cantorqc.verify import _box_count


def _reference_box_count(pts, scale, offsets):
    """Occupied boxes summed over the offsets, with Python's unbounded integers."""
    return sum(
        len({(math.floor((z.real + ox) / scale), math.floor((z.imag + oy) / scale)) for z in pts})
        for ox, oy in offsets.tolist()
    )


class TestBoxDimension:
    def test_source_slope_near_t(self, params13):
        est = box_dimension("source", params13, 4, seed=1)
        assert abs(est.slope - params13.t) < 0.05
        assert est.r2 >= 0.99

    def test_image_slope_near_dim_image(self, params13):
        est = box_dimension("image", params13, 4, seed=1)
        assert abs(est.slope - params13.dim_image) < 0.05
        assert est.r2 >= 0.99

    @pytest.mark.parametrize(
        "side, counts", [("source", (458, 5868, 76499)), ("image", (542, 6800, 85646))]
    )
    def test_counts_pinned(self, params13, side, counts):
        assert box_dimension(side, params13, 4, seed=1).counts == counts

    def test_box_count_matches_reference(self, params7):
        rng = np.random.default_rng(4)
        pts = generation_centers(4, "source", params7)
        # points exactly on box edges, on both sides of the origin, at a power-of-two scale
        edges = np.add.outer(np.arange(-6, 7), 1j * np.arange(-6, 7)).ravel() / 64
        for family, scales in ((pts, (0.3, 0.05, 0.007, 1e-4)), (edges, (1 / 64, 1 / 32, 1 / 128))):
            for s in scales:
                offsets = np.vstack([[0.0, 0.0], [s / 2, 0.0], rng.uniform(0.0, s, size=(6, 2))])
                got = _box_count(family.real.copy(), family.imag.copy(), s, offsets)
                assert got == _reference_box_count(family.tolist(), s, offsets)

    def test_box_count_past_int64_is_exact(self):
        # at t = 0.05 the finest default scale is about 3e-37, so box indices
        # reach 1e36 and a key i*(jmax+1)+j does not fit in int64
        p = derive_params(0.05, 2.0, build_packing(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = box_dimension("source", p, 8, seed=1)
        rng = np.random.default_rng(np.random.SeedSequence(1))
        pts = generation_centers(8, "source", p).tolist()
        expected = tuple(
            _reference_box_count(pts, s, rng.uniform(0.0, s, size=(32, 2))) for s in est.scales
        )
        assert est.scales[-1] < 1e-36
        assert est.counts == expected

    def test_tuned_t_one_grid_like(self):
        # pick (m, t) so the closed-form dimension is exactly 1 and recover it
        p = derive_params(1.0, 1.0, build_packing(13))
        est = box_dimension("source", p, 4, seed=2)
        assert abs(est.slope - 1.0) < 0.05

    def test_counts_nondecreasing_as_scale_shrinks(self, params13):
        est = box_dimension("source", params13, 4, seed=3)
        assert all(b >= a for a, b in zip(est.counts, est.counts[1:]))
        assert all(a > b for a, b in zip(est.scales, est.scales[1:]))

    def test_error_shrinks_with_generation(self, params13):
        errs = [
            abs(box_dimension("source", params13, N, seed=1).slope - params13.t)
            for N in (3, 4)
        ]
        assert errs[1] <= errs[0] + 0.02

    def test_rejects_fewer_than_three_scales(self, params13):
        with pytest.raises(ParameterError, match="3 scales"):
            box_dimension("source", params13, 2, seed=0)


class TestHolder:
    def test_k1_identity_exponent(self, params7_k1):
        cfg = HolderConfig(params=params7_k1)
        rep = holder_estimate(phi_map_fn(params7_k1), 1.0, cfg, seed=5)
        assert abs(rep.regression_exponent - 1.0) < 0.02
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_k2_adversarial_family_matches_closed_form(self, params100):
        # same-parent center pairs realize the distortion exponent exactly
        p = params100
        J = (7, 3)
        i, j = 2, 9
        z1 = source_map(J + (i,), p)(0)
        z2 = source_map(J + (j,), p)(0)
        w1 = image_map(J + (i,), p)(0)
        w2 = image_map(J + (j,), p)(0)
        vals, _, errs = phi_batch(np.array([z1, z2]), p, 44)
        measured = abs(vals[0] - vals[1])
        assert measured == pytest.approx(abs(w1 - w2), abs=2 * errs.max() + 1e-12)
        ratio = measured / abs(z1 - z2) ** p.holder_exp
        closed = abs(w1 - w2) / abs(z1 - z2) ** p.holder_exp
        assert ratio == pytest.approx(closed, rel=1e-9)

    def test_k2_regression_window(self, params100):
        cfg = HolderConfig(params=params100)
        rep = holder_estimate(phi_map_fn(params100), params100.holder_exp, cfg, seed=11)
        assert 0.70 <= rep.regression_exponent_adversarial <= 0.80
        floor = 1.0 / params100.K + (params100.K - 1) * params100.t / (2 * params100.K) - 0.05
        assert rep.regression_exponent > floor
        assert rep.excluded_pairs == 0

    def test_deterministic(self, params7):
        cfg = HolderConfig(params=params7, n_uniform=500, n_stratified=500)
        a = holder_estimate(phi_map_fn(params7), 0.75, cfg, seed=9)
        b = holder_estimate(phi_map_fn(params7), 0.75, cfg, seed=9)
        assert a == b

    def test_certified_bound_inflation(self, params7):
        # at depth 1 almost nothing resolves; every surviving ratio must carry
        # the truncation bounds, and unresolvable pairs leave the regression
        cfg = HolderConfig(params=params7, n_uniform=200, n_stratified=200,
                           adversarial_depth=2, annulus_levels=1)
        rep = holder_estimate(phi_map_fn(params7, depth_max=1), 0.75, cfg, seed=2)
        assert rep.excluded_pairs > 0

    def test_max_ratio_and_exclusion_follow_the_recorded_pairs(self, params7):
        # at depth 4 many pairs carry a truncation bound; the report must agree
        # with the pairs the map was called on, recomputed here from scratch
        calls = []
        map_fn = phi_map_fn(params7, depth_max=4)

        def recording(z):
            values, errs = map_fn(z)
            calls.append((z, values, errs))
            return values, errs

        alpha = params7.holder_exp
        rep = holder_estimate(recording, alpha, HolderConfig(params=params7), seed=1)
        (z1, v1, e1), (z2, v2, e2) = calls
        finite = np.isfinite(v1) & np.isfinite(v2) & np.isfinite(e1) & np.isfinite(e2)
        sep = np.abs(z1 - z2)[finite]
        diff = np.abs(v1 - v2)[finite]
        bound = (e1 + e2)[finite]
        ratio = (diff + bound) / sep**alpha
        assert np.count_nonzero(bound > 0.0) >= 100
        # the bounds decide both the maximum and which pairs are excluded
        assert ratio.max() > 2.0 * (diff / sep**alpha).max()
        assert np.count_nonzero((bound > 0.1 * diff) & (bound <= 10.0 * diff)) >= 100
        assert rep.max_ratio == ratio.max()
        certain = (diff > 0.0) & (bound <= 0.1 * diff)
        assert rep.excluded_pairs == np.count_nonzero(~finite) + np.count_nonzero(~certain)


def test_holder_pair_table_csv_columns(params7):
    from cantorqc.verify import holder_pair_table

    cfg = HolderConfig(params=params7, n_uniform=200, n_stratified=200,
                       adversarial_depth=2, annulus_levels=1)
    sep, ratio = holder_pair_table(phi_map_fn(params7), 0.75, cfg, seed=4)
    assert sep.size == ratio.size > 0
    assert (sep < 1.0).all() and (sep > 0.0).all()
    assert np.isfinite(ratio).all()


class TestPackingCondition:
    def test_full_capture_closed_form(self, params7):
        # a disk containing every generation disk has ratio 2**t / diam**t
        p = params7
        N = 3
        centers = generation_centers(N, "source", p)
        g_diam = 2.0 * p.source_ratio**N
        diam = 2.0
        hits = int((np.abs(centers - 0.0) < diam / 2 + g_diam / 2).sum())
        assert hits == p.m**N
        ratio = hits * g_diam**p.t / diam**p.t
        assert ratio == pytest.approx(2.0**p.t * p.m**N * p.source_ratio ** (N * p.t) / diam**p.t)
        assert ratio == pytest.approx(1.0, rel=1e-12)  # m (sigma r)^t = 1 and diam = 2

    def test_floor_probe_dominates(self, params7):
        rep = packing_condition_check(3, params7.t, 100, seed=5, params=params7)
        assert rep.max_ratio == pytest.approx(2.0**params7.t, rel=1e-9)

    def test_stable_across_generations(self, params7):
        vals = [
            packing_condition_check(N, params7.t, 300, seed=5, params=params7).max_ratio
            for N in (2, 3, 4)
        ]
        assert max(vals) / min(vals) <= 2.0

    def test_higher_exponent_inherited(self, params7):
        s = 2 * params7.t / params7.t_prime
        rep = packing_condition_check(3, s, 300, seed=6, params=params7)
        assert rep.inherited_ok
        base = packing_condition_check(3, params7.t, 300, seed=6, params=params7)
        assert rep.max_ratio <= max(base.max_ratio, 2.0**s) * (1 + 1e-9)

    def test_rejects_s_below_t(self, params7):
        with pytest.raises(ParameterError):
            packing_condition_check(2, 0.5 * params7.t, 10, seed=0, params=params7)


class TestIntegralGrowth:
    def test_generation_disk_constancy(self, params7):
        vals = generation_disk_growth(params7, tuple(range(1, 7)))
        ref = vals[0]
        assert all(abs(v / ref - 1.0) < 1e-6 for v in vals)
        # the constant is the unit-disk value pi / 2**(2t/t')
        assert ref == pytest.approx(math.pi / 2 ** (2 * params7.t / params7.t_prime), rel=1e-12)

    def test_identity_region_disk(self, params7):
        # disk far outside the unit disk: mass is plain area
        from cantorqc import jacobian_batch

        rng = np.random.default_rng(0)
        c, diam = 3.0 + 0j, 0.5
        pts = c + diam / 2 * np.sqrt(rng.uniform(0, 1, 2000)) * np.exp(
            1j * rng.uniform(0, 2 * math.pi, 2000)
        )
        jac = jacobian_batch(pts, params7, 6)
        est = math.pi * (diam / 2) ** 2 * float(jac.mean())
        assert est == pytest.approx(math.pi * (diam / 2) ** 2, rel=1e-12)

    def test_sweep_reports_finite_max(self, params7):
        rep = integral_growth_check(30, 3, params7, depth=7, mc_samples=2000)
        assert math.isfinite(rep.max_normalized) and rep.max_normalized > 0
        assert rep.max_undefined_fraction <= 0.05
        assert rep.flagged == 0

    def test_cap_flagging(self, params7):
        rep = integral_growth_check(30, 3, params7, depth=7, mc_samples=2000, c_cap=1e-6)
        assert rep.flagged > 0
