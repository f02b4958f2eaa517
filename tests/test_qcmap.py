import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cantorqc import (
    Disk,
    GluedMapSpec,
    GluedPiece,
    ParameterError,
    build_packing,
    derive_params,
    glued_map,
    image_map,
    jacobian,
    jacobian_batch,
    lp_mass_closed_form,
    lp_mass_monte_carlo,
    make_glued_spec,
    phi,
    phi_batch,
    phi_inverse,
    phi_inverse_batch,
    source_map,
    terminal_info,
    unresolved_area,
)
from descent import descents
from fdtools import fd_derivatives as _fd
from oracle_composition import literal_phi

RNG = np.random.default_rng


def fd_derivatives(params, z, h, depth_max=40):
    return _fd(params, z, h, depth_max)


class TestBaseStep:
    """One generation's case split, through both descent kernels."""

    def test_outside_unit_disk_is_final_identity(self, params7):
        z = 1.7 - 0.4j
        for level, x, d, _, a, b, _ in descents(z, params7):
            assert level == 0 and d >= params7.r
            assert a + b * x == z

    def test_outer_circle_continuity(self, params7):
        # on |z - z_i| = r the radial formula collapses to the identity
        zi = complex(params7.packing.centers[3])
        for theta in (0.0, 1.1, 2.9):
            z = zi + params7.r * np.exp(1j * theta)
            rho = abs(z - zi) / params7.r
            radial = zi + rho ** (1.0 / params7.K - 1.0) * (z - zi)
            assert abs(radial - z) < 1e-14

    def test_descend_renormalizes(self, params7):
        zi = complex(params7.packing.centers[0])
        z = zi + 0.2 * params7.sigma * params7.r
        for level, x, _, _, a, b, _ in descents(z, params7):
            assert level == 1 and a == zi and b == params7.image_ratio
            assert x == pytest.approx(0.2, rel=1e-12)

    def test_k1_every_piece_is_identity(self, params7_k1):
        for z in (0.1 + 0.2j, 0.5, 0.9j, 2.0 + 0j):
            res = phi(z, params7_k1, depth_max=1)
            if res.err_bound == 0.0:
                assert res.value == pytest.approx(z, abs=1e-15)
            vals, _, errs = phi_batch(np.array([z]), params7_k1, 1)
            if errs[0] == 0.0:
                assert vals[0] == pytest.approx(z, abs=1e-15)


class TestPhi:
    def test_identity_off_unit_disk(self, params7):
        res = phi(1 + 2j, params7)
        assert res.value == 1 + 2j and res.depth == 0 and res.err_bound == 0.0

    def test_k1_is_global_identity(self, params7_k1):
        rng = RNG(0)
        z = rng.uniform(-1.5, 1.5, 1000) + 1j * rng.uniform(-1.5, 1.5, 1000)
        vals, _, err = phi_batch(z, params7_k1, 48)
        assert np.abs(vals - z).max() < 1e-12
        assert err.max() < 1e-12

    def test_centers_map_to_image_centers(self, params7):
        for J in [(0,), (3,), (2, 5), (6, 1, 4)]:
            res = phi(source_map(J, params7)(0), params7, depth_max=40)
            target = image_map(J, params7)(0)
            assert abs(res.value - target) <= res.err_bound + 1e-10

    def test_origin_fixed(self, params7):
        res = phi(0j, params7, depth_max=30)
        assert abs(res.value) <= res.err_bound and res.depth == 30

    def test_truncation_certificate(self, params7):
        zi = complex(params7.packing.centers[2])
        res = phi(zi, params7, depth_max=1)
        assert res.depth == 1
        assert res.err_bound == pytest.approx(2.0 * params7.image_ratio)

    def test_conjugacy(self, params7):
        rng = RNG(3)
        z = (rng.uniform(-0.9, 0.9, 300) + 1j * rng.uniform(-0.9, 0.9, 300))
        z = z[np.abs(z) < 1.0]
        for i in range(params7.m):
            src = source_map((i,), params7)
            img = image_map((i,), params7)
            lhs, _, e1 = phi_batch(src(z), params7, 41)
            inner, _, e2 = phi_batch(z, params7, 40)
            rhs = img(inner)
            bound = e1 + params7.image_ratio * e2 + 1e-10
            assert (np.abs(lhs - rhs) <= bound).all()

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(-1.2, 1.2), st.floats(-1.2, 1.2), st.integers(min_value=1, max_value=8)
    )
    def test_monotone_truncation(self, x, y, d):
        p = derive_params(1.0, 2.0, build_packing(7))
        z = complex(x, y)
        shallow = phi(z, p, depth_max=d)
        deep = phi(z, p, depth_max=d + 1)
        tol = shallow.err_bound + 1e-12
        assert abs(deep.value - shallow.value) <= tol

    def test_scalar_matches_batch(self, params7):
        rng = RNG(9)
        z = rng.uniform(-1.1, 1.1, 64) + 1j * rng.uniform(-1.1, 1.1, 64)
        vals, depths, errs = phi_batch(z, params7, 24)
        for k in range(z.size):
            res = phi(complex(z[k]), params7, 24)
            # scalar and vector paths may differ by an ulp in the pow call
            assert abs(res.value - vals[k]) < 1e-13
            assert res.depth == depths[k] and res.err_bound == errs[k]


SCALAR_ENTRIES = (phi, phi_inverse, jacobian)
BATCH_ENTRIES = (phi_batch, phi_inverse_batch, jacobian_batch, terminal_info)


def _call(entry, z, params, depth_max):
    if entry in BATCH_ENTRIES:
        return entry(np.array([0.3, z, 0.2j]), params, depth_max)
    return entry(z, params, depth_max)


class TestValidation:
    """Every entry point rejects bad input by name, never certifies it."""

    @pytest.mark.parametrize("entry", SCALAR_ENTRIES + BATCH_ENTRIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "bad", [complex(math.nan, 0), complex(math.inf, 0), complex(0.1, -math.inf)]
    )
    def test_non_finite_point_rejected(self, params7, entry, bad):
        where = "point 1 is" if entry in BATCH_ENTRIES else "got"
        with pytest.raises(ParameterError, match=f"must be finite.*{where}"):
            _call(entry, bad, params7, 8)

    @pytest.mark.parametrize("entry", SCALAR_ENTRIES + BATCH_ENTRIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("depth_max", [0, -2])
    def test_depth_max_below_one_rejected(self, params7, entry, depth_max):
        with pytest.raises(ParameterError, match="depth_max must be >= 1"):
            _call(entry, 0.1j, params7, depth_max)

    @pytest.mark.parametrize("entry", SCALAR_ENTRIES + BATCH_ENTRIES, ids=lambda f: f.__name__)
    def test_underflowing_depth_max_rejected(self, params7, entry):
        # 2*ratio**depth_max == 0 would certify an unresolved point as exact
        assert 2.0 * params7.image_ratio**2000 == 0.0
        with pytest.raises(ParameterError, match="underflows"):
            _call(entry, 0j, params7, 2000)


class TestLiteralOracle:
    def test_recursive_matches_stage_composition(self, params7):
        rng = RNG(12)
        z = rng.uniform(-1.3, 1.3, 400) + 1j * rng.uniform(-1.3, 1.3, 400)
        lit, resolved = literal_phi(z, params7, 3)
        vals, _, errs = phi_batch(z, params7, 3)
        dev = np.abs(vals - lit)
        assert dev[resolved].max() < 1e-10
        if (~resolved).any():
            assert (dev[~resolved] <= errs[~resolved]).all()

    def test_stage_targeted_branches(self, params7):
        # one point per branch per level, all resolved by construction
        zi = complex(params7.packing.centers[1])
        pts = []
        for J in [(), (2,), (4, 3)]:
            T = source_map(J, params7)
            pts += [T(zi + 0.99 * params7.r), T(zi + 0.5 * (1 + params7.sigma) * params7.r)]
        pts = np.asarray(pts)
        lit, resolved = literal_phi(pts, params7, 3)
        assert resolved.all()
        vals, _, _ = phi_batch(pts, params7, 3)
        assert np.abs(vals - lit).max() < 1e-10


class TestSeams:
    @pytest.mark.parametrize("gen", [1, 2, 3])
    def test_both_pieces_agree_on_seams(self, gen, params7):
        p = params7
        exp_in = 1.0 / p.K - 1.0
        theta = np.linspace(0.0, 2 * math.pi, 100, endpoint=False)
        chains = [(), (3,), (5, 1)][: gen]
        J = chains[gen - 1]
        T_img = image_map(J, p)
        for i in (0, 4):
            zi = p.packing.centers[i]
            inner = zi + p.sigma * p.r * np.exp(1j * theta)
            linear = zi + p.sigma**exp_in * (inner - zi)
            radial = zi + (np.abs(inner - zi) / p.r) ** exp_in * (inner - zi)
            assert np.abs(T_img(linear) - T_img(radial)).max() < 1e-12
            outer = zi + p.r * np.exp(1j * theta)
            radial_out = zi + (np.abs(outer - zi) / p.r) ** exp_in * (outer - zi)
            assert np.abs(T_img(radial_out) - T_img(outer)).max() < 1e-12


class TestInverse:
    def test_identity_off_unit_disk(self, params7):
        res = phi_inverse(3 - 1j, params7)
        assert res.value == 3 - 1j and res.err_bound == 0.0

    def test_k1_identity(self, params7_k1):
        rng = RNG(5)
        z = rng.uniform(-1.2, 1.2, 200) + 1j * rng.uniform(-1.2, 1.2, 200)
        vals, _, _ = phi_inverse_batch(z, params7_k1, 40)
        assert np.abs(vals - z).max() < 1e-12

    def test_round_trip_terminated(self, params7):
        rng = RNG(6)
        z = rng.uniform(-1.2, 1.2, 500) + 1j * rng.uniform(-1.2, 1.2, 500)
        fwd, _, ferr = phi_batch(z, params7, 40)
        terminated = ferr == 0.0
        back, _, berr = phi_inverse_batch(fwd[terminated], params7, 40)
        ok = berr == 0.0
        assert np.abs(back[ok] - z[terminated][ok]).max() < 1e-10

    def test_image_centers_pull_back(self, params7):
        for J in [(1,), (4, 2), (0, 6, 3)]:
            res = phi_inverse(image_map(J, params7)(0), params7, 40)
            target = source_map(J, params7)(0)
            assert abs(res.value - target) <= res.err_bound + 1e-10


class TestJacobian:
    def test_identity_region(self, params7):
        assert jacobian(2 + 2j, params7) == 1.0

    def test_annulus_outer_limit(self, params7):
        zi = complex(params7.packing.centers[3])
        val = jacobian(zi + params7.r * (1 - 1e-9), params7)
        assert val == pytest.approx(1.0 / params7.K, rel=1e-8)

    def test_annulus_formula_at_rho_one(self, params7):
        # the closed form itself, evaluated at the outer seam radius
        assert (1.0 / params7.K) * 1.0 ** (2 * (1 / params7.K - 1)) == 0.5

    def test_first_descent_flat_value(self, params7):
        p = params7
        zi = complex(p.packing.centers[2])
        # frame point far from every sub-disk: flat at one descent
        frame = 0.5 * (p.packing.centers[3] + p.packing.centers[4])
        z = zi + p.source_ratio * complex(frame)
        expected = p.sigma ** (2.0 * (1.0 / p.K - 1.0))
        assert jacobian(z, p) == pytest.approx(expected, rel=1e-12)

    def test_seam_returns_none(self, params7):
        zi = complex(params7.packing.centers[1])
        assert jacobian(zi + params7.r, params7) is None
        assert jacobian(zi + params7.sigma * params7.r, params7) is None

    def test_seam_band_is_undefined(self, params7):
        # the band is SEAM_RTOL = 1e-12 wide, relative to the seam circle's radius
        zi = complex(params7.packing.centers[1])
        ring = np.exp(1j * (0.1 + np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)))
        for radius in (params7.r, params7.sigma * params7.r):
            for rel, defined in ((5e-13, False), (2e-12, True)):
                for side in (-1.0, 1.0):
                    z = zi + radius * (1.0 + side * rel) * ring
                    assert (np.isfinite(jacobian_batch(z, params7)) == defined).all()
                    for w in z:
                        assert (jacobian(complex(w), params7) is not None) == defined

    def test_depth_exhaustion_returns_none(self, params7):
        assert jacobian(0j, params7, depth_max=5) is None

    def test_batch_matches_scalar(self, params7):
        rng = RNG(8)
        z = rng.uniform(-1.1, 1.1, 200) + 1j * rng.uniform(-1.1, 1.1, 200)
        batch = jacobian_batch(z, params7, 16)
        for k in range(z.size):
            val = jacobian(complex(z[k]), params7, 16)
            if val is None:
                assert math.isnan(batch[k])
            else:
                assert batch[k] == pytest.approx(val, rel=1e-13)

    def test_finite_difference_match(self, params100):
        p = params100
        rng = RNG(21)
        z = rng.uniform(-1.05, 1.05, 4000) + 1j * rng.uniform(-1.05, 1.05, 4000)
        depth, fdist, branch = terminal_info(z, p, 12)
        margin = np.minimum(np.abs(fdist - p.r), np.abs(fdist - p.sigma * p.r))
        keep = (branch != 2) & (margin > 1e-4) & (depth <= 2)
        z = z[keep]
        jac = jacobian_batch(z, p, 12)
        scale = (p.source_ratio ** depth[keep].astype(float)) * p.r
        h = 1e-6 * scale
        dz, dzbar = fd_derivatives(p, z, h)
        jac_fd = np.abs(dz) ** 2 - np.abs(dzbar) ** 2
        assert np.abs(jac_fd / jac - 1.0).max() < 1e-4

    def test_distortion_at_annulus_and_flat(self, params100):
        p = params100
        rng = RNG(22)
        zi = p.packing.centers[rng.integers(0, p.m, 500)]
        rho = rng.uniform(p.sigma + 0.1 * (1 - p.sigma), 1 - 0.1 * (1 - p.sigma), 500)
        ang = rng.uniform(0, 2 * math.pi, 500)
        z = zi + rho * p.r * np.exp(1j * ang)
        dz, dzbar = fd_derivatives(p, z, 1e-6 * p.r)
        dist = (np.abs(dz) + np.abs(dzbar)) / (np.abs(dz) - np.abs(dzbar))
        assert np.abs(dist - p.K).max() < 1e-3 * p.K
        flat = np.asarray([2.0 + 0j, 0.5 * (zi[0] + zi[1])])
        dzf, dzbarf = fd_derivatives(p, flat, 1e-6)
        distf = (np.abs(dzf) + np.abs(dzbarf)) / (np.abs(dzf) - np.abs(dzbarf))
        assert np.abs(distf - 1.0).max() < 1e-6


class TestLpMassClosedForm:
    def test_p1_is_area_of_unit_disk(self, params7, params100):
        for p in (params7, params100):
            rep = lp_mass_closed_form(1.0, p)
            assert rep.total == pytest.approx(math.pi, abs=1e-12)

    def test_k1_any_p_is_pi(self, params7_k1):
        for pp in (1.0, 1.7, 3.0, 10.0):
            rep = lp_mass_closed_form(pp, params7_k1)
            assert rep.total == pytest.approx(math.pi, abs=1e-12)
            assert rep.converges and not rep.critical

    def test_gamma_definition(self, params7):
        rep = lp_mass_closed_form(1.5, params7)
        assert rep.gamma == pytest.approx(2 * 1.5 * (1 / 2 - 1) + 2, abs=1e-15)

    def test_level_constant_against_quadrature(self, params7):
        # independent oracle: integrate the raw one-step Jacobian power
        p = params7
        for pp in (1.0, 1.3, 2.5):
            rep = lp_mass_closed_form(pp, p)
            integrand = lambda rho: (
                (1.0 / p.K) * rho ** (2.0 * (1.0 / p.K - 1.0))
            ) ** pp * 2.0 * math.pi * rho
            ann, _ = quad(integrand, p.sigma, 1.0, epsabs=1e-13, epsrel=1e-13)
            oracle = math.pi * (1 - p.c_m) + p.m * p.r**2 * ann
            assert rep.level_constant == pytest.approx(oracle, rel=1e-10)

    def test_critical_detection_and_limit_agreement(self, params7):
        crit = params7.K / (params7.K - 1.0)
        rep = lp_mass_closed_form(crit, params7)
        assert rep.critical and rep.gamma == pytest.approx(0.0, abs=1e-12)
        assert rep.converges  # c_m < 1 makes the critical series geometric
        near = lp_mass_closed_form(crit - 1e-9, params7)
        assert near.level_constant == pytest.approx(rep.level_constant, rel=1e-6)
        assert near.total == pytest.approx(rep.total, rel=1e-6)

    def test_divergence_above_critical(self):
        p = derive_params(0.7, 2.0, build_packing(100))
        rep = lp_mass_closed_form(2.1, p)
        assert not rep.converges and rep.total == math.inf
        assert rep.level_ratio > 1.0
        diffs = np.diff(rep.partial_sums)
        assert (diffs[1:] / diffs[:-1] > 1.0).all()

    def test_partial_sums_nondecreasing(self, params100):
        rep = lp_mass_closed_form(1.5, params100)
        assert all(b >= a for a, b in zip(rep.partial_sums, rep.partial_sums[1:]))

    def test_rejects_p_below_one(self, params7):
        with pytest.raises(ParameterError):
            lp_mass_closed_form(0.5, params7)


#: SHA-256 of ``(estimate, stderr, undefined_fraction)`` from both Monte Carlo
#: methods at p in {1, 1.5} over four layouts, so that a rewrite of the
#: sampler must reproduce every bit.  At t = 1.9, m = 217 about a quarter of
#: the template draws land outside the generating disks, so the stratified
#: sampler redraws several times per generation.  Captured with NumPy 2.4.6 on
#: x86-64: a digest that breaks after a NumPy or CPU change, with the sampler
#: unchanged, is recaptured, not mended.
LP_MASS_DIGEST = "88aa35d911e85f32fa97290f7ad597c9315b86119fe158231d7d54d39a368ce3"


class TestLpMassMonteCarlo:
    def test_digest(self):
        h = hashlib.sha256()
        for t, m in ((1.0, 7), (1.0, 19), (1.0, 100), (1.9, 217)):
            p = derive_params(t, 2.0, build_packing(m))
            for method in ("uniform", "stratified"):
                for pp in (1.0, 1.5):
                    est = lp_mass_monte_carlo(pp, p, 20000, 5, seed=m, method=method)
                    h.update(repr((est.estimate, est.stderr, est.undefined_fraction)).encode())
        assert h.hexdigest() == LP_MASS_DIGEST

    def test_k1_estimates_pi(self, params7_k1):
        est = lp_mass_monte_carlo(1.0, params7_k1, 20000, 6, seed=3, method="uniform")
        assert abs(est.estimate - math.pi) <= max(3 * est.stderr, 1e-9)

    def test_stratified_matches_truncated_closed_form(self, params100):
        closed = lp_mass_closed_form(1.0, params100, n_max=6)
        ref = closed.partial_sums[-1]
        est = lp_mass_monte_carlo(1.0, params100, 10**5, 6, seed=7)
        assert abs(est.estimate - ref) <= max(4 * est.stderr, 0.01 * ref)
        assert est.undefined_fraction == 0.0

    def test_stratified_stderr_matches_the_spread(self, params7):
        # over fixed seeds, z = (estimate - truncated closed form) / stderr has
        # a root mean square near 1 (40 draws: 1 +- 0.11 for a unit normal)
        depth = 4
        ref = lp_mass_closed_form(1.5, params7, n_max=depth).partial_sums[depth - 1]
        z = []
        for seed in range(40):
            est = lp_mass_monte_carlo(1.5, params7, 2000, depth, seed=seed)
            z.append((est.estimate - ref) / est.stderr)
        assert 0.7 <= math.sqrt(np.mean(np.square(z))) <= 1.4

    def test_uniform_undefined_fraction_bound(self, params7):
        depth = 2
        est = lp_mass_monte_carlo(1.0, params7, 20000, depth, seed=11, method="uniform")
        exact = unresolved_area(params7, depth) / math.pi
        slack = 5.0 * math.sqrt(exact / est.samples)
        assert est.undefined_fraction <= exact + slack
        assert est.excluded_area == pytest.approx(math.pi * exact)

    def test_rejects_samples_too_few_for_a_stderr(self, params7):
        # every generation needs two draws, or the stratified stderr omits its variance
        depth = 4
        with pytest.raises(ParameterError, match=r"samples must be >= 2\*depth_max = 8, got 7"):
            lp_mass_monte_carlo(1.5, params7, 2 * depth - 1, depth, seed=0)
        with pytest.raises(ParameterError, match="uniform samples must be >= 2, got 1"):
            lp_mass_monte_carlo(1.5, params7, 1, depth, seed=0, method="uniform")
        est = lp_mass_monte_carlo(1.5, params7, 2 * depth, depth, seed=0)
        assert est.samples == 2 * depth and math.isfinite(est.stderr)

    def test_deterministic_given_seed(self, params7):
        a = lp_mass_monte_carlo(1.5, params7, 5000, 4, seed=42)
        b = lp_mass_monte_carlo(1.5, params7, 5000, 4, seed=42)
        assert a.estimate == b.estimate and a.stderr == b.stderr


class TestGluedMap:
    def _two_piece_spec(self):
        t, K = 1.0, 2.0
        p7 = derive_params(t, K, build_packing(7))
        p19 = derive_params(t, K, build_packing(19))
        return make_glued_spec(
            [
                GluedPiece(Disk(-0.45 + 0j, 0.1), p7),
                GluedPiece(Disk(0.4 + 0.2j, 0.045), p19),
            ]
        )

    def test_identity_off_hosts(self):
        spec = self._two_piece_spec()
        for z in (0j, 0.8 + 0.1j, -0.1 - 0.6j, 2 + 2j):
            res = glued_map(z, spec)
            assert res.value == z and res.err_bound == 0.0

    def test_single_piece_unit_host_reduces_to_phi(self, params7):
        spec = GluedMapSpec(pieces=(GluedPiece(Disk(0j, 1.0), params7),))
        rng = RNG(4)
        for _ in range(50):
            z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            a = glued_map(z, spec, depth_max=20)
            b = phi(z, params7, depth_max=20)
            assert a.value == b.value and a.err_bound == b.err_bound

    def test_pieces_are_rescaled_single_maps(self):
        spec = self._two_piece_spec()
        rng = RNG(14)
        for piece in spec.pieces:
            host = piece.host
            u = 0.9 * (rng.uniform(-0.7, 0.7, 40) + 1j * rng.uniform(-0.7, 0.7, 40))
            z = host.center + host.radius * u
            for zk, uk in zip(z, u):
                res = glued_map(complex(zk), spec, depth_max=24)
                ref = phi(complex(uk), piece.params, depth_max=24)
                expected = host.center + host.radius * ref.value
                assert abs(res.value - expected) < 1e-14
                assert res.err_bound == pytest.approx(host.radius * ref.err_bound)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.3), complex(0.1, math.inf)])
    def test_rejects_non_finite_point(self, bad):
        # a non-finite point lies on no host, so only an up-front check sees it
        with pytest.raises(ParameterError, match="must be finite"):
            glued_map(bad, self._two_piece_spec())

    @pytest.mark.parametrize("z", [0.1 + 0.0j, -0.45 + 0.0j], ids=["off-host", "on-host"])
    def test_rejects_bad_depth_wherever_the_point_lies(self, z):
        spec = self._two_piece_spec()
        with pytest.raises(ParameterError, match="depth_max must be >= 1"):
            glued_map(z, spec, depth_max=0)
        with pytest.raises(ParameterError, match="underflows"):
            glued_map(z, spec, depth_max=2000)

    def test_holder_constants_below_one(self):
        spec = self._two_piece_spec()
        assert all(c < 1.0 for c in spec.holder_constants())

    def test_rejects_dense_piece(self):
        p7 = derive_params(1.0, 2.0, build_packing(7))
        with pytest.raises(ParameterError, match="m_j"):
            make_glued_spec([GluedPiece(Disk(0j, 0.5), p7)])

    def test_rejects_overlapping_hosts(self):
        p7 = derive_params(1.0, 2.0, build_packing(7))
        p19 = derive_params(1.0, 2.0, build_packing(19))
        with pytest.raises(ParameterError, match="overlap"):
            make_glued_spec(
                [
                    GluedPiece(Disk(0j, 0.1), p7),
                    GluedPiece(Disk(0.05 + 0j, 0.04), p19),
                ]
            )

    def test_rejects_nondecreasing_deficit(self):
        p7 = derive_params(1.0, 2.0, build_packing(7))
        p19 = derive_params(1.0, 2.0, build_packing(19))
        with pytest.raises(ParameterError, match="decrease"):
            make_glued_spec(
                [
                    GluedPiece(Disk(-0.45 + 0j, 0.04), p19),
                    GluedPiece(Disk(0.4 + 0j, 0.1), p7),
                ]
            )
