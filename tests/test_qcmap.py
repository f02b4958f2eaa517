import hashlib
import math
import tracemalloc

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
    jacobian,
    jacobian_batch,
    lp_mass_closed_form,
    lp_mass_monte_carlo,
    make_glued_spec,
    phi,
    phi_batch,
    phi_inverse,
    phi_inverse_batch,
    unresolved_area,
)
from cantorqc.qcmap import SEAM_RTOL, _descend, _template_points
from descent import assert_twins_agree, descents
from fdtools import fd_derivatives as _fd
from oracle_composition import chain, literal_phi
from test_golden import _chain, _configs, _disk

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
            res = phi(chain(J, params7, "source")[0], params7, depth_max=40)
            target = chain(J, params7, "image")[0]
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
            sa, sb = chain((i,), params7, "source")
            ia, ib = chain((i,), params7, "image")
            lhs, _, e1 = phi_batch(sa + sb * z, params7, 41)
            inner, _, e2 = phi_batch(z, params7, 40)
            rhs = ia + ib * inner
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
            assert (res.value, res.depth, res.err_bound) == (vals[k], depths[k], errs[k])


SCALAR_ENTRIES = (phi, phi_inverse, jacobian)
BATCH_ENTRIES = (phi_batch, phi_inverse_batch, jacobian_batch)


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


def _cylinders(params, ratio, n, rng):
    """``n`` points in seeded cylinders of radius about 1e-12 under ``ratio``."""
    k = round(math.log(1e-12) / math.log(ratio))
    a, s = _chain(params.packing.centers, rng.integers(0, params.m, (n, k)), ratio)
    return a + s * _disk(rng, n)


#: SHA-256 of the three batch outputs on the points of
#: ``test_signed_zero_frames_pinned``.  Captured with NumPy 2.4.6 on x86-64: a
#: digest that breaks after a NumPy or CPU change, with the descent
#: unchanged, is recaptured, not mended.
SIGNED_ZERO_DIGESTS = {
    7: "5570aaac8ecaefe94aba4bedc85d613440cc6c1ca797cba7607d7c8073da08c0",
    100: "5270771c316fcad731d0c702932228491a6a9f40adffcbe966b27deadb6d3e12",
    217: "323ab9330ea42781e0b14a2f147f337af34f30cd8a04f17edf74b6bdece65e69",
}


class TestBatchKernels:
    """Each point gets the same bits in any batch, which the kernels walk in
    blocks of 65,536 points, and from its scalar twin."""

    N = 2 * 65536 + 123

    @pytest.mark.parametrize("t, m", [(1.0, 7), (1.9, 217)])
    def test_outputs_do_not_depend_on_the_batch(self, t, m):
        p = derive_params(t, 2.0, build_packing(m))
        rng = RNG(m)
        half, quarter = self.N // 2, self.N // 4
        z = np.concatenate([
            _disk(rng, self.N - half),
            _cylinders(p, p.source_ratio, quarter, rng),
            _cylinders(p, p.image_ratio, half - quarter, rng),
        ])[rng.permutation(self.N)]
        cuts = [1, 65535, 65536, 65537, int(rng.integers(2, self.N - 1))]

        def outputs(entry, zs):
            out = entry(zs, p, 32)
            return out if isinstance(out, tuple) else (out,)

        for entry in BATCH_ENTRIES:
            whole = outputs(entry, z)
            for cut in cuts:
                parts = zip(outputs(entry, z[:cut]), outputs(entry, z[cut:]), whole)
                for head, tail, w in parts:
                    joined = np.concatenate([head, tail])
                    assert np.array_equal(joined.view(np.uint8), w.view(np.uint8)), (entry, cut)

    @pytest.mark.parametrize("t, m", [(1.0, 7), (1.0, 100), (1.9, 217)])
    def test_signed_zero_frames_pinned(self, t, m):
        # points whose frames hold signed zeros: both zeros on and off the
        # axes, and generation-1 and -2 centres of both sides, each also with
        # the signs of its zero parts flipped and a few ulp off along each axis
        p = derive_params(t, 2.0, build_packing(m))
        parts = np.array([0.0, -0.0, 0.3, -0.3, 0.5, -1.0, 1.0, 1.25])
        re, im = list(np.repeat(parts, parts.size)), list(np.tile(parts, parts.size))
        centres = [chain(J, p, side)[0] for side in ("source", "image")
                   for J in [(j,) for j in range(min(m, 12))] + [(1, 0), (m - 1, 2), (0, 0)]]
        flip = lambda v: -v if v == 0.0 else v  # noqa: E731  the other zero; others kept
        for c in centres:
            for x, y in ((c.real, c.imag), (flip(c.real), flip(c.imag)),
                         (c.real + 1e-15, c.imag), (c.real, c.imag + 1e-15)):
                re.append(x)
                im.append(y)
        z = np.empty(len(re), dtype=np.complex128)
        z.real, z.imag = re, im
        h = hashlib.sha256()
        for entry in BATCH_ENTRIES:
            out = entry(z, p, 32)
            for a in out if isinstance(out, tuple) else (out,):
                h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == SIGNED_ZERO_DIGESTS[m]

    def test_frames_change_no_level_distance_or_seam(self):
        # the Jacobian's descent keeps no frames; on every golden point family
        # it ends where the map's descent does, with the same distance bits
        for p, families, depth_max in _configs():
            zs = np.concatenate(families)
            for side in ("source", "image"):
                want_level, _, want_d, _, _, _, want_seam = _descend(zs, p, side, depth_max)
                level, x, d, idx, a, b, seam = _descend(zs, p, side, depth_max, frames=False)
                assert x is idx is a is b is None
                for got, want in ((level, want_level), (d, want_d), (seam, want_seam)):
                    assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), (side, depth_max)

    @pytest.mark.parametrize(
        "scalar, batch", zip(SCALAR_ENTRIES, BATCH_ENTRIES), ids=lambda f: f.__name__
    )
    def test_scalar_entry_points_return_the_batch_bits(self, scalar, batch):
        # every golden point at all 18 configurations: value, depth and
        # err_bound, and a None Jacobian where the batch gives NaN
        for p, families, depth_max in _configs():
            zs = np.concatenate(families)
            want = batch(zs, p, depth_max)
            got = [scalar(z, p, depth_max) for z in zs.tolist()]
            if batch is jacobian_batch:
                want, got = (want,), ([math.nan if j is None else j for j in got],)
            else:
                got = zip(*((res.value, res.depth, res.err_bound) for res in got))
            for g, w in zip(got, want):
                g = np.array(g, dtype=w.dtype)
                differ = (g.view(np.uint8) != w.view(np.uint8)).reshape(g.size, -1).any(axis=1)
                assert not differ.any(), (depth_max, zs[differ][:3])

    def test_blocking_bounds_memory(self, params100):
        # the per-point outputs take about 23 MB; temporaries of the whole
        # batch, not of one block, would take some 20 MB more
        z = _disk(RNG(4), 400_000)
        jacobian_batch(z[:8], params100)
        tracemalloc.start()
        try:
            jacobian_batch(z, params100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @pytest.mark.parametrize("entry", [phi_batch, phi_inverse_batch], ids=lambda f: f.__name__)
    def test_map_descent_peak_memory(self, params100, entry):
        # both maps peaked at 29.33 MB traced here (NumPy 2.4), most of it
        # per-point outputs; a block temporary kept alive across a level
        # of the descent, or one of the batch's size, shows above 5% more
        z = _disk(RNG(4), 400_000)
        entry(z[:8], params100)
        tracemalloc.start()
        try:
            entry(z, params100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * 29.33e6, peak


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
            a, b = chain(J, params7, "source")
            for u in (zi + 0.99 * params7.r, zi + 0.5 * (1 + params7.sigma) * params7.r):
                pts.append(a + b * u)
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
        a, b = chain(J, p, "image")
        for i in (0, 4):
            zi = p.packing.centers[i]
            inner = zi + p.sigma * p.r * np.exp(1j * theta)
            linear = zi + p.sigma**exp_in * (inner - zi)
            radial = zi + (np.abs(inner - zi) / p.r) ** exp_in * (inner - zi)
            assert np.abs((a + b * linear) - (a + b * radial)).max() < 1e-12
            outer = zi + p.r * np.exp(1j * theta)
            radial_out = zi + (np.abs(outer - zi) / p.r) ** exp_in * (outer - zi)
            assert np.abs((a + b * radial_out) - (a + b * outer)).max() < 1e-12


def _ulps_around(x: float, n: int = 8) -> list[float]:
    """The ``n`` floats below ``x`` and the ``n`` above it."""
    out, lo, hi = [], x, x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


class TestSeamUlps:
    """Where Python's ``abs`` and ``np.abs`` could fall on either side of a
    branch or of a seam band's edge, the scalar descent decides as the batch."""

    @pytest.mark.parametrize("side", ["source", "image"])
    @pytest.mark.parametrize("K", [1.0, 2.0])
    @pytest.mark.parametrize("t, m", [(1.0, 7), (1.0, 19), (1.9, 217)])
    def test_twins_agree_within_ulps_of_a_seam(self, t, m, K, side):
        # 1 to 8 ulp from the seam circles d = ratio and d = r and from the
        # edges of their bands, in the frame of level 0 to 3 of chains through
        # the origin centre and through random ones
        p = derive_params(t, K, build_packing(m))
        ratio, centers = p.ratio(side), p.packing.centers
        rng = RNG([m, int(K)])
        radii = np.array([
            x for rho in (ratio, p.r) for edge in (1.0 - SEAM_RTOL, 1.0, 1.0 + SEAM_RTOL)
            for x in _ulps_around(rho * edge)
        ])
        flagged = 0
        for level in range(4):
            chains = 3 if level else 0
            digits = np.vstack([np.zeros((1, level), int), rng.integers(0, m, (chains, level))])
            a, s = _chain(centers, digits, ratio)
            turns = np.exp(2j * math.pi * rng.uniform(size=radii.size))
            u = centers[rng.integers(0, m, radii.size)] + radii * turns
            z = (a[:, None] + s * u).ravel()
            assert_twins_agree(z, p, level + 1, side)
            flagged += int(_descend(z, p, side, level + 1)[-1].sum())
        # most points lie in a seam band, where the scalar kernel reads np.abs
        assert flagged >= 300


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
            res = phi_inverse(chain(J, params7, "image")[0], params7, 40)
            target = chain(J, params7, "source")[0]
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

    def test_finite_difference_match(self, params100):
        p = params100
        rng = RNG(21)
        z = rng.uniform(-1.05, 1.05, 4000) + 1j * rng.uniform(-1.05, 1.05, 4000)
        depth, _, fdist, _, _, _, _ = _descend(z, p, "source", 12)
        margin = np.minimum(np.abs(fdist - p.r), np.abs(fdist - p.sigma * p.r))
        keep = (margin > 1e-4) & (depth <= 2)
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

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_rejects_non_finite_p(self, params7, p):
        with pytest.raises(ParameterError, match=f"p must be finite and >= 1, got {p}"):
            lp_mass_closed_form(p, params7)
        with pytest.raises(ParameterError, match=f"p must be finite and >= 1, got {p}"):
            lp_mass_monte_carlo(p, params7, 100, 6, seed=0)


#: SHA-256 of ``(estimate, stderr, undefined_fraction)`` from both Monte Carlo
#: methods at p in {1, 1.5} over four layouts, so that a rewrite of the
#: sampler must reproduce every bit.  At t = 1.9, m = 217 about a quarter of
#: the template draws land outside the generating disks, so the stratified
#: sampler redraws several times per generation.  Captured with NumPy 2.4.6 on
#: x86-64: a digest that breaks after a NumPy or CPU change, with the sampler
#: unchanged, is recaptured, not mended.
LP_MASS_DIGEST = "88aa35d911e85f32fa97290f7ad597c9315b86119fe158231d7d54d39a368ce3"

#: The same at depth 6, the depth of criterion 7, on 60,000 samples per call
#: at the layouts the stratified sampler's rejection meets most and least
#: often (m = 100 and t = 1.9, m = 217), and at m = 7.
LP_MASS_DEPTH6_DIGEST = "03fe8c9c37c119bbf6332cded4f32f703c806ebfa485a7a7dc8d831bee59acda"


def _lp_mass_digest(layouts, samples, depth, seed):
    """SHA-256 of both methods' estimates at p in {1, 1.5}, seeded ``seed + m``."""
    h = hashlib.sha256()
    for t, m in layouts:
        p = derive_params(t, 2.0, build_packing(m))
        for method in ("uniform", "stratified"):
            for pp in (1.0, 1.5):
                est = lp_mass_monte_carlo(pp, p, samples, depth, seed=seed + m, method=method)
                h.update(repr((est.estimate, est.stderr, est.undefined_fraction)).encode())
    return h.hexdigest()


def _exact_template_points(rng, n, params):
    """The stratified sampler's template draws as they were taken before the
    clear-cell table: a nearest-centre lookup on every candidate."""
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


class TestLpMassMonteCarlo:
    @pytest.mark.parametrize("t, m", [(1.0, 7), (1.0, 19), (1.0, 100), (1.9, 217)])
    def test_template_points_match_the_exact_filter(self, t, m):
        p = derive_params(t, 2.0, build_packing(m))
        clear = p.packing._grid.clear_cells(p.sigma * p.r)
        for seed, n in ((m, 1), (m + 1, 300), (m + 2, 40000)):
            rng, ref = RNG(seed), RNG(seed)
            got, want = _template_points(rng, n, p, clear), _exact_template_points(ref, n, p)
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), (seed, n)
            # the same draws consumed, so the chain digits drawn next are the same
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_digest(self):
        layouts = ((1.0, 7), (1.0, 19), (1.0, 100), (1.9, 217))
        assert _lp_mass_digest(layouts, 20000, 5, 0) == LP_MASS_DIGEST

    def test_depth6_digest(self):
        layouts = ((1.0, 7), (1.0, 100), (1.9, 217))
        assert _lp_mass_digest(layouts, 60000, 6, 600) == LP_MASS_DEPTH6_DIGEST

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


def glued_oracle(z, spec, depth_max=32):
    """The glued map at one point by its definition, in plain Python:
    ``(value, depth, err_bound)`` of ``c + R*phi((z - c)/R)`` on the first
    host ``D(c, R)`` holding ``z``, of the identity off every host."""
    for piece in spec.pieces:
        c, R = piece.host.center, piece.host.radius
        if abs(z - c) < R:
            res = phi(complex((z - c) / R), piece.params, depth_max)
            return c + R * res.value, res.depth, R * res.err_bound
    return z, 0, 0.0


def _glued_spec(*hosts):
    """Pieces at m = 7 and m = 19 on the hosts ``(center, radius)``, t = 1, K = 2."""
    return make_glued_spec(
        [
            GluedPiece(Disk(c, R), derive_params(1.0, 2.0, build_packing(m)))
            for (c, R), m in zip(hosts, (7, 19))
        ]
    )


class TestGluedMap:
    def _two_piece_spec(self):
        # criterion 12's hosts
        return _glued_spec((-0.45 + 0j, 0.1), (0.4 + 0.2j, 0.045))

    def _assert_matches_oracle(self, zs, spec, depth_max=32):
        # repr tells signed zeros apart and round-trips every bit
        zs = np.asarray(zs, dtype=np.complex128)
        out = glued_map(zs, spec, depth_max)
        assert all(v.shape == zs.shape for v in out)
        got = zip(*(v.ravel().tolist() for v in out))
        for z, res in zip(zs.ravel().tolist(), got):
            assert repr(res) == repr(glued_oracle(z, spec, depth_max)), z

    def test_matches_the_oracle_on_and_off_the_hosts(self):
        spec = self._two_piece_spec()
        rng = RNG(26)
        for piece in spec.pieces:
            c, R = piece.host.center, piece.host.radius
            u = np.sqrt(rng.uniform(0.0, 1.0, 400)) * np.exp(2j * math.pi * rng.uniform(size=400))
            self._assert_matches_oracle(c + R * u, spec, depth_max=24)
        off = rng.uniform(-1.2, 1.2, 200) + 1j * rng.uniform(-1.2, 1.2, 200)
        self._assert_matches_oracle(off, spec)

    def test_matches_the_oracle_on_the_host_circles(self):
        # the circle points as rounded, and an ulp inside and outside in each part
        spec = self._two_piece_spec()
        turns = np.exp(2j * math.pi * np.arange(64) / 64)
        for piece in spec.pieces:
            on = piece.host.center + piece.host.radius * turns
            x, y = on.real, on.imag
            near = [on]
            for way in (-np.inf, np.inf):
                near += [np.nextafter(x, way) + 1j * y, x + 1j * np.nextafter(y, way)]
            pts = np.concatenate(near)
            inside = np.abs(pts - piece.host.center) < piece.host.radius
            assert 0 < inside.sum() < pts.size
            self._assert_matches_oracle(pts, spec)

    def test_matches_the_oracle_at_signed_zeros(self):
        # hosts centred on the axes, and points whose parts are the centres' zeros
        spec = _glued_spec((complex(-0.0, 0.0), 0.1), (complex(0.0, 0.5), 0.045))
        signs = (0.0, -0.0)
        pts = [complex(x, y) for x in signs for y in (*signs, 0.03, -0.05, 0.5, 0.52)]
        pts += [complex(x, y) for x in (0.02, -0.07, 0.01) for y in signs]
        self._assert_matches_oracle(pts, spec, depth_max=8)
        self._assert_matches_oracle(pts[:4], self._two_piece_spec())

    def test_matches_the_oracle_on_a_grid_and_on_no_points(self):
        # a 2-D input keeps its shape, an empty one too
        spec = self._two_piece_spec()
        grid = np.linspace(-0.56, 0.46, 60)[None, :] + 1j * np.linspace(-0.11, 0.25, 40)[:, None]
        for piece in spec.pieces:
            assert (np.abs(grid - piece.host.center) < piece.host.radius).sum() >= 10
        self._assert_matches_oracle(grid, spec, depth_max=24)
        self._assert_matches_oracle(np.empty((0, 3), dtype=np.complex128), spec)

    def test_identity_off_hosts(self):
        spec = self._two_piece_spec()
        zs = np.array([0j, 0.8 + 0.1j, -0.1 - 0.6j, 2 + 2j])
        values, depths, errs = glued_map(zs, spec)
        assert np.array_equal(values, zs) and not depths.any() and not errs.any()

    def test_single_piece_unit_host_reduces_to_phi(self, params7):
        spec = GluedMapSpec(pieces=(GluedPiece(Disk(0j, 1.0), params7),))
        xy = RNG(4).uniform(-1.2, 1.2, (50, 2))
        zs = xy[:, 0] + 1j * xy[:, 1]
        a, a_depths, a_errs = glued_map(zs, spec, depth_max=20)
        b, b_depths, b_errs = phi_batch(zs, params7, depth_max=20)
        assert np.array_equal(a, b) and np.array_equal(a_errs, b_errs)
        assert np.array_equal(a_depths, b_depths)

    def test_pieces_are_rescaled_single_maps(self):
        spec = self._two_piece_spec()
        rng = RNG(14)
        for piece in spec.pieces:
            host = piece.host
            u = 0.9 * (rng.uniform(-0.7, 0.7, 40) + 1j * rng.uniform(-0.7, 0.7, 40))
            # the host centre is the origin's image, which stays unresolved
            u = np.append(u, 0j)
            values, _, errs = glued_map(host.center + host.radius * u, spec, depth_max=24)
            assert errs[-1] > 0
            for value, err, uk in zip(values.tolist(), errs.tolist(), u.tolist()):
                ref = phi(uk, piece.params, depth_max=24)
                expected = host.center + host.radius * ref.value
                assert abs(value - expected) < 1e-14
                assert err == host.radius * ref.err_bound

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.3), complex(0.1, math.inf)])
    def test_rejects_non_finite_point(self, bad):
        # a non-finite point lies on no host, so only an up-front check sees it
        with pytest.raises(ParameterError, match="map points must be finite; point 1 is"):
            glued_map(np.array([-0.45 + 0j, bad, 0.1 + 0j]), self._two_piece_spec())

    @pytest.mark.parametrize("z", [0.1 + 0.0j, -0.45 + 0.0j], ids=["off-host", "on-host"])
    def test_rejects_bad_depth_wherever_the_point_lies(self, z):
        spec = self._two_piece_spec()
        with pytest.raises(ParameterError, match="depth_max must be >= 1"):
            glued_map(np.array([z]), spec, depth_max=0)
        with pytest.raises(ParameterError, match="underflows"):
            glued_map(np.array([z]), spec, depth_max=2000)

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
