"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from cantorqc import (
    HolderConfig,
    ParameterError,
    build_counterexample,
    build_packing,
    derive_params,
    generation_centers,
    holder_estimate,
    image_map,
    lp_mass_closed_form,
    lp_mass_monte_carlo,
    packing_condition_check,
    phi_batch,
    phi_map_fn,
    terminal_info,
    verify_counterexample,
)
import criterion12
from cantorqc.verify import box_dimension, generation_disk_growth
from fdtools import fd_derivatives
from oracle_composition import literal_phi


def _verdict(num, text):
    print(f"\n[criterion {num:02d}] {text}: PASS")


@pytest.fixture(scope="module")
def p7():
    return derive_params(1.0, 2.0, build_packing(7))


@pytest.fixture(scope="module")
def p100():
    return derive_params(1.0, 2.0, build_packing(100))


def test_criterion_01_parameter_identities():
    packing = build_packing(200)
    ts = np.linspace(0.1, 1.9, 20)
    Ks = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]
    checked = 0
    for t in ts:
        for K in Ks:
            p = derive_params(float(t), K, packing)
            t_prime = 2.0 * K * t / (2.0 + (K - 1.0) * t)
            assert abs(p.t_prime - t_prime) <= 1e-12 * max(1.0, t_prime)
            h1 = t / t_prime
            h2 = 1.0 / K + (K - 1.0) * t / (2.0 * K)
            assert abs(h1 - h2) <= 1e-12 * max(1.0, h1)
            assert abs(p.holder_exp - h1) <= 1e-12
            d1 = math.log(p.m) / math.log(1.0 / p.image_ratio)
            d2 = 1.0 / (
                1.0 / t_prime
                + (K - 1.0) / (2.0 * K) * math.log(1.0 / p.c_m) / math.log(p.m)
            )
            assert abs(d1 - d2) <= 1e-12 * max(1.0, d1)
            assert abs(p.dim_image - d1) <= 1e-12 * max(1.0, d1)
            checked += 1
    assert checked == 200
    _verdict(1, f"parameter identities agree to 1e-12 on {checked} (t, K) pairs")


def test_criterion_02_identity_cases(p7, p100):
    p_k1 = derive_params(1.0, 1.0, build_packing(7))
    rng = np.random.default_rng(202)
    z = rng.uniform(-2.0, 2.0, 10**4) + 1j * rng.uniform(-2.0, 2.0, 10**4)
    vals, _, err = phi_batch(z, p_k1, 48)
    dev = np.abs(vals - z).max()
    assert dev <= 1e-12 and err.max() <= 1e-12
    for params in (p7, p100, p_k1):
        rep = lp_mass_closed_form(1.0, params)
        assert abs(rep.total - math.pi) <= 1e-9
    _verdict(2, f"K=1 identity to {dev:.2e} on 1e4 points; p=1 mass = pi to 1e-9")


def test_criterion_03_oracle_equivalence(p7):
    rng = np.random.default_rng(303)
    z = rng.uniform(-1.3, 1.3, 1000) + 1j * rng.uniform(-1.3, 1.3, 1000)
    lit, resolved = literal_phi(z, p7, 3)
    vals, _, errs = phi_batch(z, p7, 3)
    dev = np.abs(vals - lit)
    assert resolved.sum() >= 990
    max_resolved = dev[resolved].max()
    assert max_resolved <= 1e-10
    if (~resolved).any():
        assert (dev[~resolved] <= errs[~resolved]).all()
    _verdict(
        3,
        f"recursive phi equals literal g3.g2.g1 to {max_resolved:.2e} "
        f"({int(resolved.sum())}/1000 resolved; rest within certificates)",
    )


def test_criterion_04_center_mapping(p7):
    worst = 0.0
    count = 0
    for n in (0, 1, 2, 3):
        centers_src = generation_centers(n, "source", p7)
        centers_img = generation_centers(n, "image", p7)
        vals, _, errs = phi_batch(centers_src, p7, 40)
        dev = np.abs(vals - centers_img)
        assert (dev <= errs + 1e-10).all()
        worst = max(worst, float((dev - errs).max()))
        count += centers_src.size
    _verdict(4, f"{count} source centers map onto image centers (worst slack {worst:.2e})")


def test_criterion_05_seam_continuity(p7):
    exp_in = 1.0 / p7.K - 1.0
    theta = np.linspace(0.0, 2 * math.pi, 1000, endpoint=False)
    worst = 0.0
    for gen, chains in ((1, [()]), (2, [(0,), (3,), (6,)]), (3, [(1, 2), (4, 5), (6, 0)])):
        for J in chains:
            T = image_map(J, p7)
            for i in (0, 2, 5):
                zi = p7.packing.centers[i]
                inner = zi + p7.sigma * p7.r * np.exp(1j * theta)
                linear = zi + p7.sigma**exp_in * (inner - zi)
                radial = zi + (np.abs(inner - zi) / p7.r) ** exp_in * (inner - zi)
                worst = max(worst, float(np.abs(T(linear) - T(radial)).max()))
                outer = zi + p7.r * np.exp(1j * theta)
                radial_o = zi + (np.abs(outer - zi) / p7.r) ** exp_in * (outer - zi)
                worst = max(worst, float(np.abs(T(radial_o) - T(outer)).max()))
    assert worst <= 1e-12
    _verdict(5, f"seam pieces agree to {worst:.2e} over generations 1-3")


def test_criterion_06_quasiconformality(p100):
    p = p100
    rng = np.random.default_rng(606)
    z = rng.uniform(-1.05, 1.05, 40000) + 1j * rng.uniform(-1.05, 1.05, 40000)
    depth, fdist, branch = terminal_info(z, p, 12)
    margin = np.minimum(np.abs(fdist - p.r), np.abs(fdist - p.sigma * p.r))
    keep = (branch != 2) & (depth <= 2) & (margin > 1e-3)
    z, depth = z[keep], depth[keep]
    assert z.size >= 10**4
    h = 1e-6 * p.r * p.source_ratio ** depth.astype(float)
    dz, dzbar = fd_derivatives(p, z, h)
    dist = (np.abs(dz) + np.abs(dzbar)) / (np.abs(dz) - np.abs(dzbar))
    assert dist.max() <= p.K * 1.001

    idx = rng.integers(0, p.m, 2000)
    rho = rng.uniform(p.sigma + 0.05 * (1 - p.sigma), 1 - 0.05 * (1 - p.sigma), 2000)
    ang = rng.uniform(0.0, 2 * math.pi, 2000)
    za = p.packing.centers[idx] + rho * p.r * np.exp(1j * ang)
    dza, dzbara = fd_derivatives(p, za, 1e-6 * p.r)
    dist_a = (np.abs(dza) + np.abs(dzbara)) / (np.abs(dza) - np.abs(dzbara))
    assert np.abs(dist_a - p.K).max() <= 1e-3 * p.K
    _verdict(
        6,
        f"distortion <= K*1.001 on {z.size} resolved points; "
        f"annulus distortion within {np.abs(dist_a - p.K).max():.1e} of K",
    )


def test_criterion_07_lp_mass(p100):
    lines = []
    for pp, seed in ((1.0, 7), (1.5, 8)):
        closed = lp_mass_closed_form(pp, p100, n_max=6)
        ref = closed.partial_sums[-1]
        mc = lp_mass_monte_carlo(pp, p100, 10**6, 6, seed=seed)
        diff = abs(mc.estimate - ref)
        assert diff <= 0.02 * ref
        assert diff <= 3.0 * mc.stderr
        lines.append(f"p={pp}: |MC-closed|/closed = {diff / ref:.2e}")
    # beyond the critical exponent the generation terms must grow: take t
    # small enough that sigma**gamma exceeds 1/c_m at p = K/(K-1) + 0.1
    p_div = derive_params(0.7, 2.0, build_packing(100))
    rep = lp_mass_closed_form(2.0 + 0.1, p_div)
    assert rep.level_ratio > 1.0
    assert not rep.converges and rep.total == math.inf
    increments = np.diff((0.0,) + rep.partial_sums)
    growth = increments[1:] / increments[:-1]
    assert (growth >= rep.level_ratio * (1 - 1e-12)).all() and (growth > 1.0).all()
    _verdict(
        7,
        "; ".join(lines)
        + f"; p=crit+0.1 terms grow by {rep.level_ratio:.3f} per generation (divergent)",
    )


def test_criterion_08_dimension():
    p13 = derive_params(1.0, 2.0, build_packing(13))
    src = box_dimension("source", p13, 4, seed=1)
    img = box_dimension("image", p13, 4, seed=1)
    assert abs(src.slope - p13.t) <= 0.05 and src.r2 >= 0.99
    assert abs(img.slope - p13.dim_image) <= 0.05 and img.r2 >= 0.99
    needed = None
    for m in (7, 19, 37, 61, 91, 127, 169, 217):
        try:
            pm = derive_params(1.0, 2.0, build_packing(m))
        except ParameterError:
            continue
        if pm.t_prime - pm.dim_image <= 0.1:
            needed = (m, pm.t_prime - pm.dim_image)
            break
    assert needed is not None
    _verdict(
        8,
        f"box slopes {src.slope:.3f}/{img.slope:.3f} vs {p13.t}/{p13.dim_image:.3f} "
        f"(±0.05); m = {needed[0]} already gives t' - dim_image = {needed[1]:.3f} <= 0.1",
    )


def test_criterion_09_holder(p100):
    cfg = HolderConfig(params=p100)
    rep = holder_estimate(phi_map_fn(p100, 40), p100.holder_exp, cfg, seed=909)
    adv = rep.regression_exponent_adversarial
    assert 0.70 <= adv <= 0.80
    assert adv > 1.0 / p100.K + 0.1
    doubled = holder_estimate(phi_map_fn(p100, 40), p100.holder_exp, cfg.scaled(2.0), seed=909)
    change = doubled.max_ratio / rep.max_ratio
    assert 0.9 <= change <= 1.1
    _verdict(
        9,
        f"adversarial exponent {adv:.4f} in [0.70, 0.80] (target 0.75), "
        f"max_ratio {rep.max_ratio:.3f} changes x{change:.3f} when pairs double",
    )


def test_criterion_10_packing_and_growth(p7):
    maxima = [
        packing_condition_check(N, p7.t, 300, seed=5, params=p7).max_ratio
        for N in (2, 3, 4)
    ]
    spread = max(maxima) / min(maxima)
    assert spread <= 2.0
    growth = generation_disk_growth(p7, tuple(range(1, 7)))
    rel = max(abs(v / growth[0] - 1.0) for v in growth)
    assert rel <= 1e-6
    _verdict(
        10,
        f"packing constant spread x{spread:.3f} over N in 2..4; "
        f"generation-disk growth constant varies by {rel:.1e}",
    )


def test_criterion_11_counterexample():
    alpha, K, t = 0.5, 2.0, 1.9
    spec = build_counterexample(alpha, K, t, N=2, depth_max=40, seed=0)
    t_prime = 2 * K * t / (2 + (K - 1) * t)
    eps_max_alt = ((t - alpha) * t_prime / t - 1.0) / 2.0
    assert spec.epsilon == pytest.approx(0.5 * eps_max_alt, rel=1e-12)
    assert spec.expected_f_exponent >= alpha
    report = verify_counterexample(spec, seed=0)
    assert report.measured_exponent >= alpha - 0.05
    assert report.dbar_max <= 1e-6
    assert report.residue_error <= 0.01 / math.pi
    assert report.residue_error < report.residue_error_near
    _verdict(
        11,
        f"m={spec.params.m}: eps={spec.epsilon:.6f} (inequality arithmetic), "
        f"measured f exponent {report.measured_exponent:.3f} >= {alpha - 0.05}, "
        f"dbar {report.dbar_max:.1e} <= 1e-6, residue error "
        f"{report.residue_error / (1 / math.pi):.2%} <= 1%",
    )


def test_criterion_12_cli_determinism(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text(criterion12.POINTS)
    base = [sys.executable, "-m", "cantorqc"]
    invocations = criterion12.invocations(str(pts))
    for argv in invocations:
        runs = [
            subprocess.run(base + argv, capture_output=True, timeout=600)
            for _ in range(2)
        ]
        for proc in runs:
            assert proc.returncode == 0, (argv, proc.stderr.decode())
        assert runs[0].stdout == runs[1].stdout, argv
    _verdict(12, f"{len(invocations)} seeded subcommands are byte-identical across runs")
