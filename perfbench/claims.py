"""Workload ``claims``: the paper-verification experiments of acceptance criteria 7-11.

One round runs, at the acceptance test configurations: Monte Carlo p-mass
(m=100, 1e6 samples, depth 6, p=1 and 1.5), box counting (m=13, N=4, both
sides), Hölder estimation (m=100, base and doubled plan), the packing sweep
over N=2..4 and the integral-growth sweep (m=7), and the (alpha, K, t) =
(0.5, 2, 1.9), N=2 nonremovability counterexample, built and verified.

Every criterion threshold is checked on every round, against closed forms
the benchmark computes itself from (t, K, m, r).  Experiment seeds come from
the workload seed, except the p-mass runs: criterion 7 compares them with a
three-sigma z-test, which a correct program fails in about one run in 185 at
fresh seeds, so they keep the criterion's own seeds 7 and 8.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from common import Context, Outcome, closed_loop, metric, peak_rss_mb
from spans import Tracer, layer_metrics, setup_layout_s

SETUP_BODY = "\n".join(
    f"cantorqc.derive_params(1.0, 2.0, cantorqc.build_packing({m}))" for m in (100, 13, 7)
)
LP_SEEDS = {1.0: 7, 1.5: 8}


def _lp_closed_partial(p, t, K, m, r, generations=6):
    """Partial p-mass over ``generations`` levels, from the paper's level series."""
    c_m = m * r * r
    sigma = m ** (-1.0 / t) / r
    gamma = 2.0 * p * (1.0 / K - 1.0) + 2.0
    if K > 1.0 and abs(p - K / (K - 1.0)) <= 1e-12:
        ann, ratio = c_m * (2.0 * math.pi / K**p) * math.log(1.0 / sigma), c_m
    else:
        ann = c_m * (2.0 * math.pi / K**p) * abs((1.0 - sigma**gamma) / gamma)
        ratio = c_m * sigma**gamma
    level0 = math.pi * (1.0 - c_m) + ann
    return sum(level0 * ratio**k for k in range(generations))


def _t_prime(t, K):
    return 2.0 * K * t / (2.0 + (K - 1.0) * t)


def _dim_image(t, K, m, r):
    sigma = m ** (-1.0 / t) / r
    return math.log(m) / math.log(1.0 / (sigma ** (1.0 / K) * r))


def run(ctx: Context, cq) -> Outcome:
    from cantorqc import nonremovable, qcmap, verify

    (p100, p13, p7), layout_s = setup_layout_s(
        lambda: [cq.derive_params(1.0, 2.0, cq.build_packing(m)) for m in (100, 13, 7)], ctx.trace)
    s = [int(x) for x in np.random.SeedSequence(ctx.seed).generate_state(6)]
    out = Outcome()
    tracer = Tracer() if ctx.trace else None

    def timed(times, key, fn):
        t0 = time.perf_counter()
        result = fn()
        times[key] = time.perf_counter() - t0
        return result

    def one_round(n):
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        times, res = {}, {}
        try:
            for pp in (1.0, 1.5):
                res["lp", pp] = timed(times, f"lp_{pp}", lambda: qcmap.lp_mass_monte_carlo(
                    pp, p100, 10**6, 6, seed=LP_SEEDS[pp]))
            for side in ("source", "image"):
                res["box", side] = timed(times, f"box_{side}", lambda: verify.box_dimension(
                    side, p13, 4, seed=s[0]))
            cfg = verify.HolderConfig(params=p100)
            for plan, c in (("base", cfg), ("doubled", cfg.scaled(2.0))):
                res["holder", plan] = timed(times, f"holder_{plan}", lambda: verify.holder_estimate(
                    qcmap.phi_map_fn(p100, 40), p100.holder_exp, c, seed=s[1]))
            res["packing"] = timed(times, "packing", lambda: [
                verify.packing_condition_check(N, p7.t, 300, seed=s[2], params=p7) for N in (2, 3, 4)])
            res["growth"] = timed(times, "growth", lambda: verify.integral_growth_check(
                30, s[3], p7, depth=7, mc_samples=2000))
            spec = res["spec"] = timed(times, "build", lambda: nonremovable.build_counterexample(
                0.5, 2.0, 1.9, N=2, depth_max=40, seed=s[4]))
            res["report"] = timed(times, "verify", lambda: nonremovable.verify_counterexample(
                spec, seed=s[5]))
        finally:
            if traced:
                tracer.uninstall()
        rec = {"times": times, "traced": traced, "round_s": sum(times.values())}
        if traced:
            rec["layers"] = layer_metrics(tracer.spans)
        _check(res, p100, p13, p7, out)
        return rec

    rounds = closed_loop(ctx.seconds, one_round, min_rounds=2 if ctx.trace else 1)
    plain = [r for r in rounds if not r["traced"]]
    med = lambda xs: float(np.median(xs))  # noqa: E731
    claims_s = med([r["round_s"] for r in plain])
    out.report["claims_s"] = metric(claims_s, "s", rounds=len(plain))
    out.report["lp_mass_s"] = metric(
        med([r["times"]["lp_1.0"] + r["times"]["lp_1.5"] for r in plain]), "s", rounds=len(plain))
    out.report["counterexample_s"] = metric(
        med([r["times"]["build"] + r["times"]["verify"] for r in plain]), "s", rounds=len(plain))
    for key in plain[0]["times"]:
        out.report[f"claims.{key}_s"] = metric(med([r["times"][key] for r in plain]), "s")
    if ctx.trace:
        traced = [r for r in rounds if r["traced"]]
        out.metrics = {k: med([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        out.metrics["geometry.layout.s"] += layout_s
        out.metrics["trace.overhead_frac"] = med([r["round_s"] for r in traced]) / claims_s - 1.0
    else:
        out.metrics = {"round_s": claims_s, "peak_rss_mb": peak_rss_mb()}
    return out


def _check(res, p100, p13, p7, out: Outcome) -> None:
    """Criterion 7-11 thresholds, one operation per experiment."""
    from cantorqc.verify import generation_disk_growth

    r100 = p100.packing.r
    for pp in (1.0, 1.5):
        mc = res["lp", pp]
        ref = _lp_closed_partial(pp, 1.0, 2.0, 100, r100)
        diff = abs(mc.estimate - ref)
        out.check(diff <= 0.02 * ref and diff <= 3.0 * mc.stderr, f"lp_mass p={pp}: |MC-closed|={diff:.3g}")

    targets = {"source": 1.0, "image": _dim_image(1.0, 2.0, 13, p13.packing.r)}
    for side, target in targets.items():
        est = res["box", side]
        out.check(abs(est.slope - target) <= 0.05 and est.r2 >= 0.99, f"box_dimension {side}: {est.slope:.4f}")

    base, doubled = res["holder", "base"], res["holder", "doubled"]
    adv = base.regression_exponent_adversarial
    out.check(0.70 <= adv <= 0.80 and adv > 1.0 / 2.0 + 0.1, f"holder adversarial exponent {adv:.4f}")
    change = doubled.max_ratio / base.max_ratio
    out.check(0.9 <= change <= 1.1, f"holder doubled-plan change x{change:.3f}")

    maxima = [rep.max_ratio for rep in res["packing"]]
    out.check(max(maxima) / min(maxima) <= 2.0, f"packing spread {maxima}")

    grow = res["growth"]
    consts = generation_disk_growth(p7, tuple(range(1, 7)))
    exact = math.pi / 2.0 ** (2.0 * 1.0 / _t_prime(1.0, 2.0))
    out.check(
        math.isfinite(grow.max_normalized) and grow.max_normalized > 0
        and grow.max_undefined_fraction <= 0.05 and grow.flagged == 0
        and max(abs(v / exact - 1.0) for v in consts) <= 1e-6,
        f"integral growth {grow.max_normalized:.4g}",
    )

    spec, rep = res["spec"], res["report"]
    alpha, K, t = 0.5, 2.0, 1.9
    eps_alt = 0.5 * ((t - alpha) * _t_prime(t, K) / t - 1.0) / 2.0
    out.check(
        abs(spec.epsilon - eps_alt) <= 1e-12 * eps_alt and spec.expected_f_exponent >= alpha,
        f"build_counterexample epsilon {spec.epsilon}",
    )
    out.check(
        rep.measured_exponent >= alpha - 0.05 and rep.dbar_max <= 1e-6
        and rep.residue_error <= 0.01 / math.pi and rep.residue_error < rep.residue_error_near,
        f"verify_counterexample {dataclasses.asdict(rep)}",
    )
