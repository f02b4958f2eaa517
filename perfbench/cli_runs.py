"""Workload ``cli``: fresh ``python -m cantorqc`` child processes, one at a time.

A round runs the 13 invocations of acceptance criterion 12, each in a new
interpreter, and checks exit code 0 and the SHA-256 of stdout against the
digests captured at the parent commit (``cli_digests.json``; the ROADMAP
requires these to never change).  It then streams a large seeded points file
through ``cantorqc eval --m 100`` once per ``--mode`` and checks the CSV
against the library's batch results for the same points.

The traced run adds what a child process cannot show: a bare interpreter,
``-X importtime`` of ``import cantorqc``, and ``cli.main`` run in process
(untraced, then traced) for the same invocations.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from common import Context, Outcome, closed_loop, metric, peak_rss_mb, percentile, run_child
from spans import Tracer, batch_time_inside, layer_metrics

SETUP_BODY = ""
SMALL_POINTS = "0.25,0.1\n-0.3,0.44\n2.0,0.0\n"
STREAM_POINTS = 200_000
STREAM_M = 100
MODES = ("phi", "inverse", "jacobian")
PROBE_REPEATS = 5
DIGESTS = Path(__file__).with_name("cli_digests.json")
SUBCOMMANDS = ("params", "disks", "eval", "lp-mass", "dimension", "holder", "packing",
               "growth", "cauchy", "glue")


def invocations(points: str) -> list[list[str]]:
    """The criterion-12 invocations; ``points`` is the three-point CSV file."""
    return [
        ["params", "--t", "1", "--K", "2", "--m", "19"],
        ["disks", "--t", "1", "--K", "2", "--m", "7", "--N", "2", "--side", "image",
         "--format", "csv"],
        ["eval", "--points", points, "--m", "19", "--depth", "24"],
        ["eval", "--points", points, "--m", "19", "--mode", "inverse"],
        ["eval", "--points", points, "--m", "19", "--mode", "jacobian"],
        ["lp-mass", "--p", "1.5", "--m", "19", "--samples", "5000", "--depth", "4",
         "--seed", "5"],
        ["lp-mass", "--p", "1.5", "--m", "19", "--samples", "5000", "--depth", "4",
         "--seed", "5", "--method", "uniform"],
        ["dimension", "--side", "image", "--N", "4", "--m", "7", "--seed", "3"],
        ["holder", "--t", "1", "--K", "2", "--m", "19", "--seed", "2"],
        ["packing", "--N", "2", "--m", "7", "--trials", "60", "--seed", "4"],
        ["growth", "--N", "3", "--m", "7", "--trials", "6", "--depth", "4",
         "--samples", "400", "--seed", "6"],
        ["cauchy", "--alpha", "0.5", "--K", "1", "--t", "1.6", "--N", "2", "--seed", "1"],
        ["glue", "--t", "1", "--K", "2", "--hosts=-0.45,0.0,0.1;0.4,0.2,0.045",
         "--piece-m", "7,19", "--points", points],
    ]


def stream_argv(points: str, mode: str) -> list[str]:
    return ["eval", "--points", points, "--m", str(STREAM_M), "--mode", mode]


def _write_points(ctx: Context) -> tuple[str, str, np.ndarray]:
    small = ctx.tmp / "small.csv"
    small.write_text(SMALL_POINTS)
    rng = np.random.default_rng(np.random.SeedSequence(ctx.seed))
    z = np.sqrt(rng.uniform(0.0, 1.0, STREAM_POINTS)) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, STREAM_POINTS))
    big = ctx.tmp / "stream.csv"
    big.write_text("".join(f"{float(x.real)!r},{float(x.imag)!r}\n" for x in z))
    return str(small), str(big), z


def _stream_ok(cq, path: Path, mode: str, z: np.ndarray) -> bool:
    """The streamed CSV equals the library's batch results, value for value."""
    p = cq.derive_params(1.0, 2.0, cq.build_packing(STREAM_M))
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[0] != z.size or not (
        np.array_equal(table[:, 0], z.real) and np.array_equal(table[:, 1], z.imag)
    ):
        return False
    if mode == "jacobian":
        return np.array_equal(table[:, 2], cq.jacobian_batch(z, p), equal_nan=True)
    fn = cq.phi_batch if mode == "phi" else cq.phi_inverse_batch
    vals, depth, err = fn(z, p)
    return bool(
        np.array_equal(table[:, 2], vals.real) and np.array_equal(table[:, 3], vals.imag)
        and np.array_equal(table[:, 4], depth) and np.array_equal(table[:, 5], err)
    )


def _importtime(ctx: Context) -> tuple[float, float]:
    """``(import cantorqc, of which scipy)`` in seconds, from ``-X importtime``."""
    proc, _ = run_child([sys.executable, "-X", "importtime", "-c", "import cantorqc"],
                        ctx.root, capture_output=True, text=True)
    if proc is None or proc.returncode != 0:
        raise RuntimeError("import cantorqc failed in a child interpreter")
    rows = []
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2]
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1]) / 1e6))
    # lines come children first; reversed, each parent precedes its imports
    total = scipy = 0.0
    stack: list[tuple[int, bool]] = []
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        under_scipy = bool(stack) and stack[-1][1]
        is_scipy = name.split(".")[0] == "scipy"
        if name == "cantorqc":
            total = cum
        if is_scipy and not under_scipy:
            scipy += cum
        stack.append((depth, under_scipy or is_scipy))
    return total, scipy


def run(ctx: Context, cq) -> Outcome:
    from cantorqc import cli

    small, big, z = _write_points(ctx)
    expected = json.loads(DIGESTS.read_text())["sha256"]
    calls = invocations(small)
    out = Outcome()
    stream_ref: dict[str, str] = {}
    base = [sys.executable, "-m", "cantorqc"]

    def one_round(n):
        walls = []
        for argv, digest in zip(calls, expected):
            proc, wall = run_child(base + argv, ctx.root, capture_output=True)
            walls.append(wall)
            ok = proc is not None and proc.returncode == 0 and hashlib.sha256(proc.stdout).hexdigest() == digest
            out.check(ok, f"cantorqc {argv[0]} exit/digest")
        stream = {}
        for mode in MODES:
            target = ctx.tmp / f"stream_{mode}.csv"
            with open(target, "wb") as sink:
                proc, wall = run_child(base + stream_argv(big, mode), ctx.root, stdout=sink)
            stream[mode] = wall
            digest = hashlib.sha256(target.read_bytes()).hexdigest()
            if proc is None or proc.returncode != 0:
                ok = False
            elif mode not in stream_ref:
                ok = _stream_ok(cq, target, mode, z)
                if ok:
                    stream_ref[mode] = digest
            else:
                ok = digest == stream_ref[mode]
            out.check(ok, f"cantorqc eval --mode {mode} stream")
        return {"walls": walls, "stream": stream, "round_s": sum(walls) + sum(stream.values())}

    rounds = closed_loop(ctx.seconds if not ctx.trace else 0.0, one_round)
    walls = [w for r in rounds for w in r["walls"]]
    hi = percentile(walls, 0.9)
    out.report["cli_p50_s"] = metric(statistics.median(walls), "s", samples=len(walls))
    out.report["cli_p90_s"] = metric(hi, "s", samples=len(walls), beyond=sum(w > hi for w in walls))
    out.report["eval_stream_kpts_s"] = metric(
        statistics.median([len(MODES) * STREAM_POINTS / sum(r["stream"].values()) / 1e3 for r in rounds]),
        "kpt/s", rounds=len(rounds), points=STREAM_POINTS)
    # each child counts with its fastest wall time over the rounds (contention only slows)
    round_s = sum(min(r["walls"][i] for r in rounds) for i in range(len(calls))) + sum(
        min(r["stream"][mode] for r in rounds) for mode in MODES)
    out.report["round_s"] = metric(round_s, "s", rounds=len(rounds),
                                   median_s=statistics.median(r["round_s"] for r in rounds))
    if not ctx.trace:
        out.metrics = {"round_s": round_s, "peak_rss_mb": peak_rss_mb(children=True)}
        return out

    # traced run: in-process cli.main, untraced then traced, for the same invocations
    argvs = calls + [stream_argv(big, mode) for mode in MODES]

    def in_process(tracer):
        times = []
        if tracer is not None:
            tracer.install()
        try:
            for argv in argvs:
                with open(ctx.tmp / "main.out", "w") as sink, contextlib.redirect_stdout(sink):
                    t0 = time.perf_counter()
                    code = cli.main(argv)
                    times.append(time.perf_counter() - t0)
                out.check(code == 0, f"cli.main {argv[0]} in process")
        finally:
            if tracer is not None:
                tracer.uninstall()
        return times

    in_process(None)  # first-use costs land here, not in the comparison below
    plain = in_process(None)
    tracer = Tracer()
    traced = in_process(tracer)
    spans = tracer.spans
    m = layer_metrics(spans)
    mains = [i for i, s in enumerate(spans) if s[0] == "cli.main" and s[3] < 0]
    per_sub = {sub: 0.0 for sub in SUBCOMMANDS}
    for argv, i in zip(calls, mains):
        per_sub[argv[0]] += spans[i][2] - spans[i][1]
    for sub, value in per_sub.items():
        m[f"cli.{sub}.s"] = value
    m["cli.eval_stream.io_s"] = sum(
        (spans[i][2] - spans[i][1]) - batch_time_inside(spans, i) for i in mains[len(calls):])
    first = rounds[0]["walls"]
    m["cli.startup_s"] = statistics.median(w - t for w, t in zip(first, plain))
    bare = []
    for _ in range(PROBE_REPEATS):
        _, wall = run_child([sys.executable, "-c", "pass"], ctx.root)
        bare.append(wall)
    m["cli.interpreter_s"] = statistics.median(bare)
    probes = [_importtime(ctx) for _ in range(PROBE_REPEATS)]
    m["cli.import_s"] = statistics.median(p[0] for p in probes)
    m["cli.import.scipy_s"] = statistics.median(p[1] for p in probes)
    m["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    out.metrics = m
    return out
