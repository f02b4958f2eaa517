"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  The package under test is imported from
``src/`` of that checkout; child interpreters get the same path.  Inputs
come from ``--seed`` only.  Standard output ends with three JSON lines:

* ``{"record": ...}``: machine, versions, workload, seed and tracing flag;
* ``{"report": ...}``: the workload's named metrics and diagnostics;
* the result: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
  end-to-end metrics of ``BENCHMARK.json`` untraced, its per-layer metrics
  traced), each metric as ``{"value": ..., "unit": ...}``.

The set-up time ``setup_s`` is the median over fresh interpreters of
``import cantorqc`` plus the workload's layout builds, each scaled by a
calibration child run next to it (``common.setup_probe``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

from common import Context, machine_record, metric, setup_probe

WORKLOADS = {"map_eval": "map_eval", "claims": "claims", "cli": "cli_runs"}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _definitions() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "cantorqc" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    defs = _definitions()
    ctx = Context(root=ROOT, tmp=ROOT / ".perfbench_tmp" / str(os.getpid()), seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace))
    workload = importlib.import_module(WORKLOADS[args.workload])
    setup = None if ctx.trace else setup_probe(ROOT, workload.SETUP_BODY)

    import cantorqc

    if Path(cantorqc.__file__).resolve().parent != package.parent.resolve():
        print(f"error: imported cantorqc from {cantorqc.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    ctx.tmp.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workload.run(ctx, cantorqc)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
        if ctx.tmp.parent.exists() and not any(ctx.tmp.parent.iterdir()):
            ctx.tmp.parent.rmdir()

    if setup is not None:
        outcome.metrics["setup_s"] = setup["setup_s"]
        outcome.report["setup_s"] = metric(setup["setup_s"], "s", raw_s=setup["raw_s"],
                                           calibration_s=setup["calibration_s"])
    if "peak_rss_mb" in outcome.metrics:
        outcome.report["peak_rss_mb"] = metric(outcome.metrics["peak_rss_mb"], "MB")
    outcome.report["failed_frac"] = metric(outcome.failed / outcome.attempted, "frac")
    wanted = defs["per_layer" if ctx.trace else "end_to_end"]
    if ctx.trace and args.workload != "cli":
        # the cli layers (child interpreters, cli.main) run only in the cli workload
        for d in wanted:
            if d["name"].startswith("cli."):
                outcome.metrics.setdefault(d["name"], 0.0)
    missing = [d["name"] for d in wanted if d["name"] not in outcome.metrics]
    if missing:
        print(f"error: workload produced no value for {missing}", file=sys.stderr)
        return 3
    metrics = {d["name"]: metric(outcome.metrics[d["name"]], d["unit"]) for d in wanted}
    print(json.dumps({"record": machine_record(ctx, args.workload)}))
    print(json.dumps({"report": outcome.report, "failures": outcome.failures},
                     default=lambda o: o.item()))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
