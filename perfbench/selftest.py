"""Self-test of the benchmark: ``python3 perfbench/selftest.py`` from the checkout root.

Runs every workload briefly, untraced and traced, and checks that the
result line carries exactly the metrics of ``BENCHMARK.json`` with their
units, that the report line carries the workload's named metrics, that
every operation passed, and that the exact counts repeat in a second traced
run with the same seed.  It then checks that a wrong CLI digest makes
``failed`` non-zero and that a directory holding only ``BENCHMARK.json``
and ``perfbench/`` makes the benchmark exit non-zero without a result.
Takes about five minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp" / "selftest"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NOTES = json.loads((HERE / "metrics.json").read_text())
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def run(workload: str, trace: int, root: Path = ROOT, seed: int = 1):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def check_run(workload: str, trace: int) -> dict:
    proc, lines = run(workload, trace)
    tag = f"{workload} --trace {trace}"
    expect(proc.returncode == 0 and len(lines) >= 3, f"{tag}: exit 0 with record, report and result")
    if proc.returncode != 0 or len(lines) < 3:
        print(proc.stderr[-2000:])
        return {}
    record, report, result = (json.loads(line) for line in lines[-3:])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag}: {result['failed']} of {result['attempted']} operations failed {report.get('failures')}")
    wanted = {d["name"]: d["unit"] for d in BENCH["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    expect(set(got) == set(wanted), f"{tag}: metric names match BENCHMARK.json")
    expect(all(got[k]["unit"] == u and isinstance(got[k]["value"], (int, float))
               and math.isfinite(got[k]["value"]) for k, u in wanted.items() if k in got),
           f"{tag}: every metric has its unit and a finite value")
    if not trace:
        expect(all(got[d["name"]]["value"] != 0 for d in BENCH["end_to_end"] if d["name"] in got),
               f"{tag}: no end-to-end metric reads 0")
    named = {k: v["unit"] for k, v in NOTES["report"].items() if workload in v["workloads"]}
    if trace:
        named.pop("setup_s")
        named.pop("peak_rss_mb")
    rep = report["report"]
    expect(all(k in rep and rep[k]["unit"] == u for k, u in named.items()),
           f"{tag}: report names {sorted(named)} with units")
    expect(all(k in record["record"] for k in ("nproc", "cpu_model", "python", "numpy", "scipy",
                                              "seed", "trace")), f"{tag}: machine and seed record")
    return got


def main() -> int:
    exact = [k for k, v in NOTES["per_layer"].items() if v["exact"]]
    expect(set(NOTES["per_layer"]) == {d["name"] for d in BENCH["per_layer"]},
           "metrics.json annotates exactly the per-layer metrics of BENCHMARK.json")
    for workload in [w["name"] for w in BENCH["workloads"]]:
        check_run(workload, 0)
        first = check_run(workload, 1)
        if workload != "cli" and first:
            again = check_run(workload, 1)
            if again:
                expect(all(first[k]["value"] == again[k]["value"] for k in exact),
                       f"{workload}: exact counts repeat {[(k, first[k]['value']) for k in exact]}")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    copy = SCRATCH / "corrupt"
    for part in ("src", "perfbench", "BENCHMARK.json"):
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, copy / part)
    digests = json.loads((copy / "perfbench" / "cli_digests.json").read_text())
    digests["sha256"][0] = "0" * 64
    (copy / "perfbench" / "cli_digests.json").write_text(json.dumps(digests))
    proc, lines = run("cli", 0, root=copy)
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    report = json.loads(lines[-2])["report"] if result else {}
    expect(bool(result) and result["failed"] >= 1 and not result["correct"]
           and report["failed_frac"]["value"] > 0, "cli: one wrong digest makes failed_frac non-zero")

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc, lines = run("map_eval", 0, root=bare)
    expect(proc.returncode != 0 and not any(line.startswith('{"correct"') for line in lines),
           "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    if not any((ROOT / ".perfbench_tmp").iterdir()):
        (ROOT / ".perfbench_tmp").rmdir()

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
