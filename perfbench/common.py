"""Shared pieces of the benchmark: the run context, the closed loop, child
interpreters, set-up probes, statistics and the machine record."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Fresh interpreters per run used to time set-up (see :func:`setup_probe`).
SETUP_REPEATS = 5

#: Wall-clock limit for any one child interpreter.
CHILD_TIMEOUT_S = 150

#: What the calibration child of a set-up probe imports, and its typical
#: import time on the reference machine (2-core Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).
CALIBRATION_IMPORTS = "numpy, scipy.spatial"
CALIBRATION_REF_S = 0.5

@dataclass
class Context:
    root: Path
    tmp: Path
    seed: int
    seconds: float
    trace: bool


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    ``metrics`` holds the contract metrics of the run (end-to-end ones when
    untraced, per-layer ones when traced); ``report`` holds the workload's
    named metrics and diagnostics, each ``{"value": ..., "unit": ...}``.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str, count: int = 1) -> bool:
        """Count ``count`` operations, all failed when ``ok`` is false."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def metric(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def closed_loop(seconds: float, one_round, min_rounds: int = 1) -> list:
    """Run rounds back to back until the next one would end past ``seconds``.

    A round starts only while the elapsed time plus half the last round stays
    under the budget, so the loop ends as near the budget as the round length
    allows; at least ``min_rounds`` rounds run.
    """
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_round(len(results)))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(results) >= min_rounds and elapsed + last / 2 >= seconds:
            return results


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, root: Path, **kwargs) -> tuple[subprocess.CompletedProcess | None, float]:
    """Run one child to completion; returns ``(process or None on timeout, wall s)``."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=root, env=child_env(root), timeout=CHILD_TIMEOUT_S, **kwargs
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0
    return proc, time.perf_counter() - t0


def setup_probe(root: Path, body: str, repeats: int = SETUP_REPEATS) -> dict:
    """Time to ``import cantorqc`` and run ``body`` in a fresh interpreter, ``repeats`` times.

    Each probe is followed by a calibration child that imports numpy and
    scipy.spatial only.  Import speed on a shared machine drifts by a third
    between minutes, and both children drift together, so ``setup_s`` is the
    median of ``probe * CALIBRATION_REF_S / calibration`` over the pairs.
    """
    def timed_import(names: str, rest: str = "") -> float:
        code = f"import time\nt0 = time.perf_counter()\nimport {names}\n{rest}\nprint(repr(time.perf_counter() - t0))\n"
        proc, _ = run_child([sys.executable, "-c", code], root, capture_output=True, text=True)
        if proc is None or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr if proc else 'timeout'}")
        return float(proc.stdout.strip().splitlines()[-1])

    raw, cal = [], []
    for _ in range(repeats):
        raw.append(timed_import("cantorqc", body))
        cal.append(timed_import(CALIBRATION_IMPORTS))
    return {
        "setup_s": statistics.median(r * CALIBRATION_REF_S / c for r, c in zip(raw, cal)),
        "raw_s": statistics.median(raw),
        "calibration_s": statistics.median(cal),
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(ctx: Context, workload: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
