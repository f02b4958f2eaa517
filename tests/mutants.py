"""Mutation check for the claim checks: which tests catch each one-line mutant.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py               # every mutant
    python tests/mutants.py stderr seam   # the mutants whose names hold a word

Before running anything, every mutant's old text must occur exactly once in
its file.  Each mutant then gets its own copy of the checkout (without
``.git``) in a temporary directory, and the copy runs tier-1 without the
tests that only compare pinned outputs: ``test_golden.py``,
``test_no_scipy.py``, criterion 12 and the digest and pinned tests.  Those
would catch any change of output, right or wrong.  It also leaves out
``test_mutants.py``, which checks in tier-1 that every mutant still
applies.  A mutant that no other test catches survives; the exit status is
the number of survivors.  Each mutant takes about as long as that
selection, some 45 s on two cores.  The file name keeps pytest from
collecting this script.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``(name, file under src/cantorqc, old text, new text)``.
MUTANTS = [
    ("source ring exponent x 0.98", "qcmap.py",
     "return sr, q, 1.0 / params.K - 1.0",
     "return sr, q, 0.98 * (1.0 / params.K - 1.0)"),
    ("inverse ring exponent x 0.98", "qcmap.py",
     "return q, sr, params.K - 1.0",
     "return q, sr, 0.98 * (params.K - 1.0)"),
    ("Jacobian level factor x 1.02", "qcmap.py",
     "powers = np.full(int(level.max(initial=0)) + 1, params.sigma ** (2.0 * (1.0 / K - 1.0)))",
     "powers = np.full(int(level.max(initial=0)) + 1, 1.02 * params.sigma ** (2.0 * (1.0 / K - 1.0)))"),
    ("Jacobian ring factor x 1.02", "qcmap.py",
     "out[ring] = out[ring] * (1.0 / K) *",
     "out[ring] = out[ring] * 1.02 * (1.0 / K) *"),
    ("Laurent band orders - 8", "nonremovable.py",
     "_BAND_ORDERS = tuple(min(P, _series_order(float(r))) for r in _BAND_RATIOS)",
     "_BAND_ORDERS = tuple(max(0, min(P, _series_order(float(r))) - 8) for r in _BAND_RATIOS)"),
    ("unresolved err_bound x 0.01", "qcmap.py",
     "err = np.where(unresolved, 2.0 * affine**depth_max, 0.0)",
     "err = np.where(unresolved, 0.02 * affine**depth_max, 0.0)"),
    ("near-atom flag radius / 100", "nonremovable.py",
     "measure.nearest_atom_distance(zs) < measure.resolution / 2.0",
     "measure.nearest_atom_distance(zs) < measure.resolution / 200.0"),
    ("box-count offsets 32 -> 1", "verify.py",
     "offsets = rng.uniform(0.0, s, size=(32, 2))",
     "offsets = rng.uniform(0.0, s, size=(1, 2))"),
    ("SEAM_RTOL = 0", "qcmap.py",
     "SEAM_RTOL = 1e-12",
     "SEAM_RTOL = 0.0"),
    ("stratified stderr x 10", "qcmap.py",
     "stderr = math.sqrt(variance)",
     "stderr = 10.0 * math.sqrt(variance)"),
    ("Hölder exclusion at bound <= 10*diff", "verify.py",
     "(bound <= 0.1 * diff)",
     "(bound <= 10.0 * diff)"),
    ("Hölder max_ratio without the err inflation", "verify.py",
     "ratio_upper = (diff + bound) / sep**exponent_target",
     "ratio_upper = diff / sep**exponent_target"),
    ("growth radii from 4x the resolution", "nonremovable.py",
     "radii = np.geomspace(resolution, 2.0, 12)",
     "radii = np.geomspace(4.0 * resolution, 2.0, 12)"),
]

#: Tier-1 without the tests that only compare pinned outputs, and without
#: ``test_mutants.py``, which fails on every mutated copy.
SELECTION = [
    "tests", "--ignore=tests/test_golden.py", "--ignore=tests/test_no_scipy.py",
    "--ignore=tests/test_mutants.py",
    "-k", "not criterion_12 and not digest and not byte_identical and not pinned",
]


def occurrences(file: str, old: str) -> int:
    """How often ``old`` occurs in ``file`` under src/cantorqc."""
    return (ROOT / "src" / "cantorqc" / file).read_text(encoding="utf-8").count(old)


def check(mutants) -> None:
    """Stop unless each mutant's old text occurs exactly once in its file."""
    for name, file, old, _ in mutants:
        found = occurrences(file, old)
        if found != 1:
            sys.exit(f"mutant {name!r}: its old text occurs {found} times in {file}, not once")


def catchers(file: str, old: str, new: str) -> list[str]:
    """The tests of :data:`SELECTION` that fail on a copy with ``old`` replaced by ``new``."""
    with tempfile.TemporaryDirectory(prefix="cantorqc-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        path = copy / "src" / "cantorqc" / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *SELECTION],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode not in (0, 1) or (proc.returncode == 1) != bool(failed):
        sys.exit(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return failed


def main(words: list[str]) -> int:
    mutants = [m for m in MUTANTS if not words or any(w in m[0] for w in words)]
    check(mutants)
    survivors = []
    for name, file, old, new in mutants:
        caught = catchers(file, old, new)
        print(f"{name}: " + (f"caught by {len(caught)}" if caught else "SURVIVED"), flush=True)
        for test in caught:
            print(f"    {test}", flush=True)
        if not caught:
            survivors.append(name)
    print(f"{len(survivors)} of {len(mutants)} mutants survive" +
          "".join(f"\n    {name}" for name in survivors))
    return len(survivors)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
