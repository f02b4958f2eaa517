"""``import cantorqc`` and the criterion-12 runs work with scipy refused."""

import json
import subprocess
import sys
from pathlib import Path

import criterion12

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "cli_digests.json"

#: Refuses every scipy import, imports cantorqc, runs cli.main on each argv
#: and prints the scipy modules loaded, the exit codes and stdout digests.
CHILD = r"""
import contextlib, hashlib, io, json, sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} refused")
        return None


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


sys.meta_path.insert(0, RefuseScipy())
from cantorqc import cli

after_import = scipy_modules()
codes, digests = [], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(cli.main(argv))
    digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
print(json.dumps({"after_import": after_import, "after_runs": scipy_modules(),
                  "codes": codes, "digests": digests}))
"""


def test_cli_outputs_unchanged_without_scipy(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text(criterion12.POINTS)
    argvs = criterion12.invocations(str(pts))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)], capture_output=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout)
    assert result["after_import"] == [] and result["after_runs"] == []
    assert result["codes"] == [0] * len(argvs)
    assert result["digests"] == json.loads(DIGESTS.read_text())["sha256"]
