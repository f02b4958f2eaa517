import hashlib
import json
import os
import stat
import subprocess
import sys
import tracemalloc

import criterion12
import pytest

from cantorqc import cli

BASE = [sys.executable, "-m", "cantorqc"]
GLUE = ["glue", "--t", "1", "--K", "2", "--hosts=-0.45,0.0,0.1", "--piece-m", "7"]


def run_cli(*args, expect=0):
    proc = subprocess.run(
        BASE + list(args), capture_output=True, timeout=600
    )
    assert proc.returncode == expect, proc.stderr.decode()
    return proc


def test_params_critical_dimension_maps_to_one():
    # source dimension 2/(K+1) is sent to target dimension exactly 1
    proc = run_cli("params", "--t", str(2.0 / 3.0), "--K", "2", "--m", "100")
    payload = json.loads(proc.stdout)
    assert payload["t_prime"] == pytest.approx(1.0, rel=1e-12)
    assert set(payload) == {
        "m", "r", "c_m", "centers", "t", "K",
        "sigma", "t_prime", "dim_image", "holder_exp",
    }


def test_params_rejection_exit_code_and_message():
    proc = subprocess.run(BASE + ["params", "--t", "1.9", "--m", "7"], capture_output=True)
    assert proc.returncode == 2
    err = proc.stderr.decode()
    assert "parameter rejection" in err and "sigma" in err


def test_eval_identity_point(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("2.0,0.0\n")
    proc = run_cli("eval", "--points", str(pts), "--m", "7", "--t", "1", "--K", "2")
    lines = proc.stdout.decode().strip().split("\n")
    assert lines[0] == "re,im,phi_re,phi_im,depth,err_bound"
    assert lines[1] == "2.0,0.0,2.0,0.0,0,0.0"


def test_eval_k1_returns_input(tmp_path):
    pts = tmp_path / "pts.csv"
    rows = ["0.1,0.2", "-0.4,0.05", "0.9,0.9"]
    pts.write_text("\n".join(rows) + "\n")
    proc = run_cli("eval", "--points", str(pts), "--m", "7", "--t", "1", "--K", "1", "--depth", "40")
    for row, line in zip(rows, proc.stdout.decode().strip().split("\n")[1:]):
        x, y = (float(v) for v in row.split(","))
        fields = line.split(",")
        assert float(fields[2]) == pytest.approx(x, abs=1e-12)
        assert float(fields[3]) == pytest.approx(y, abs=1e-12)


def test_eval_centers_land_on_image_centers(tmp_path):
    disks = run_cli(
        "disks", "--m", "7", "--t", "1", "--K", "2", "--N", "2",
        "--side", "source", "--format", "csv",
    )
    pts = tmp_path / "centers.csv"
    pts.write_text(disks.stdout.decode())
    out = run_cli("eval", "--points", str(pts), "--m", "7", "--t", "1", "--K", "2", "--depth", "40")
    image = run_cli(
        "disks", "--m", "7", "--t", "1", "--K", "2", "--N", "2", "--side", "image"
    )
    targets = json.loads(image.stdout)["centers"]
    got = [line.split(",") for line in out.stdout.decode().strip().split("\n")[1:]]
    for (tx, ty), fields in zip(targets, got):
        assert float(fields[2]) == pytest.approx(tx, abs=1e-9)
        assert float(fields[3]) == pytest.approx(ty, abs=1e-9)


def test_eval_streams_large_file_in_chunks(tmp_path):
    # more points than one chunk; identity outside the unit disk keeps it exact
    n = 20000
    pts = tmp_path / "many.csv"
    pts.write_text("".join(f"{2 + k * 1e-6},1.0\n" for k in range(n)))
    out = tmp_path / "out.csv"
    run_cli("eval", "--points", str(pts), "--m", "7", "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert len(lines) == n + 1
    assert lines[1].startswith("2.0,1.0,2.0,1.0,0,")
    assert lines[-1].split(",")[4] == "0"


def test_cauchy_measure_out(tmp_path):
    measure_path = tmp_path / "measure.json"
    run_cli(
        "cauchy", "--alpha", "0.5", "--K", "1", "--t", "1.6", "--N", "1",
        "--seed", "1", "--measure-out", str(measure_path),
    )
    payload = json.loads(measure_path.read_text())
    assert payload["count"] == len(payload["atoms"])
    total = sum(w for _, _, w in payload["atoms"])
    assert total == pytest.approx(1.0, abs=1e-12)


#: SHA-256 of the ``--measure-out`` file of criterion 12's ``cauchy``
#: invocation, captured with NumPy 2.4.6 on x86-64.
MEASURE_OUT_DIGEST = "2fbf2ae6681840c399ed6496185f1ba43b154b2e9a728000787f59fac37c43e0"


def test_cauchy_measure_out_digest(tmp_path):
    (argv,) = [a for a in criterion12.invocations("") if a[0] == "cauchy"]
    measure_path = tmp_path / "measure.json"
    assert cli.main(argv + ["--measure-out", str(measure_path)]) == 0
    assert hashlib.sha256(measure_path.read_bytes()).hexdigest() == MEASURE_OUT_DIGEST


@pytest.mark.parametrize("mode", ["phi", "inverse", "jacobian"])
def test_eval_malformed_line_reports_line_number(tmp_path, mode):
    pts = tmp_path / "bad.csv"
    pts.write_text("0.1,0.2\noops\n")
    proc = subprocess.run(
        BASE + ["eval", "--points", str(pts), "--m", "7", "--mode", mode], capture_output=True
    )
    assert proc.returncode == 3
    assert ":2:" in proc.stderr.decode()
    # the header waits for the first accepted chunk
    assert proc.stdout == b""


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_out_naming_stdout_keeps_its_append_mode(tmp_path):
    log = tmp_path / "log.txt"
    log.write_text("first\n")
    with open(log, "a") as fh:
        subprocess.run(
            BASE + ["params", "--t", "1", "--K", "2", "--m", "7", "--out", "/dev/stdout"],
            stdout=fh, check=True,
        )
    expected = run_cli("params", "--t", "1", "--K", "2", "--m", "7").stdout
    assert log.read_bytes() == b"first\n" + expected


def test_cauchy_rejects_a_layout_over_the_enumeration_cap():
    # 217**3 atoms exceed the 10**7 cap
    proc = subprocess.run(
        BASE + ["cauchy", "--alpha", "0.5", "--K", "2", "--t", "1.9", "--m", "217", "--N", "3"],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert "10000000" in proc.stderr.decode()


@pytest.mark.parametrize("command", ["disks", "dimension"])
def test_enumeration_past_the_cap_is_a_parameter_rejection(command):
    # 217**3 disks exceed the 10**7 cap
    proc = subprocess.run(
        BASE + [command, "--t", "1.9", "--m", "217", "--N", "3"], capture_output=True
    )
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("parameter rejection: ")
    assert "10000000" in proc.stderr.decode()


def test_eval_non_finite_point_named_by_file_line(tmp_path):
    pts = tmp_path / "nan.csv"
    rows = [f"{0.0001 * i!r},0.1" for i in range(8200)]
    rows[8194] = "nan,0.1"
    pts.write_text("\n".join(rows) + "\n")
    proc = subprocess.run(
        BASE + ["eval", "--points", str(pts), "--m", "7"], capture_output=True
    )
    assert proc.returncode == 2
    err = proc.stderr.decode()
    assert f"{pts}:8195:" in err and "must be finite" in err and "point 2" not in err


@pytest.mark.parametrize("existing", [False, True])
def test_eval_rejected_input_leaves_out_untouched(tmp_path, existing):
    # the rejected line comes after the first 8,192-point chunk was written
    pts = tmp_path / "nan.csv"
    rows = [f"{0.0001 * i!r},0.1" for i in range(8200)]
    rows[8194] = "nan,0.1"
    pts.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out.csv"
    before = b"re,im,phi_re,phi_im,depth,err_bound\n0.5,0.5,0.5,0.5,0,0.0\n"
    if existing:
        out.write_bytes(before)
    listing = sorted(tmp_path.iterdir())
    proc = subprocess.run(
        BASE + ["eval", "--points", str(pts), "--m", "7", "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert ":8195:" in proc.stderr.decode()
    assert sorted(tmp_path.iterdir()) == listing
    if existing:
        assert out.read_bytes() == before


def test_glue_rejects_non_finite_point_off_hosts(tmp_path):
    pts = tmp_path / "nan.csv"
    pts.write_text("0.1,0.3\nnan,0.3\n")
    proc = subprocess.run(
        BASE + [
            "glue", "--t", "1", "--K", "2",
            "--hosts=-0.45,0.0,0.1", "--piece-m", "7", "--points", str(pts),
        ],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert f"{pts}:2:" in proc.stderr.decode()
    assert proc.stdout == b""


@pytest.mark.parametrize("existing", [False, True])
def test_glue_rejected_input_leaves_out_untouched(tmp_path, existing):
    # the rejected line comes after the first 8,192-point chunk was written
    pts = tmp_path / "nan.csv"
    rows = [f"{0.0001 * i!r},0.1" for i in range(8200)]
    rows[8194] = "nan,0.1"
    pts.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out.csv"
    before = b"re,im,phi_re,phi_im,depth,err_bound\n0.5,0.5,0.5,0.5,0,0.0\n"
    if existing:
        out.write_bytes(before)
    listing = sorted(tmp_path.iterdir())
    proc = subprocess.run(
        BASE + GLUE + ["--points", str(pts), "--out", str(out)], capture_output=True
    )
    assert proc.returncode == 2
    assert ":8195:" in proc.stderr.decode()
    assert sorted(tmp_path.iterdir()) == listing
    if existing:
        assert out.read_bytes() == before


def test_glue_points_memory_is_bounded(tmp_path):
    # streamed in chunks: the peak must not grow with the point count
    n = 30000
    pts = tmp_path / "off_hosts.csv"
    pts.write_text("".join(f"{2 + k * 1e-6!r},1.0\n" for k in range(n)))
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        code = cli.main(GLUE + ["--points", str(pts), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == n + 1 and lines[1].startswith("2.0,1.0,2.0,1.0,0,")
    assert peak < 2.5e6


def _sink_argv(tmp_path, command):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.25,0.1\n-0.3,0.44\n2.0,0.0\n")
    return {
        "params": ["params", "--t", "1", "--K", "2", "--m", "7"],
        "eval": ["eval", "--points", str(pts), "--m", "7"],
        "glue": GLUE + ["--points", str(pts)],
    }[command]


@pytest.mark.parametrize("command", ["params", "eval", "glue"])
def test_out_through_symlink_writes_its_target(tmp_path, command):
    argv = _sink_argv(tmp_path, command)
    expected = run_cli(*argv).stdout
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    target.chmod(0o600)
    link = tmp_path / "link.csv"
    link.symlink_to("target.csv")
    run_cli(*argv, "--out", str(link))
    assert link.is_symlink() and os.readlink(link) == "target.csv"
    assert target.read_bytes() == expected
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


@pytest.mark.parametrize("command", ["params", "eval", "glue"])
def test_out_to_fifo_is_written_in_place(tmp_path, command):
    argv = _sink_argv(tmp_path, command)
    expected = run_cli(*argv).stdout
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # held open for reading, so the command's open never blocks; the output fits the pipe
    fd = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
    try:
        run_cli(*argv, "--out", str(fifo))
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(fd, 1 << 16) == expected
    finally:
        os.close(fd)


@pytest.mark.parametrize(
    "argv",
    [
        ["params"],
        ["eval", "--points", "pts.csv"],
        ["lp-mass"],
        ["packing"],
        ["growth"],
        ["cauchy", "--alpha", "0.5", "--t", "1.6"],
        GLUE,
    ],
    ids=lambda argv: argv[0],
)
def test_format_is_a_usage_error_where_nothing_reads_it(argv, capsys):
    # only disks, dimension and holder read --format
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cantorqc") and "unrecognized arguments: --format csv" in err


_BAD_COUNTS = [
    ("growth --m 7 --trials -2", "trials must be >= 1, got -2"),
    ("growth --m 7 --trials 0", "trials must be >= 1, got 0"),
    ("growth --m 7 --samples 0", "mc_samples (draws per disk) must be >= 2, got 0"),
    ("growth --m 7 --samples 1", "mc_samples (draws per disk) must be >= 2, got 1"),
    ("packing --m 7 --trials -3", "trials must be >= 0, got -3"),
    ("holder --m 7 --depth-pairs -1", "adversarial_depth must be >= 0, got -1"),
    ("cauchy --alpha 0.5 --K 1 --t 1.6 --N 0", "measure generation N must be >= 1, got 0"),
    ("growth --m 7 --N -2", "growth --N must be >= 0, got -2"),
    ("lp-mass --m 7 --samples -5", "stratified samples must be >= 2*depth_max = 12, got -5"),
    ("lp-mass --p 1.5 --m 19 --samples 6 --depth 6 --seed 1",
     "stratified samples must be >= 2*depth_max = 12, got 6"),
    ("lp-mass --m 7 --samples 1 --method uniform", "uniform samples must be >= 2, got 1"),
]


@pytest.mark.parametrize("argv, condition", _BAD_COUNTS, ids=[a for a, _ in _BAD_COUNTS])
def test_counts_that_certify_nothing_are_rejected(argv, condition, capsys):
    # a negative count would crash in NumPy or pass for 0; no trial, or too few
    # draws for a standard error, certifies nothing
    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("parameter rejection: ") and condition in err
    assert "Traceback" not in err


def test_lp_mass_p1_is_pi():
    proc = run_cli("lp-mass", "--p", "1", "--m", "100", "--t", "1", "--K", "2")
    payload = json.loads(proc.stdout)
    assert payload["closed_form"]["total"] == pytest.approx(3.141592653589793, abs=1e-9)


def test_dry_run_skips_computation():
    proc = run_cli(
        "lp-mass", "--p", "1.5", "--m", "7", "--samples", "1000000000",
        "--depth", "6", "--dry-run",
    )
    payload = json.loads(proc.stdout)
    assert payload["command"] == "lp-mass"
    assert payload["config"]["samples"] == 1000000000
    assert payload["derived"]["t_prime"] == pytest.approx(4.0 / 3.0)


def test_glue_spec_json():
    proc = run_cli(
        "glue", "--t", "1", "--K", "2",
        "--hosts=-0.45,0.0,0.1;0.4,0.2,0.045", "--piece-m", "7,19",
    )
    payload = json.loads(proc.stdout)
    assert len(payload["pieces"]) == 2
    assert all(p["holder_constant"] < 1 for p in payload["pieces"])
    eps = [p["epsilon"] for p in payload["pieces"]]
    assert eps[1] < eps[0]


def test_glue_rejects_overlap():
    proc = subprocess.run(
        BASE + [
            "glue", "--t", "1", "--K", "2",
            "--hosts=0.0,0.0,0.1;0.05,0.0,0.04", "--piece-m", "7,19",
        ],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert "overlap" in proc.stderr.decode()


def test_holder_exponent_beats_mori(tmp_path):
    out = tmp_path / "holder.json"
    run_cli(
        "holder", "--t", "1", "--K", "2", "--m", "100", "--seed", "3",
        "--out", str(out),
    )
    payload = json.loads(out.read_text())
    assert payload["regression_exponent_adversarial"] >= 0.74
    assert payload["holder_exp"] == pytest.approx(0.75)

