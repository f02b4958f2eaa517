"""One executable, one subcommand per experiment, deterministic output.

Exit codes: 0 on success, 2 on parameter rejection (the message names the
failed inequality), 3 on runtime or numerical failure.  All output is JSON
(sorted keys) or headered CSV with '.' decimals, so identical invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import os
import stat
import sys
import tempfile
from dataclasses import asdict
from functools import partial
from itertools import chain

import numpy as np

from . import nonremovable, qcmap, verify
from .geometry import (
    CantorQCError,
    ConstructionParams,
    Disk,
    ParameterError,
    build_packing,
    derive_params,
    generation_centers,
)


class CliError(CantorQCError):
    """Runtime failure local to the command line layer."""


@contextlib.contextmanager
def _sink(out_path: str | None):
    """Stdout, or ``out_path`` written whole or not at all; the only opener of output.

    A temporary file beside the symlink-resolved target replaces it only when the
    block succeeds and keeps an existing target's permission bits, so a rejected
    input leaves no new file and an existing one unchanged.  A FIFO or device is
    written in place.  A path naming the file stdout is open on is stdout, so a
    redirect in append mode keeps the file's earlier content.  Stdout keeps what
    was streamed before a failure.
    """
    if not out_path or _is_stdout(out_path):
        yield sys.stdout
        return
    mode = os.stat(out_path).st_mode if os.path.exists(out_path) else None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out_path, "w", newline="") as fh:
            yield fh
        return
    target = os.path.realpath(out_path)
    folder, name = os.path.split(target)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=folder)
    except OSError as exc:
        # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, out_path) from None
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        if mode is None:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _is_stdout(path: str) -> bool:
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):
        return False


def _emit(obj, out_path: str | None) -> None:
    """Write ``obj`` as JSON with sorted keys."""
    with _sink(out_path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _csv_rows(fmt: str, *columns):
    """``fmt.format`` over the rows of ``columns``, each read by ``.tolist()``:
    ``{!r}`` writes a float as ``repr`` does, ``{}`` an int."""
    return map(fmt.format, *(np.asarray(c).tolist() for c in columns))


def _write_table(header: str, lines, out_path: str | None) -> None:
    """Write a CSV table; the header waits for the first line, or stands alone."""
    lines = iter(lines)
    with _sink(out_path) as fh:
        fh.write(header + next(lines, ""))
        fh.writelines(lines)


def _dry_run_payload(args: argparse.Namespace, derived: dict | None) -> dict:
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func",) and v is not None
    }
    return {"command": args.command, "config": config, "derived": derived}


def _with_params(cmd):
    """Derive the construction parameters for ``cmd``; under ``--dry-run`` print them and stop."""

    def run(args: argparse.Namespace) -> None:
        params = derive_params(args.t, args.K, build_packing(args.m))
        if args.dry_run:
            _emit(_dry_run_payload(args, params.to_json_dict()), args.out)
            return
        cmd(args, params)

    return run


def _add_common(parser: argparse.ArgumentParser, *, seed: bool = True, fmt: bool = False) -> None:
    parser.add_argument("--t", type=float, default=1.0, help="source dimension in (0, 2)")
    parser.add_argument("--K", type=float, default=2.0, help="distortion, K >= 1")
    parser.add_argument("--m", type=int, default=100, help="number of first-generation disks")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    if fmt:
        parser.add_argument(
            "--format", choices=("json", "csv"), default="json", help="output format"
        )
    parser.add_argument("--dry-run", action="store_true", help="print resolved config and stop")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="deterministic RNG seed")


# ---------------------------------------------------------------------------
# subcommands


@_with_params
def cmd_params(args: argparse.Namespace, params: ConstructionParams) -> None:
    _emit(params.to_json_dict(), args.out)


@_with_params
def cmd_disks(args: argparse.Namespace, params: ConstructionParams) -> None:
    centers = generation_centers(args.N, args.side, params)
    if args.format == "csv":
        _write_table("re,im\n", _csv_rows("{!r},{!r}\n", centers.real, centers.imag), args.out)
    else:
        _emit(
            {
                "side": args.side,
                "N": args.N,
                "radius": params.ratio(args.side) ** args.N,
                "centers": [[z.real, z.imag] for z in centers],
            },
            args.out,
        )


def _iter_point_chunks(path: str):
    """Yield point arrays of bounded size; malformed or non-finite lines carry their number."""
    buf: list[complex] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if lineno == 1 and parts[0].strip().lower() in ("re", "x"):
                continue
            try:
                point = complex(float(parts[0]), float(parts[1]))
            except (ValueError, IndexError) as exc:
                raise CliError(f"{path}:{lineno}: malformed point line {line!r}") from exc
            if not cmath.isfinite(point):
                raise ParameterError(f"{path}:{lineno}: map points must be finite, got {line!r}")
            buf.append(point)
            if len(buf) >= 8192:
                # drop the list before yielding: the caller works while this frame waits
                pts, buf = np.asarray(buf, dtype=np.complex128), []
                yield pts
    if buf:
        yield np.asarray(buf, dtype=np.complex128)


def _stream(header: str, rows, args: argparse.Namespace) -> None:
    """Write ``rows(pts)`` of each bounded chunk of ``args.points`` as it is read."""
    _write_table(header, chain.from_iterable(map(rows, _iter_point_chunks(args.points))), args.out)


def _map_table(evaluate, args: argparse.Namespace) -> None:
    """Stream ``args.points`` into a map table: ``evaluate(pts)`` returns
    ``(values, depths, err_bounds)``."""

    def rows(pts):
        values, depths, errs = evaluate(pts)
        fmt = "{!r},{!r},{!r},{!r},{},{!r}\n"
        return _csv_rows(fmt, pts.real, pts.imag, values.real, values.imag, depths, errs)

    _stream("re,im,phi_re,phi_im,depth,err_bound\n", rows, args)


@_with_params
def cmd_eval(args: argparse.Namespace, params: ConstructionParams) -> None:
    def jacobian_rows(pts):
        jac = qcmap.jacobian_batch(pts, params, depth_max=args.depth)
        return _csv_rows("{!r},{!r},{!r}\n", pts.real, pts.imag, jac)

    if args.mode == "jacobian":
        _stream("re,im,jacobian\n", jacobian_rows, args)
    else:
        evaluate = qcmap.phi_batch if args.mode == "phi" else qcmap.phi_inverse_batch
        _map_table(partial(evaluate, params=params, depth_max=args.depth), args)


@_with_params
def cmd_lp_mass(args: argparse.Namespace, params: ConstructionParams) -> None:
    closed = qcmap.lp_mass_closed_form(args.p, params, n_max=args.n_max)
    payload = {"closed_form": closed.to_json_dict()}
    if args.samples:
        mc = qcmap.lp_mass_monte_carlo(
            args.p, params, args.samples, args.depth, args.seed, method=args.method
        )
        payload["monte_carlo"] = asdict(mc)
    _emit(payload, args.out)


@_with_params
def cmd_dimension(args: argparse.Namespace, params: ConstructionParams) -> None:
    est = verify.box_dimension(args.side, params, args.N, seed=args.seed)
    reference = params.t if args.side == "source" else params.dim_image
    if args.format == "csv":
        _write_table("scale,count\n", _csv_rows("{!r},{}\n", est.scales, est.counts), args.out)
    else:
        payload = asdict(est)
        payload.update({"side": args.side, "N": args.N, "reference": reference})
        _emit(payload, args.out)


@_with_params
def cmd_holder(args: argparse.Namespace, params: ConstructionParams) -> None:
    target = args.target if args.target is not None else params.holder_exp
    config = verify.HolderConfig(params=params, adversarial_depth=args.depth_pairs)
    map_fn = qcmap.phi_map_fn(params, depth_max=args.depth)
    if args.format == "csv":
        sep, ratio = verify.holder_pair_table(map_fn, target, config, seed=args.seed)
        _write_table("separation,ratio\n", _csv_rows("{!r},{!r}\n", sep, ratio), args.out)
        return
    report = verify.holder_estimate(map_fn, target, config, seed=args.seed)
    payload = asdict(report)
    payload["holder_exp"] = params.holder_exp
    _emit(payload, args.out)


@_with_params
def cmd_packing(args: argparse.Namespace, params: ConstructionParams) -> None:
    s = args.s if args.s is not None else params.t
    report = verify.packing_condition_check(args.N, s, args.trials, args.seed, params)
    _emit(asdict(report), args.out)


@_with_params
def cmd_growth(args: argparse.Namespace, params: ConstructionParams) -> None:
    if args.N < 0:
        raise ParameterError(f"growth --N must be >= 0, got {args.N}")
    report = verify.integral_growth_check(
        args.trials, args.seed, params, args.depth, args.samples
    )
    payload = asdict(report)
    payload["generation_disk_constants"] = list(
        verify.generation_disk_growth(params, tuple(range(1, args.N + 1)))
    )
    _emit(payload, args.out)


def cmd_cauchy(args: argparse.Namespace) -> None:
    if args.dry_run:
        derived = {
            "threshold": nonremovable.removability_threshold(args.alpha, args.K),
            "max_epsilon": nonremovable.max_admissible_epsilon(args.alpha, args.K, args.t)
            if args.t > nonremovable.removability_threshold(args.alpha, args.K)
            else None,
        }
        _emit(_dry_run_payload(args, derived), args.out)
        return
    spec = nonremovable.build_counterexample(
        args.alpha, args.K, args.t, N=args.N, depth_max=args.depth, m=args.m, seed=args.seed
    )
    if args.measure_out:
        _emit(spec.measure.to_json_dict(), args.measure_out)
    report = nonremovable.verify_counterexample(spec, seed=args.seed)
    payload = {"spec": spec.to_json_dict(), "report": asdict(report)}
    _emit(payload, args.out)


def _parse_hosts(text: str) -> list[tuple[complex, float]]:
    hosts = []
    for part in text.split(";"):
        fields = part.split(",")
        if len(fields) != 3:
            raise CliError(f"host spec {part!r} is not 're,im,radius'")
        try:
            hosts.append((complex(float(fields[0]), float(fields[1])), float(fields[2])))
        except ValueError as exc:
            raise CliError(f"host spec {part!r} has non-numeric fields") from exc
    return hosts


def cmd_glue(args: argparse.Namespace) -> None:
    hosts = _parse_hosts(args.hosts)
    try:
        piece_ms = [int(x) for x in args.piece_m.split(",")]
    except ValueError as exc:
        raise CliError(f"--piece-m {args.piece_m!r} has a non-integer entry") from exc
    if len(piece_ms) != len(hosts):
        raise ParameterError(
            f"got {len(hosts)} hosts but {len(piece_ms)} piece sizes; counts must match"
        )
    pieces = [
        qcmap.GluedPiece(host=Disk(center, radius), params=derive_params(args.t, args.K, build_packing(mj)))
        for (center, radius), mj in zip(hosts, piece_ms)
    ]
    spec = qcmap.make_glued_spec(pieces)
    if args.dry_run:
        _emit(_dry_run_payload(args, spec.to_json_dict()), args.out)
        return
    if not args.points:
        _emit(spec.to_json_dict(), args.out)
        return
    _map_table(partial(qcmap.glued_map, spec=spec, depth_max=args.depth), args)


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorqc",
        description="Extremal quasiconformal maps on Cantor-type disk packings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derive and dump construction parameters")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("disks", help="emit generation disk centers")
    _add_common(p, seed=False, fmt=True)
    p.add_argument("--N", type=int, default=1, help="generation")
    p.add_argument("--side", choices=("source", "image"), default="source")
    p.set_defaults(func=cmd_disks)

    p = sub.add_parser("eval", help="batch-evaluate the map on a points file")
    _add_common(p, seed=False)
    p.add_argument("--points", type=str, required=True, help="CSV file of re,im per line")
    p.add_argument("--mode", choices=("phi", "inverse", "jacobian"), default="phi")
    p.add_argument("--depth", type=int, default=32)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("lp-mass", help="closed-form and Monte Carlo Jacobian p-mass")
    _add_common(p)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=64, help="generations in partial sums")
    p.add_argument("--samples", type=int, default=0, help="Monte Carlo samples (0 = skip)")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--method", choices=("stratified", "uniform"), default="stratified")
    p.set_defaults(func=cmd_lp_mass)

    p = sub.add_parser("dimension", help="box-counting dimension of generation centers")
    _add_common(p, fmt=True)
    p.add_argument("--N", type=int, default=4, help="generation")
    p.add_argument("--side", choices=("source", "image"), default="source")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("holder", help="Hölder exponent estimation for the map")
    _add_common(p, fmt=True)
    p.add_argument("--target", type=float, default=None, help="target exponent (default t/t')")
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--depth-pairs", type=int, default=5, help="adversarial pair generations")
    p.set_defaults(func=cmd_holder)

    p = sub.add_parser("packing", help="packing-condition constant sweep")
    _add_common(p)
    p.add_argument("--N", type=int, default=3, help="generation")
    p.add_argument("--s", type=float, default=None, help="exponent (default t)")
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=cmd_packing)

    p = sub.add_parser("growth", help="Jacobian integral growth sweep")
    _add_common(p)
    p.add_argument("--N", type=int, default=4, help="generation disks in the closed form")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--samples", type=int, default=2000, help="Monte Carlo samples per disk")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("cauchy", help="build and verify the nonremovability counterexample")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--K", type=float, default=2.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--m", type=int, default=None, help="override the auto-selected layout")
    p.add_argument("--N", type=int, default=2, help="measure discretization generation")
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--measure-out", type=str, default=None, help="write the atom list JSON here")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=cmd_cauchy)

    p = sub.add_parser("glue", help="validate or evaluate a glued map")
    _add_common(p, seed=False)
    p.add_argument(
        "--hosts", type=str, required=True, help="semicolon-separated 're,im,radius' triples"
    )
    p.add_argument("--piece-m", type=str, required=True, help="comma-separated m per host")
    p.add_argument("--points", type=str, default=None, help="optional CSV of points to map")
    p.add_argument("--depth", type=int, default=32)
    p.set_defaults(func=cmd_glue)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ParameterError(f"seed must be >= 0, got {args.seed}")
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ParameterError(f"--{name.replace('_', '-')} must be finite, got {value}")
        args.func(args)
    except ParameterError as exc:
        print(f"parameter rejection: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except (CantorQCError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
