"""Command-line front door.

Subcommands: solve-params, generate, build, report, exact, evaluate. Output
is deterministic byte for byte: identical inputs and flags always produce
identical bytes, including iteration order. Exit codes: 0 success, 1 usage
error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .errors import (
    InconsistentInputError,
    InvalidParameterError,
    MalformedLineError,
    SnapshotFormatError,
    UnsupportedSourceError,
)
from .evaluate import sweep, write_sweep_csv
from .oracle import exact_chh_multipass
from .params import ChhParams, solve_params, to_fraction
from .sketch import ChhReport, ChhSketch
from .snapshot import load_sketch, save_sketch
from .tsv import TsvTupleSource, write_tuples
from .workload import ZipfWorkloadSpec, generate_zipf

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-params", help="derive table sizes from thresholds")
    p.add_argument("--phi1", required=True)
    p.add_argument("--phi2", required=True)
    p.add_argument("--eps1", required=True)
    p.add_argument("--eps2", required=True)
    p.set_defaults(func=_cmd_solve_params)

    p = sub.add_parser("generate", help="write a seeded Zipf tuple stream as TSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--primary-domain", type=int, required=True)
    p.add_argument("--secondary-domain", type=int, required=True)
    p.add_argument("--skew1", type=float, default=1.1)
    p.add_argument("--skew2", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("build", help="stream tuples into a sketch snapshot")
    p.add_argument("--in", dest="input", default=None, help="TSV path (default: stdin)")
    p.add_argument("--phi1", required=True)
    p.add_argument("--phi2", required=True)
    p.add_argument("--eps1", default=None)
    p.add_argument("--eps2", default=None)
    p.add_argument("--s1", type=int, default=None)
    p.add_argument("--s2", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true", help="fail on malformed lines")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("report", help="print the heavy hitters of a snapshot")
    p.add_argument("--sketch", required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("exact", help="exact heavy pairs via a multi-pass oracle")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--phi1", required=True)
    p.add_argument("--phi2", required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("evaluate", help="sweep table sizes and emit error statistics")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--phi1", required=True)
    p.add_argument("--phi2", required=True)
    p.add_argument("--s1-list", required=True, help="comma-separated outer sizes")
    p.add_argument("--s2-list", required=True, help="comma-separated inner sizes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def _cmd_solve_params(args) -> int:
    params = solve_params(args.phi1, args.phi2, args.eps1, args.eps2)
    print(f"s1={params.s1} s2={params.s2} case={params.case}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    spec = ZipfWorkloadSpec(
        tuple_count=args.n,
        primary_domain=args.primary_domain,
        secondary_domain=args.secondary_domain,
        primary_skew=args.skew1,
        secondary_skew=args.skew2,
        seed=args.seed,
    )
    try:
        stream = generate_zipf(spec)
    except ImportError as exc:
        raise InvalidParameterError(
            f"generate needs numpy (pip install 'chh[generate]'): {exc}"
        ) from exc
    write_tuples(args.out, stream)
    return EXIT_OK


def _build_params(args) -> ChhParams:
    raw = args.s1 is not None or args.s2 is not None
    if raw:
        if args.s1 is None or args.s2 is None:
            raise InvalidParameterError("--s1 and --s2 must be given together")
        if args.eps1 is not None or args.eps2 is not None:
            raise InvalidParameterError("--eps1/--eps2 cannot be combined with --s1/--s2")
        return ChhParams.from_raw(args.phi1, args.phi2, args.s1, args.s2)
    phi1 = to_fraction(args.phi1, "phi1")
    phi2 = to_fraction(args.phi2, "phi2")
    eps1 = to_fraction(args.eps1, "eps1") if args.eps1 is not None else phi1 / 2
    eps2 = to_fraction(args.eps2, "eps2") if args.eps2 is not None else phi2 / 2
    return solve_params(phi1, phi2, eps1, eps2)


def _warn_skipped(source: TsvTupleSource) -> None:
    if source.skipped_lines:
        print(f"warning: skipped {source.skipped_lines} malformed line(s)", file=sys.stderr)


def _check_out(path: str) -> None:
    """Fail before any input is read when ``--out`` cannot be written as a file.

    The file is not opened here: that would truncate an old snapshot before
    the new one is ready.
    """
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(f"--out {path} is a directory")
    if not out.parent.is_dir():
        raise FileNotFoundError(f"--out {path}: directory {out.parent} does not exist")


def _cmd_build(args) -> int:
    params = _build_params(args)
    _check_out(args.out)
    sketch = ChhSketch(params)
    source = TsvTupleSource(args.input, strict=args.strict)
    sketch.consume(source)
    _warn_skipped(source)
    if not params.constraints_satisfied():
        print(
            "warning: table sizes do not meet the feasibility constraints; "
            "reports may miss guarantees",
            file=sys.stderr,
        )
    save_sketch(sketch, args.out)
    return EXIT_OK


def _format_report_text(report: ChhReport) -> bytes:
    lines = []
    for primary in report.primaries:
        lines.append(b"%s %d\n" % (primary.key, primary.est_count))
        for skey, est in primary.secondaries:
            lines.append(b"%s %s %d\n" % (primary.key, skey, est))
    return b"".join(lines)


def _csv_field(raw: bytes) -> bytes:
    if b"," in raw or b'"' in raw or b"\n" in raw or b"\r" in raw:
        return b'"' + raw.replace(b'"', b'""') + b'"'
    return raw


def _format_report_csv(report: ChhReport) -> bytes:
    lines = [b"kind,d,s,est_count\n"]
    for primary in report.primaries:
        lines.append(
            b"primary,%s,,%d\n" % (_csv_field(primary.key), primary.est_count)
        )
        for skey, est in primary.secondaries:
            lines.append(
                b"pair,%s,%s,%d\n" % (_csv_field(primary.key), _csv_field(skey), est)
            )
    return b"".join(lines)


def _cmd_report(args) -> int:
    sketch = load_sketch(args.sketch)
    report = sketch.report()
    payload = (
        _format_report_csv(report) if args.format == "csv" else _format_report_text(report)
    )
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()
    return EXIT_OK


def _cmd_exact(args) -> int:
    source = TsvTupleSource(args.input)
    result = exact_chh_multipass(source, args.phi1, args.phi2)
    _warn_skipped(source)
    out = sys.stdout.buffer
    pairs = sorted(result.pairs.items())
    if args.format == "csv":
        out.write(b"d,s,count\n")
        for (d, s), count in pairs:
            out.write(b"%s,%s,%d\n" % (_csv_field(d), _csv_field(s), count))
    else:
        for (d, s), count in pairs:
            out.write(b"(%s,%s) %d\n" % (d, s, count))
    out.flush()
    return EXIT_OK


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        values = [int(token) for token in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(f"{name} must be comma-separated integers: {exc}")
    return values


def _cmd_evaluate(args) -> int:
    s1_values = _parse_int_list(args.s1_list, "--s1-list")
    s2_values = _parse_int_list(args.s2_list, "--s2-list")
    _check_out(args.out)
    source = TsvTupleSource(args.input)
    rows = sweep(source, args.phi1, args.phi2, s1_values, s2_values)
    _warn_skipped(source)
    write_sweep_csv(rows, args.out)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse help or usage failure
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except (InvalidParameterError, UnsupportedSourceError) as exc:
        print(f"chh: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        MalformedLineError,
        SnapshotFormatError,
        InconsistentInputError,
        OSError,
    ) as exc:
        print(f"chh: error: {exc}", file=sys.stderr)
        return EXIT_DATA
