"""Command line interface for the array codec.

Exit codes: 0 on success, 2 on validation problems (bad flags, malformed
files, non-codeword inputs), 3 when decoding or a selftest property
fails.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import analysis, crisscross, fixtures, selftest
from . import fileio
from .crisscross import CodeParams
from .errors import DecodingError, EncodingError

MAX_ANALYZE_DIMENSION = 4096


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load(path: str, kind: str) -> fileio.ArrayFile:
    f = fileio.load(path)
    if f.kind != kind:
        raise ValueError(f'{path}: expected kind "{kind}", got "{f.kind}"')
    return f


def cmd_encode(args: argparse.Namespace) -> int:
    f = _load(args.data, "data")
    if f.n != args.n or f.q != args.q:
        raise ValueError(
            f"{args.data} was written for n={f.n}, q={f.q}, "
            f"but the command line says n={args.n}, q={args.q}"
        )
    params = CodeParams(args.n, args.q)
    X = crisscross.encode(f.symbols, params)
    out = fileio.ArrayFile("array", args.q, args.n, rows=X)
    _write_output(fileio.dumps(out), args.out)
    return 0


def cmd_corrupt(args: argparse.Namespace) -> int:
    f = _load(args.infile, "array")
    received = crisscross.corrupt(f.rows, args.row, args.col)
    out = fileio.ArrayFile("received", f.q, f.n, rows=received)
    _write_output(fileio.dumps(out), args.out)
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    f = _load(args.infile, "received")
    params = CodeParams(f.n, f.q)
    X = crisscross.decode(f.rows, params)
    out = fileio.ArrayFile("array", f.q, f.n, rows=X)
    _write_output(fileio.dumps(out), args.out)
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    f = _load(args.infile, "array")
    params = CodeParams(f.n, f.q)
    data = crisscross.recover_data(f.rows, params)
    out = fileio.ArrayFile("data", f.q, f.n, symbols=data)
    _write_output(fileio.dumps(out), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    f = _load(args.infile, "array")
    violation = crisscross.first_violation(f.rows, CodeParams(f.n, f.q))
    if violation is not None:
        print(f"{args.infile}: not a codeword: {violation}", file=sys.stderr)
        return 2
    print(f"{args.infile}: codeword of the n={f.n}, q={f.q} code")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        q_values = [int(part) for part in args.q.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--q must be comma-separated integers, got {args.q!r}") from None
    if not q_values or any(q < 3 for q in q_values):
        raise ValueError("every alphabet size must be an integer >= 3")
    if not args.n_min <= args.n_max <= MAX_ANALYZE_DIMENSION:
        raise ValueError(
            f"need n-min <= n-max <= {MAX_ANALYZE_DIMENSION}, "
            f"got [{args.n_min}, {args.n_max}]"
        )
    rows = analysis.analyze_range(range(args.n_min, args.n_max + 1), q_values)
    text = analysis.to_csv(rows) if args.format == "csv" else analysis.to_table(rows)
    _write_output(text, args.out)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    result = analysis.count_code_size(args.n, args.q)
    print(f"n={result.n} q={result.q}")
    print(f"protected first rows:    {result.first_row_count}")
    print(f"protected last columns:  {result.last_column_count}")
    if result.size == 0:
        print("code size:               0 (empty code)")
        print("code redundancy:         n/a")
    else:
        try:
            size = str(result.size)
        except ValueError:  # more digits than int-to-str conversion allows
            rows = result.first_row_count * result.last_column_count
            size = f"{rows} * {result.q}^{analysis.free_cells(result.n)}"
        print(f"code size:               {size}")
        print(f"code redundancy:         {result.redundancy} symbols")
    return 0


def cmd_verify_fixtures(args: argparse.Namespace) -> int:
    checks = fixtures.verify_fixture_pairs()
    for check in checks:
        status = "OK" if check.ok else "FAIL"
        print(f"{check.name}: {status} ({check.detail})")
    return 0 if all(c.ok for c in checks) else 2


def cmd_selftest(args: argparse.Namespace) -> int:
    report = selftest.run_selftest(args.n, args.q, args.trials, seed=args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisscodec",
        description="Encode, corrupt, decode and analyze arrays protected "
        "against one row deletion plus one column deletion.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("encode", help="encode a data file into a codeword array")
    sub.add_argument("--n", type=int, required=True, help="array dimension")
    sub.add_argument("--q", type=int, required=True, help="alphabet size")
    sub.add_argument("--data", required=True, help="input data file (kind 'data')")
    sub.add_argument("--out", help="output file (stdout when omitted)")
    sub.set_defaults(handler=cmd_encode)

    sub = subs.add_parser("corrupt", help="delete one row and one column")
    sub.add_argument("--in", dest="infile", required=True, help="input array file")
    sub.add_argument("--row", type=int, required=True, help="1-based row to delete")
    sub.add_argument("--col", type=int, required=True, help="1-based column to delete")
    sub.add_argument("--out", help="output file (stdout when omitted)")
    sub.set_defaults(handler=cmd_corrupt)

    sub = subs.add_parser("decode", help="rebuild the codeword from a received array")
    sub.add_argument("--in", dest="infile", required=True, help="input received file")
    sub.add_argument("--out", help="output file (stdout when omitted)")
    sub.set_defaults(handler=cmd_decode)

    sub = subs.add_parser("recover", help="read the message back out of a codeword")
    sub.add_argument("--in", dest="infile", required=True, help="input array file")
    sub.add_argument("--out", help="output file (stdout when omitted)")
    sub.set_defaults(handler=cmd_recover)

    sub = subs.add_parser("verify", help="check an array against the codeword conditions")
    sub.add_argument("--in", dest="infile", required=True, help="input array file")
    sub.set_defaults(handler=cmd_verify)

    sub = subs.add_parser("analyze", help="tabulate redundancy against its bounds")
    sub.add_argument("--n-min", type=int, required=True)
    sub.add_argument("--n-max", type=int, required=True)
    sub.add_argument("--q", required=True, help="comma-separated alphabet sizes")
    sub.add_argument("--format", choices=("table", "csv"), default="table")
    sub.add_argument("--out", help="output file (stdout when omitted)")
    sub.set_defaults(handler=cmd_analyze)

    sub = subs.add_parser("count", help="count the codewords of one code instance")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.set_defaults(handler=cmd_count)

    sub = subs.add_parser(
        "verify-fixtures", help="re-check the embedded ambiguity fixture pairs"
    )
    sub.set_defaults(handler=cmd_verify_fixtures)

    sub = subs.add_parser("selftest", help="run the randomized property suite")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--trials", type=int, default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, EncodingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DecodingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))
