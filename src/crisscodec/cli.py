"""Command line interface for the array codec.

COMMANDS maps each subcommand to its handler, help text and arguments.
A command builds only its own subcommand's parser; no argument, --help
or an unknown name builds them all, so every command is still listed.
Handlers import analysis and selftest where they use them, so the codec
commands never load those modules.

Exit codes: 0 on success, 2 on validation problems (bad flags, malformed
files, non-codeword inputs), 3 when decoding or a selftest property
fails.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Sequence

from . import crisscross, fileio
from .crisscross import CodeParams
from .errors import DecodingError, EncodingError


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
    from . import analysis
    try:
        q_values = [int(part) for part in args.q.split(",") if part.strip()]
    except ValueError:
        q_values = []
    if not q_values:
        raise ValueError(f"--q must be comma-separated integers, got {args.q!r}")
    if not args.n_min <= args.n_max <= analysis.MAX_ANALYZE_DIMENSION:
        raise ValueError(
            f"need n-min <= n-max <= {analysis.MAX_ANALYZE_DIMENSION}, "
            f"got [{args.n_min}, {args.n_max}]"
        )
    n_values = range(args.n_min, args.n_max + 1)
    rows = [analysis.analysis_row(n, q) for n in n_values for q in q_values]
    text = analysis.to_csv(rows) if args.format == "csv" else analysis.to_table(rows)
    _write_output(text, args.out)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    from . import analysis
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
            size = f"{rows} * {result.q}^{crisscross.free_cells(result.n)}"
        print(f"code size:               {size}")
        print(f"code redundancy:         {result.redundancy} symbols")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from . import selftest
    report = selftest.run_selftest(args.n, args.q, args.trials, seed=args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 3


_OUT = ("--out", {"help": "output file (stdout when omitted)"})
_N = ("--n", {"type": int, "required": True, "help": "array dimension"})
_Q = ("--q", {"type": int, "required": True, "help": "alphabet size"})


def _in(what: str) -> tuple[str, dict]:
    """The --in argument for an input file of the given kind."""
    return ("--in", {"dest": "infile", "required": True, "help": f"input {what} file"})


# name -> (handler, help text, (flag, add_argument options) per argument)
COMMANDS = {
    "encode": (cmd_encode, "encode a data file into a codeword array", (
        _N,
        _Q,
        ("--data", {"required": True, "help": "input data file (kind 'data')"}),
        _OUT,
    )),
    "corrupt": (cmd_corrupt, "delete one row and one column", (
        _in("array"),
        ("--row", {"type": int, "required": True, "help": "1-based row to delete"}),
        ("--col", {"type": int, "required": True, "help": "1-based column to delete"}),
        _OUT,
    )),
    "decode": (cmd_decode, "rebuild the codeword from a received array", (_in("received"), _OUT)),
    "recover": (cmd_recover, "read the message back out of a codeword", (_in("array"), _OUT)),
    "verify": (cmd_verify, "check an array against the codeword conditions", (_in("array"),)),
    "analyze": (cmd_analyze, "tabulate redundancy against its bounds", (
        ("--n-min", {"type": int, "required": True}),
        ("--n-max", {"type": int, "required": True}),
        ("--q", {"required": True, "help": "comma-separated alphabet sizes"}),
        ("--format", {"choices": ("table", "csv"), "default": "table"}),
        _OUT,
    )),
    "count": (cmd_count, "count the codewords of one code instance", (_N, _Q)),
    "selftest": (cmd_selftest, "run the randomized property suite", (
        _N,
        _Q,
        ("--trials", {"type": int, "default": 10}),
        ("--seed", {"type": int, "default": 0}),
    )),
}


def build_parser(names: Iterable[str] = COMMANDS) -> argparse.ArgumentParser:
    """The argument parser with a subparser for each of the named commands.

    Its usage line lists every command in COMMANDS whichever are built,
    so an error it reports reads the same as from the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="crisscodec",
        description="Encode, corrupt, decode and analyze arrays protected "
        "against one row deletion plus one column deletion.",
    )
    names = list(names)
    # Left to itself argparse lists only the subparsers built.  It is left
    # to itself when all are built, because its error for a missing or an
    # unknown command then names the dest, "command", not the metavar.
    metavar = None if names == list(COMMANDS) else "{" + ",".join(COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        handler, help_text, arguments = COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    parser = build_parser(names)
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
