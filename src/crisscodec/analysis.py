"""Redundancy analysis and exact code-size counting.

Redundancy rows report, per (n, q), the component message lengths, the
encoder redundancy n^2 - total (in q-ary symbols; that is, 4n - 2 - k3)
and the theoretical lower/upper bounds it must sit between.  Floats
appear only here, in reporting; everything the codec itself computes
stays in exact ints.

Code sizes are exact: the counts of protected first rows and last
columns, each from a DP over syndrome residues, times
q^crisscross.free_cells(n) for the free interior cells (the marker and
parity cells are then forced).
CodeSize.redundancy is the code redundancy n^2 - floor(log_q |C|) that
the paper bounds.  The DP is plain Python and needs no numpy; it
refuses work beyond WORK_GUARD = 10^8 inner steps.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from operator import add

from . import crisscross, rll_suffix, vt_core
from .crisscross import CodeParams

WORK_GUARD = 10**8


@dataclass(frozen=True)
class AnalysisRow:
    """Redundancy figures of one (n, q) parameter point."""

    n: int
    q: int
    k1: int
    k2: int
    k3: int
    message_length: int
    encoder_redundancy: int
    lower_bound: float
    upper_bound: float
    gap: float


CSV_FIELDS = tuple(field.name for field in fields(AnalysisRow))


def analysis_row(n: int, q: int) -> AnalysisRow:
    """Redundancy row at (n, q); bounds are floats, the rest exact ints."""
    ml = crisscross.message_lengths(CodeParams(n, q))
    redundancy = n * n - ml.total
    log_q = math.log(q)
    lower = 2 * n + 2 * math.log(n) / log_q - 3
    upper = 2 * n + 2 * math.log(n) / log_q + (2 * n - 13) * math.log(q / (q - 1)) / log_q + 12
    return AnalysisRow(
        n, q, ml.k1, ml.k2, ml.k3, ml.total, redundancy, lower, upper, redundancy - lower
    )


def analyze_range(n_values: range | list[int], q_values: list[int]) -> list[AnalysisRow]:
    """Redundancy rows over a grid of dimensions and alphabet sizes."""
    return [analysis_row(n, q) for n in n_values for q in q_values]


def _row_cells(row: AnalysisRow) -> list[str]:
    return [f"{value:.6f}" if isinstance(value, float) else str(value) for value in astuple(row)]


def to_csv(rows: list[AnalysisRow]) -> str:
    lines = [",".join(CSV_FIELDS)]
    lines.extend(",".join(_row_cells(row)) for row in rows)
    return "\n".join(lines) + "\n"


def to_table(rows: list[AnalysisRow]) -> str:
    cells = [list(CSV_FIELDS)] + [_row_cells(row) for row in rows]
    widths = [max(len(line[c]) for line in cells) for c in range(len(CSV_FIELDS))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in cells]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CodeSize:
    """Exact size of one code instance."""

    n: int
    q: int
    first_row_count: int
    last_column_count: int
    size: int
    redundancy: int | None  # n^2 - floor(log_q size); None for an empty code


def protected_row_count(n: int, q: int, suffix: tuple[int, ...]) -> int:
    """Count the length-n words that protect a row or column.

    A word qualifies when it lies in DVT_0(n; q), has no equal adjacent
    symbols and ends with `suffix`.  In the differential word y = diff(x)
    the suffix fixes y_(n-m+1), ..., y_n, and the word is a free choice
    of y_1, ..., y_(n-m), each in {1, ..., q-1}: a nonzero differential
    is exactly the RLL property.  A DP over the qn syndrome residues,
    one free position at a time, counts the choices whose syndrome
    sum(i * y_i) is 0 mod qn.  Refuses more than WORK_GUARD inner steps.
    """
    m = len(suffix)
    if not 0 < m <= n:
        raise ValueError(f"the suffix must have 1 to n = {n} symbols, got {m}")
    modulus = q * n
    steps = (n - m) * (q - 1) * modulus
    if steps > WORK_GUARD:
        raise ValueError(f"{steps} DP steps exceed the work guard {WORK_GUARD}")
    fixed = vt_core.diff(vt_core.check_symbols(suffix, q, "suffix"), q)
    if 0 in fixed[:-1]:
        return 0
    counts = [0] * modulus  # counts[r]: choices so far whose syndrome is r mod qn
    counts[vt_core.syndrome([0] * (n - m) + fixed) % modulus] = 1
    for i in range(1, n - m + 1):
        grown = [0] * modulus
        for shift in range(i, i * q, i):  # y_i = shift / i
            grown = list(map(add, grown, counts[-shift:] + counts[:-shift]))
        counts = grown
    return counts[0]


def count_code_size(n: int, q: int, mode: str = "formula") -> CodeSize:
    """Exact |code(n, q)| by the structural formula.

    A codeword is a protected first row, a protected reversed last
    column and q^free_cells(n) free interior cells; the marker and
    parity cells are then forced.  "formula" is the only mode.
    """
    params = CodeParams(n, q)  # validates n >= 4, q >= 3
    if mode != "formula":
        raise ValueError(f'mode must be "formula", got {mode!r}')
    u_count = protected_row_count(n, q, crisscross.first_row_params(params).b)
    v_count = protected_row_count(n, q, crisscross.last_column_params(params).b)
    rows = u_count * v_count
    free = crisscross.free_cells(n)
    size = rows * q**free
    # floor(log_q size) = free + floor(log_q rows).  int_log_floor on size
    # itself multiplies more than free times by numbers as long as size:
    # 0.5 s at (400, 3), growing like n^4.
    redundancy = n * n - free - rll_suffix.int_log_floor(q, rows) if rows else None
    return CodeSize(n, q, u_count, v_count, size, redundancy)
