"""Redundancy analysis and exact code-size counting.

Redundancy rows report, per (n, q), the component message lengths, the
encoder redundancy n^2 - total (in q-ary symbols; that is, 4n - 2 - k3)
and the theoretical lower/upper bounds it must sit between.  Floats
appear only here, in reporting, and in rll_suffix.int_log_floor, whose
float estimate exact int powers correct; everything the codec itself
computes stays in exact ints.

Code sizes are exact: the counts of protected first rows and last
columns, each from a DP over syndrome residues, times
q^crisscross.free_cells(n) for the free interior cells (the marker and
parity cells are then forced).
CodeSize.redundancy is the code redundancy n^2 - floor(log_q |C|) that
the paper bounds.  The DP keeps its qn residue counts packed side by
side in one int, in fields wide enough that they never carry into each
other, so a step of the DP is a few big-int shifts and adds (derived
in protected_row_count).  It is plain Python, needs no numpy, and
refuses work beyond WORK_GUARD = 2 * 10^10 bit operations; at
q = n + 1 that admits n <= 133.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

from . import crisscross, rll_suffix, vt_core
from .crisscross import CodeParams

WORK_GUARD = 2 * 10**10


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
    is exactly the RLL property.  With s0 the syndrome sum(i * y_i) of
    the suffix alone, the coefficient of x^r in

        x^s0 * prod_(i=1..n-m) (x^i + x^(2i) + ... + x^((q-1)i))  mod x^(qn) - 1

    counts the choices whose syndrome is r mod qn; the answer is the
    coefficient of x^0.

    The qn coefficients are packed into one int, x^r in the `width` bits
    at bit offset r * width, so multiplying by x^k is a left shift by
    k * width.  No coefficient ever exceeds the (q-1)^(n-m) choices in
    all, so width = bit_length((q-1)^(n-m)) keeps every sum inside its
    field: shifts and adds never carry from one field into the next.
    Factor i is x^i * (1 + x^i + ... + x^((q-2)i)).  With P the product
    so far times x^i and S_t = P * (1 + x^i + ... + x^((t-1)i)), the
    doubling S_2t = S_t + x^(ti) * S_t and S_(2t+1) = P + x^i * S_2t,
    one shift and one add each, walks the bits of q - 1 from the top
    and reaches S_(q-1) in under 2 * bitlen(q-1) shift-adds.  Before a
    factor every degree is below qn, and the factor adds at most
    (q-1)(n-1) < qn, so one fold, the low qn fields plus the rest
    shifted down, reduces mod x^(qn) - 1.

    A free position costs under 2 * bitlen(q-1) shift-adds over at
    most 2qn fields, and width is at most (n-m) * bitlen(q-1) bits, so
    the whole DP costs on the order of ((n-m) * bitlen(q-1))^2 * qn bit
    operations.  That estimate is checked against WORK_GUARD before any
    int is built.
    """
    m = len(suffix)
    if not 0 < m <= n:
        raise ValueError(f"the suffix must have 1 to n = {n} symbols, got {m}")
    free = n - m
    modulus = q * n
    work = (free * (q - 1).bit_length()) ** 2 * modulus
    if work > WORK_GUARD:
        raise ValueError(f"{work} bit operations exceed the work guard {WORK_GUARD}")
    fixed = vt_core.diff(vt_core.check_symbols(suffix, q, "suffix"), q)
    if 0 in fixed[:-1]:
        return 0
    width = ((q - 1) ** free).bit_length()
    span = modulus * width
    low_fields = (1 << span) - 1
    doublings = bin(q - 1)[3:]  # the bits of q - 1 below the leading 1
    counts = 1 << (vt_core.syndrome([0] * free + fixed) % modulus) * width
    for i in range(1, free + 1):
        step = i * width
        start = counts = counts << step
        terms = 1
        for bit in doublings:
            counts += counts << terms * step
            terms *= 2
            if bit == "1":
                counts = start + (counts << step)
                terms += 1
        counts = (counts & low_fields) + (counts >> span)
    return counts & ((1 << width) - 1)


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
    # floor(log_q size) = free + floor(log_q rows), a logarithm of a far
    # smaller int than size.
    redundancy = n * n - free - rll_suffix.int_log_floor(q, rows) if rows else None
    return CodeSize(n, q, u_count, v_count, size, redundancy)
