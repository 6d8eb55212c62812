"""Redundancy analysis and exact code-size counting.

Redundancy rows report, per (n, q), the component message lengths, the
encoder redundancy n^2 - total (in q-ary symbols; that is, 4n - 2 - k3)
and the theoretical lower/upper bounds it must sit between.  Floats
appear only here, in reporting, and in rll_suffix.int_log_floor, whose
float estimate exact int powers correct; everything the codec itself
computes stays in exact ints.

Code sizes are exact: the counts of protected first rows and last
columns, both read from one DP over syndrome residues, times
q^crisscross.free_cells(n) for the free interior cells (the marker and
parity cells are then forced).
CodeSize.redundancy is the code redundancy n^2 - floor(log_q |C|) that
the paper bounds.  The DP keeps its qn residue counts packed side by
side in one int, in fields wide enough that they never carry into each
other, so a step of the DP is a few big-int shifts and adds (derived
in protected_row_count).  The last column's free positions are the
first n - 3 of the first row's n - 2, so one walk over the first row's
factors yields both counts.  It is plain Python, needs no numpy, and
refuses work beyond WORK_GUARD = 2 * 10^10 bit operations; at
q = n + 1 that admits n <= 133.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import crisscross, rll_suffix, vt_core
from .crisscross import CodeParams

WORK_GUARD = 2 * 10**10
#: The largest n that analysis_row accepts: k3 takes a logarithm of (q-1)^(k1+k2).
MAX_ANALYZE_DIMENSION = 4096


class AnalysisRow(NamedTuple):
    """Redundancy figures of one (n, q) parameter point, a tuple in CSV column order."""

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


def analysis_row(n: int, q: int) -> AnalysisRow:
    """Redundancy row at (n, q) for n <= MAX_ANALYZE_DIMENSION; bounds are floats, the rest ints."""
    params = CodeParams(n, q)  # validates n and q and makes both plain ints
    n, q = params.n, params.q
    if n > MAX_ANALYZE_DIMENSION:
        raise ValueError(f"array dimension must be <= {MAX_ANALYZE_DIMENSION}, got n={n}")
    ml = crisscross.message_lengths(params)
    redundancy = n * n - ml.total
    log_q = math.log(q)
    lower = 2 * n + 2 * math.log(n) / log_q - 3
    upper = 2 * n + 2 * math.log(n) / log_q + (2 * n - 13) * math.log(q / (q - 1)) / log_q + 12
    return AnalysisRow(
        n, q, ml.k1, ml.k2, ml.k3, ml.total, redundancy, lower, upper, redundancy - lower
    )


def _row_cells(row: AnalysisRow) -> list[str]:
    return [f"{value:.6f}" if isinstance(value, float) else str(value) for value in row]


def to_csv(rows: list[AnalysisRow]) -> str:
    lines = [",".join(AnalysisRow._fields)]
    lines.extend(",".join(_row_cells(row)) for row in rows)
    return "\n".join(lines) + "\n"


def to_table(rows: list[AnalysisRow]) -> str:
    cells = [list(AnalysisRow._fields)] + [_row_cells(row) for row in rows]
    widths = [max(len(line[c]) for line in cells) for c in range(len(AnalysisRow._fields))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in cells]
    return "\n".join(lines) + "\n"


class CodeSize(NamedTuple):
    """Exact size of one code instance, a tuple."""

    n: int
    q: int
    first_row_count: int
    last_column_count: int
    size: int
    redundancy: int | None  # n^2 - floor(log_q size); None for an empty code


def protected_row_count(n: int, q: int, *suffixes: tuple[int, ...]) -> tuple[int, ...]:
    """Count the length-n words that protect a row or column, one count per suffix.

    A word qualifies when it lies in DVT_0(n; q), has no equal adjacent
    symbols and ends with the suffix.  In the differential word
    y = diff(x) a suffix of m symbols fixes y_(n-m+1), ..., y_n, and the
    word is a free choice of y_1, ..., y_(n-m), each in {1, ..., q-1}: a
    nonzero differential is exactly the RLL property.  So a suffix with
    a zero differential before its last entry counts 0.  With
    s0 = syndrome(fixed) + (n-m) * sum(fixed) the syndrome of the
    suffix's own entries at their positions, the coefficient of x^r in

        P_(n-m) = prod_(i=1..n-m) (x^i + x^(2i) + ... + x^((q-1)i))  mod x^(qn) - 1

    counts the choices whose syndrome is r mod qn; the answer is the
    coefficient of x^(-s0 mod qn).  Every suffix has the same modulus
    qn and the same factors, only fewer of them the longer it is, so
    one walk serves all suffixes: it multiplies the factors in from 1
    up, and reads each suffix's count once its own n - m factors are
    in.  count_code_size reads the protected last column (n - 3 free
    positions) and the protected first row (n - 2) from one walk.

    The qn coefficients are packed into one int, x^r in the `width` bits
    at bit offset r * width, so multiplying by x^k is a left shift by
    k * width.  No coefficient ever exceeds the (q-1)^free choices of
    the largest free count free = n - min(m), so
    width = bit_length((q-1)^free) keeps every sum inside its field:
    shifts and adds never carry from one field into the next.
    Factor i is x^i * (1 + x^i + ... + x^((q-2)i)).  With P the product
    so far times x^i and S_t = P * (1 + x^i + ... + x^((t-1)i)), the
    doubling S_2t = S_t + x^(ti) * S_t and S_(2t+1) = P + x^i * S_2t,
    one shift and one add each, walks the bits of q - 1 from the top
    and reaches S_(q-1) in under 2 * bitlen(q-1) shift-adds.  Before a
    factor every degree is below qn, and the factor adds at most
    (q-1)(n-1) < qn, so one fold, the low qn fields plus the rest
    shifted down, reduces mod x^(qn) - 1.

    A free position costs under 2 * bitlen(q-1) shift-adds over at
    most 2qn fields, and width is at most free * bitlen(q-1) bits, so
    the walk costs on the order of (free * bitlen(q-1))^2 * qn bit
    operations.  That estimate, at the largest free count, is checked
    against WORK_GUARD once, before any int is built.  The longer
    suffixes add no factor, so the ceiling is that of the shortest
    suffix alone: n <= 133 at q = n + 1 for the first row's m = 2.
    """
    if not suffixes:
        raise ValueError("give at least one suffix to count")
    modulus = q * n
    free = 0  # the largest free count, n - min(m)
    wanted = []  # (free count, residue to read, index) of each suffix that can count
    for k, suffix in enumerate(suffixes):
        fixed = vt_core.check_symbols(suffix, q, "suffix")
        m = len(fixed)
        if not 0 < m <= n:
            raise ValueError(f"the suffix must have 1 to n = {n} symbols, got {m}")
        free = max(free, n - m)
        fixed = vt_core.diff(fixed, q)
        if 0 not in fixed[:-1]:
            s0 = vt_core.syndrome(fixed) + (n - m) * sum(fixed)
            wanted.append((n - m, -s0 % modulus, k))
    work = (free * (q - 1).bit_length()) ** 2 * modulus
    if work > WORK_GUARD:
        raise ValueError(f"{work} bit operations exceed the work guard {WORK_GUARD}")
    width = ((q - 1) ** free).bit_length()
    span = modulus * width
    low_fields = (1 << span) - 1
    field = (1 << width) - 1
    doublings = bin(q - 1)[3:]  # the bits of q - 1 below the leading 1
    found = [0] * len(suffixes)
    counts, i = 1, 0
    for own_free, residue, k in sorted(wanted):
        while i < own_free:
            i += 1
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
        found[k] = counts >> residue * width & field
    return tuple(found)


def count_code_size(n: int, q: int, mode: str = "formula") -> CodeSize:
    """Exact |code(n, q)| by the structural formula.

    A codeword is a protected first row, a protected reversed last
    column and q^free_cells(n) free interior cells; the marker and
    parity cells are then forced.  "formula" is the only mode.
    """
    params = CodeParams(n, q)  # validates n >= 4, q >= 3 and makes both plain ints
    n, q = params.n, params.q
    if mode != "formula":
        raise ValueError(f'mode must be "formula", got {mode!r}')
    u_count, v_count = protected_row_count(
        n, q, crisscross.first_row_params(params).b, crisscross.last_column_params(params).b
    )
    rows = u_count * v_count
    free = crisscross.free_cells(n)
    size = rows * q**free
    # floor(log_q size) = free + floor(log_q rows), a logarithm of a far
    # smaller int than size.
    redundancy = n * n - free - rll_suffix.int_log_floor(q, rows) if rows else None
    return CodeSize(n, q, u_count, v_count, size, redundancy)
