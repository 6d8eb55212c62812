"""Redundancy analysis and exact code-size counting.

Redundancy rows report, per (n, q), the component message lengths, the
encoder redundancy 4n - 2 - k3 (in q-ary symbols) and the theoretical
lower/upper bounds it must sit between.  Floats appear only here, in
reporting; everything the codec itself computes stays in exact ints.

Code sizes are counted two ways: `formula` multiplies the brute-forced
counts of valid first rows and last columns by q^((n-2)^2 - 2) free
interior cells (the parity cells are then forced), while `bruteforce`
enumerates every q^(n^2) array and tests the codeword conditions
directly.  Both enumerations are vectorized with numpy and guarded so
they refuse work beyond ~10^8 candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import crisscross, rll_suffix
from .crisscross import CodeParams

ENUMERATION_GUARD = 10**8

CSV_FIELDS = (
    "n",
    "q",
    "k1",
    "k2",
    "k3",
    "message_length",
    "encoder_redundancy",
    "lower_bound",
    "upper_bound",
    "gap",
)


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


def analysis_row(n: int, q: int) -> AnalysisRow:
    """Redundancy row at (n, q); bounds are floats, the rest exact ints."""
    ml = crisscross.message_lengths(CodeParams(n, q))
    redundancy = 4 * n - 2 - ml.k3
    log_q = math.log(q)
    lower = 2 * n + 2 * math.log(n) / log_q - 3
    upper = 2 * n + 2 * math.log(n) / log_q + (2 * n - 13) * math.log(q / (q - 1)) / log_q + 12
    return AnalysisRow(
        n, q, ml.k1, ml.k2, ml.k3, ml.total, redundancy, lower, upper, redundancy - lower
    )


def analyze_range(n_values: range | list[int], q_values: list[int]) -> list[AnalysisRow]:
    """Redundancy rows over a grid of dimensions and alphabet sizes."""
    return [analysis_row(n, q) for n in n_values for q in q_values]


def bounds_hold(row: AnalysisRow, slack: float = 1e-9) -> bool:
    """True iff lower - slack <= encoder_redundancy <= upper + slack."""
    return row.lower_bound - slack <= row.encoder_redundancy <= row.upper_bound + slack


def _row_cells(row: AnalysisRow) -> list[str]:
    return [
        str(row.n),
        str(row.q),
        str(row.k1),
        str(row.k2),
        str(row.k3),
        str(row.message_length),
        str(row.encoder_redundancy),
        f"{row.lower_bound:.6f}",
        f"{row.upper_bound:.6f}",
        f"{row.gap:.6f}",
    ]


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
    """Exact size of one code instance and how it was obtained."""

    n: int
    q: int
    mode: str
    first_row_count: int
    last_column_count: int
    size: int
    redundancy: int | None  # n^2 - floor(log_q size); None for an empty code


def protected_row_count(
    n: int, q: int, suffix: tuple[int, ...], collect: bool = False
) -> tuple[int, list[list[int]] | None]:
    """Count (optionally collect) length-n words that protect a row/column.

    A word qualifies when it lies in DVT_0(n; q), has no equal adjacent
    symbols and ends with `suffix`.  Enumerates all q^n candidates in
    vectorized chunks; refuses when q^n exceeds the guard.
    """
    total = q**n
    if total > ENUMERATION_GUARD:
        raise ValueError(
            f"q^n = {total} exceeds the enumeration guard {ENUMERATION_GUARD}"
        )
    modulus = q * n
    weights = np.arange(1, n, dtype=np.int64)
    suffix_arr = np.asarray(suffix, dtype=np.int64)
    powers = [q**k for k in range(n)]
    count = 0
    rows: list[list[int]] | None = [] if collect else None
    chunk = 1 << 20
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = np.empty((stop - start, n), dtype=np.int64)
        for k in range(n):
            digits[:, k] = (idx // powers[k]) % q
        d = (digits[:, :-1] - digits[:, 1:]) % q
        syn = d @ weights + digits[:, -1] * n
        mask = (syn % modulus == 0) & (d != 0).all(axis=1)
        mask &= (digits[:, n - len(suffix) :] == suffix_arr).all(axis=1)
        count += int(mask.sum())
        if rows is not None:
            rows.extend(digits[mask].tolist())
    return count, rows


def _count_bruteforce(n: int, q: int) -> tuple[int, int, int]:
    """Count codewords by enumerating every q^(n^2) array.

    Each codeword condition tests one linear form of the cells (numbered
    row-major): the base-q codes of the first row and of the reversed
    last column, the two marker cells, and the row and column sums mod q.
    The arrays are taken in mixed-radix chunks: the low cells run through
    a precomputed table of all their values and the high cells are
    constant within a chunk.  A form is then the table's share plus a
    shift fixed per chunk, so each condition tests the table's share
    against its target moved by that shift.
    """
    cells = n * n
    total = q**cells
    if total > ENUMERATION_GUARD:
        raise ValueError(
            f"q^(n^2) = {total} exceeds the enumeration guard {ENUMERATION_GUARD}"
        )
    u_count, u_rows = protected_row_count(n, q, (0, 2), collect=True)
    v_count, v_rows = protected_row_count(n, q, (0, 1, 2), collect=True)
    assert u_rows is not None and v_rows is not None
    powers_n = q ** np.arange(n, dtype=np.int64)
    u_codes = np.array(u_rows, dtype=np.int64).reshape(-1, n) @ powers_n
    v_codes = np.array(v_rows, dtype=np.int64).reshape(-1, n) @ powers_n

    forms = np.zeros((cells, 2 * n + 1), dtype=np.int64)
    forms[:n, 0] = powers_n  # first row
    forms[n * n - 1 :: -n, 1] = powers_n  # last column, bottom to top
    forms[2 * n - 2, 2] = 1  # marker cell that must hold 1
    forms[3 * n - 2, 3] = 1  # marker cell that must hold 2
    for i in range(1, n):  # rows 2..n
        forms[i * n : (i + 1) * n, 3 + i] = 1
    for j in range(1, n - 1):  # columns 2..n-1
        forms[j::n, 2 + n + j] = 1

    low = min(cells, rll_suffix.int_log_floor(q, 1 << 18))
    table = np.arange(q**low, dtype=np.int64)[:, None] // q ** np.arange(low) % q
    low_share = np.ascontiguousarray((table @ forms[:low]).T)  # one row per form
    low_share[4:] %= q
    high_powers = q ** np.arange(cells - low, dtype=np.int64)
    count = 0
    for high in range(q ** (cells - low)):
        shift = (high // high_powers % q) @ forms[low:]
        mask = np.isin(low_share[0], u_codes - shift[0])
        mask &= np.isin(low_share[1], v_codes - shift[1])
        mask &= (low_share[2] == 1 - shift[2]) & (low_share[3] == 2 - shift[3])
        mask &= (low_share[4:] == (-shift[4:] % q)[:, None]).all(axis=0)
        count += int(mask.sum())
    return count, u_count, v_count


def count_code_size(n: int, q: int, mode: str = "formula") -> CodeSize:
    """Exact |code(n, q)| via the structural formula or full enumeration.

    "bruteforce" enumerates all q^(n^2) arrays and refuses more than
    ENUMERATION_GUARD of them, so among n >= 4, q >= 3 it runs only at
    (4, 3), where the code is empty.  It is kept as the reference the
    formula is tested against.
    """
    params = CodeParams(n, q)  # validates n >= 4, q >= 3
    if mode == "formula":
        u_count, _ = protected_row_count(params.n, params.q, (0, 2))
        v_count, _ = protected_row_count(params.n, params.q, (0, 1, 2))
        size = u_count * v_count * q ** ((n - 2) ** 2 - 2)
    elif mode == "bruteforce":
        size, u_count, v_count = _count_bruteforce(n, q)
    else:
        raise ValueError(f'mode must be "formula" or "bruteforce", got {mode!r}')
    redundancy = n * n - rll_suffix.int_log_floor(q, size) if size > 0 else None
    return CodeSize(n, q, mode, u_count, v_count, size, redundancy)
