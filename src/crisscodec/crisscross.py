"""Two-dimensional codes correcting one row deletion plus one column deletion.

A codeword is an n x n array X over {0, ..., q-1} such that

  1. the first row belongs to RLL_DVT_0(n-2, 2; (0, 2)),
  2. the reversed last column (read bottom to top) belongs to
     RLL_DVT_0(n-3, 3; (0, 1, 2)),
  3. X[2][n-1] = 1 and X[3][n-1] = 2 (1-based),
  4. every row except the first sums to 0 (mod q), and
  5. every column except the first and last sums to 0 (mod q).

Conditions 1, 4 and 5 force *every* row and column to sum to 0 (mod q).
The decoder therefore works in two steps: `_locate` pins down the
deleted row and column through the protected last column and first row,
and parity then rebuilds them.  The corner entries fixed by conditions
1-3 let `_locate` tell from the received array alone whether the deleted
column was the last one.

Arrays are lists of row lists; positions are 1-based in the public API.

The array layout is stated once, by `first_row_params` and
`last_column_params` (the 1-D codes of conditions 1 and 2) and
`_message_slices` (the free interior cells, in message order); message
lengths, `free_cells` and `analysis`'s code sizes derive from them.

Input is checked once, at the public boundary: `first_violation`,
`encode`, `decode` and `recover_data` check the shape and alphabet of
what they are given, and the helpers they call assume valid input.
`check_array` is that one array check, and `fileio` checks the arrays
it reads with it too.  An array of plain ints is checked as a whole:
one pass counts its plain-int entries and one collects their distinct
values.  Only if that fails is it checked row by row, which coerces
other integer types (numpy's, say), rejects bool and names the first
bad entry as `row r[k]`, a 1-based row r and a 0-based entry k.  The
sum conditions 4 and 5 are C-level passes too.  `recover_data` reads
each protected word once: the 1-D recovery that reads its digits is
also its condition 1 or 2 check, and its EncodingError refuses one
that the 1-D encoder never writes.  No public function mutates the
arrays it is given.  The encoder checks the alphabet of the parity
entries it computed before it checks the codeword conditions.  The
decoder runs the full `first_violation` on its output and reports any
failure there, a rebuilt entry outside the alphabet included, as
DecodingError; that is what guarantees that it never returns a
non-codeword.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice, repeat
from operator import countOf, mod, neg
from typing import Iterable, NamedTuple, Sequence, Sized

from . import rll_suffix, vt_core
from .errors import DecodingError, EncodingError
from .rll_suffix import RllSuffixParams, from_digits, int_log_floor, to_digits

Array = list[list[int]]


class CodeParams(NamedTuple("CodeParams", [("n", int), ("q", int)])):
    """Array dimension n and alphabet size q of one code instance, a tuple (n, q).

    n and q are stored as plain ints, so that a numpy-typed instance can
    neither overflow nor leave numpy values in the layout caches.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, n: int, q: int) -> CodeParams:
        n, q = vt_core.plain_int("n", n), vt_core.plain_int("q", q)
        if n < 4:
            raise ValueError(f"array dimension must be >= 4, got n={n}")
        if q < 3:
            raise ValueError(f"alphabet size must be >= 3, got q={q}")
        return super().__new__(cls, n, q)


class MessageLengths(NamedTuple):
    """Symbol counts carried by the protected row/column and the payload.

    k1 and k2 are the data symbol counts of the 1-D codes
    first_row_params and last_column_params, k3 the number of q-ary
    data symbols packed into them, and total = free_cells(n) + k3 the
    full message length.  Those two and _message_slices are the one
    statement of the array layout.
    """

    k1: int
    k2: int
    k3: int
    total: int


@lru_cache
def first_row_params(params: CodeParams) -> RllSuffixParams:
    """1-D code protecting the first row."""
    return RllSuffixParams(params.n - 2, params.q, (0, 2))


@lru_cache
def last_column_params(params: CodeParams) -> RllSuffixParams:
    """1-D code protecting the reversed last column."""
    return RllSuffixParams(params.n - 3, params.q, (0, 1, 2))


def check_array(
    X: Sequence[Sequence[int]], rows: int, cols: int, q: int
) -> Sequence[Sequence[int]]:
    """The rows of X as plain ints; raises unless X is a rows x cols array over the alphabet.

    An array of plain ints in range is checked as a whole and returned as
    it is.  Anything else goes row by row through check_symbols, which
    coerces other integer types and names the first bad entry.  A
    one-shot iterable of rows is read once into a list.  An X that is
    not iterable, or a row without a length, is a ValueError too.
    """
    try:
        if iter(X) is X:
            X = list(X)
        lengths = list(map(len, X))
    except TypeError:
        raise ValueError(f"expected a {rows}x{cols} array, {_unsized_part(X)}") from None
    if len(lengths) != rows:
        raise ValueError(f"expected a {rows}x{cols} array, got {len(lengths)} rows")
    if lengths.count(cols) != rows:
        i = next(i for i, length in enumerate(lengths) if length != cols)
        raise ValueError(f"expected a {rows}x{cols} array, row {i + 1} has {lengths[i]} entries")
    if countOf(map(type, chain.from_iterable(X)), int) == rows * cols:
        symbols = set().union(*X)
        if min(symbols) >= 0 and max(symbols) < q:
            return X
    return [vt_core.check_symbols(row, q, f"row {i}") for i, row in enumerate(X, start=1)]


def _unsized_part(X: object) -> str:
    """What check_array found without a length: the first such row, or X itself."""
    if isinstance(X, Iterable):
        for i, row in enumerate(X, start=1):
            if not isinstance(row, Sized):
                return f"row {i} is not a sequence"
    return f"got {type(X).__name__}"


def reversed_last_column(X: Sequence[Sequence[int]]) -> list[int]:
    """Last column of X read bottom to top."""
    return [row[-1] for row in reversed(X)]


def _parity(sums: Iterable[int], q: int) -> list[int]:
    """The entries that bring each of the given sums to 0 (mod q)."""
    return list(map(mod, map(neg, sums), repeat(q)))


@lru_cache
def _message_slices(n: int) -> tuple[tuple[int, int, int], ...]:
    """Message cells in message order, as 0-based (row, start column, end column).

    They are the interior cells, rows and columns 1..n-2, except the two
    marker cells next to the last column in rows 1 and 2.
    """
    return ((1, 1, n - 2), (2, 1, n - 2)) + tuple((i, 1, n - 1) for i in range(3, n - 1))


def free_cells(n: int) -> int:
    """Cells _message_slices(n) yields: (n-2)^2 interior cells minus the two markers."""
    return (n - 2) ** 2 - 2


def _assemble(
    u: Sequence[int], v: Sequence[int], cells: Sequence[int], params: CodeParams
) -> Array:
    """The codeword with first row u, reversed last column v and these message cells.

    The markers are placed, then the parity entries complete the last row
    first and the first column second: the first-column parities depend
    on the completed last row.
    """
    n, q = params.n, params.q
    X: Array = [[0] * n for _ in range(n)]
    X[0] = list(u)
    for row, symbol in zip(X, reversed(v)):
        row[-1] = symbol
    X[1][n - 2] = 1
    X[2][n - 2] = 2
    start = 0
    for r, a, b in _message_slices(n):
        X[r][a:b] = cells[start : start + b - a]
        start += b - a
    X[-1][1:-1] = _parity(list(map(sum, zip(*X[:-1])))[1:-1], q)
    # The first-column entries below the first row are still 0 here.
    for row, value in zip(X[1:], _parity(map(sum, X[1:]), q)):
        row[0] = value
    return X


_CONDITION_1 = "condition 1: first row is not a protected 1-D codeword"
_CONDITION_2 = "condition 2: reversed last column is not a protected 1-D codeword"


def _violation(X: Sequence[Sequence[int]], params: CodeParams) -> str | None:
    """first_violation for an array already known to have the right shape and alphabet."""
    if not rll_suffix.is_member(X[0], first_row_params(params)):
        return _CONDITION_1
    if not rll_suffix.is_member(reversed_last_column(X), last_column_params(params)):
        return _CONDITION_2
    return _unprotected_violation(X, params)


def _unprotected_violation(X: Sequence[Sequence[int]], params: CodeParams) -> str | None:
    """The first violated condition among 3-5, the ones outside the protected words.

    Each sum condition is one pass of C-level maps; only a failed pass
    scans again, in Python, to name the first bad row or column.
    """
    n, q = params.n, params.q
    if X[1][n - 2] != 1 or X[2][n - 2] != 2:
        return "condition 3: marker entries next to the last column are wrong"
    if any(map(mod, map(sum, X[1:]), repeat(q))):
        for i, row in enumerate(X[1:], start=2):
            if sum(row) % q:
                return f"condition 4: row {i} does not sum to 0 (mod q)"
    if any(map(mod, map(sum, islice(zip(*X), 1, n - 1)), repeat(q))):
        for j, column in enumerate(zip(*X), start=1):
            if 1 < j < n and sum(column) % q:
                return f"condition 5: column {j} does not sum to 0 (mod q)"
    return None


def first_violation(X: Sequence[Sequence[int]], params: CodeParams) -> str | None:
    """Name of the first violated codeword condition, or None if valid.

    Raises ValueError unless X is an n x n array over the alphabet.
    """
    return _violation(check_array(X, params.n, params.n, params.q), params)


def corrupt(X: Sequence[Sequence[int]], i: int, j: int) -> Array:
    """Delete row i and column j (1-based) from a square array."""
    try:
        n = len(X)
        square = n >= 2 and all(len(row) == n for row in X)
    except TypeError:
        square = False
    if not square:
        raise ValueError("input must be a square array of dimension >= 2")
    for name, index in (("row", i), ("column", j)):
        if not 1 <= vt_core.plain_int(f"{name} index", index) <= n:
            raise ValueError(f"{name} index must be an integer in [1, {n}], got {index!r}")
    Y = [list(row) for row in X]
    del Y[i - 1]
    for row in Y:
        del row[j - 1]
    return Y


def message_lengths(params: CodeParams) -> MessageLengths:
    """Per-component message lengths of the encoder at these parameters.

    The one parameter gate of encode and recover_data: raises ValueError
    when the layout leaves no data room in the protected row or column
    (every n < 8), and EncodingError unless rll_suffix.encodable
    certifies both protected codes.
    """
    n, q = params.n, params.q
    row, col = first_row_params(params), last_column_params(params)
    try:
        k1 = rll_suffix.index_sets(row.n, q).k
        k2 = rll_suffix.index_sets(col.n, q).k
    except ValueError:
        raise ValueError(
            f"parameters n={n}, q={q} leave no data room in the protected row/column"
        ) from None
    if not (rll_suffix.encodable(row.n, row.m, q) and rll_suffix.encodable(col.n, col.m, q)):
        raise EncodingError(
            f"the encoder is not certified at n={n}, q={q}: a syndrome residue "
            f"can overflow the power positions of the protected row or column"
        )
    k3 = int_log_floor(q, (q - 1) ** (k1 + k2))
    return MessageLengths(k1, k2, k3, free_cells(n) + k3)


def encode(data: Sequence[int], params: CodeParams) -> Array:
    """Encode message_lengths(params).total q-ary symbols into an array.

    The first k3 symbols are packed into an integer, re-expanded in base
    q-1 and spread over the protected first row and last column; the
    rest fill the array interior directly, and parity entries complete it.
    """
    n, q = params.n, params.q
    data = vt_core.check_symbols(data, q, "data")
    if len(data) < free_cells(n):  # every message is longer: refused before any layout
        raise ValueError(f"expected more than {free_cells(n)} data symbols, got {len(data)}")
    ml = message_lengths(params)
    if len(data) != ml.total:
        raise ValueError(f"expected {ml.total} data symbols, got {len(data)}")

    packed = from_digits(data[: ml.k3], q)
    digits = to_digits(packed, q - 1, ml.k1 + ml.k2)
    u = rll_suffix.encode(digits[: ml.k1], first_row_params(params))
    v = rll_suffix.encode(digits[ml.k1 :], last_column_params(params))

    X = _assemble(u, v, data[ml.k3 :], params)
    # Every other entry is checked data, a marker or part of a checked 1-D
    # codeword; _violation sees the parity entries only through sums mod q.
    parity = X[-1] + [row[0] for row in X]
    if min(parity) < 0 or max(parity) >= q:
        violation = f"a parity entry is outside the alphabet [0, {q})"
    else:
        violation = _violation(X, params)
    if violation is not None:
        raise EncodingError(f"encoder produced an invalid array: {violation}")
    return X


def _locate(work: Array, rows: list[int], cols: list[int], params: CodeParams) -> tuple[int, int]:
    """The deleted row i and column j, 1-based, of a checked (n-1) x (n-1) received array.

    rows and cols are the parity vectors of work: the entries that bring
    each of its rows and each of its columns to 0 (mod q).  The markers
    of condition 3 make the corner pair (work[0][-1], work[1][-1])
    increase exactly when column n was deleted: it is then one of
    (0, 1), (1, 2) and (0, 2), and otherwise one of (2, 1), (2, 0) and
    (1, 0).  The reversed last column, restored as rows reversed when
    j = n, lost its entry at position n + 1 - i, and its 1-D decode
    locates row i.  When j < n the first row, restored as cols when
    i = 1, lost its entry at position j, and its 1-D decode locates
    column j.  A refusal is a DecodingError that names the row or column
    it could not locate.

    So the path depends only on the corner pair, the reversed last
    column (or the row sums, as rows, when j = n), the first row (or
    the column sums, as cols, when i = 1) and (i, j).  Every
    row and column of a codeword sums to 0 (mod q), so those sums give
    back exactly the deleted entries, and a located (i, j) is rebuilt
    exactly by parity.  Any protected first row and reversed last
    column complete to a codeword.  Hence decode(corrupt(X, i, j)) == X
    for every codeword X at (n, q) and every (i, j) if and only if
    rll_suffix.decode returns position p for each protected reversed
    last column that lost its entry at p, for p = 1..n, and for each
    protected first row that lost its entry at p, for p = 1..n-1.
    """
    n = params.n
    last_column_deleted = work[0][-1] < work[1][-1]
    v = rows[::-1] if last_column_deleted else reversed_last_column(work)
    i = 0  # until the deleted row is located
    try:
        i = n + 1 - rll_suffix.decode(v, last_column_params(params)).position
        if last_column_deleted:
            return i, n
        u = cols if i == 1 else work[0]
        return i, rll_suffix.decode(u, first_row_params(params)).position
    except (DecodingError, ValueError) as exc:
        raise DecodingError(f"cannot locate the deleted {'column' if i else 'row'}: {exc}") from exc


def decode(Y: Sequence[Sequence[int]], params: CodeParams) -> Array:
    """Rebuild the codeword from an (n-1) x (n-1) received array.

    Y is checked and its parity vectors rows and cols are computed once,
    as _locate takes them.  Once _locate has found the deleted row i and
    column j, row i is inserted as cols and column j as rows, with the
    entry at (i, j), -sum(cols) mod q, inserted at position i.  Both
    parity vectors sum to minus the total of Y (mod q), so that entry
    brings row i and column j to 0 alike.  The result is validated
    against the codeword conditions.  A ValueError there means that a
    rebuilt entry is outside the alphabet; like every other failure, it
    is raised as DecodingError.
    """
    work = [list(row) for row in check_array(Y, params.n - 1, params.n - 1, params.q)]
    rows = _parity(map(sum, work), params.q)
    cols = _parity(map(sum, zip(*work)), params.q)
    i, j = _locate(work, rows, cols, params)
    rows.insert(i - 1, -sum(cols) % params.q)
    work.insert(i - 1, cols)
    for row, value in zip(work, rows):
        row.insert(j - 1, value)
    try:
        violation = first_violation(work, params)
    except ValueError as exc:
        violation = str(exc)
    if violation is not None:
        raise DecodingError(f"reconstructed array is not a codeword: {violation}")
    return work


def recover_data(X: Sequence[Sequence[int]], params: CodeParams) -> list[int]:
    """Read the message symbols back out of a codeword (inverse of encode).

    Each protected word is read once: rll_suffix.recover_data both
    checks it and reads its digits.  Its ValueError for a non-codeword is
    reported as condition 1 or 2; its EncodingError for a codeword that
    its encoder never writes puts the array outside the encoder image.
    Conditions 3-5 are checked after them, so a non-codeword names the
    condition that first_violation names.
    """
    n, q = params.n, params.q
    X = check_array(X, n, n, q)
    ml = message_lengths(params)
    digits: list[int] = []
    written = True
    for word, code, condition in (
        (X[0], first_row_params(params), _CONDITION_1),
        (reversed_last_column(X), last_column_params(params), _CONDITION_2),
    ):
        try:
            digits += rll_suffix.recover_data(word, code)
        except EncodingError:
            written = False
        except ValueError as exc:
            raise ValueError(f"input is not a codeword: {condition}") from exc
    violation = _unprotected_violation(X, params)
    if violation is not None:
        raise ValueError(f"input is not a codeword: {violation}")

    packed = from_digits(digits, q - 1)
    if not written or packed >= q**ml.k3:
        raise ValueError(
            "protected row/column carry a value outside the encoder image"
        )

    data = to_digits(packed, q, ml.k3)
    for r, a, b in _message_slices(n):
        data += X[r][a:b]
    return data
