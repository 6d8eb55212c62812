"""Reference array pairs with colliding criss-cross deletions.

Both embedded pairs are distinct arrays that produce the *same* received
array after a single row+column deletion.  They witness why a
criss-cross deletion code needs positional protection (the protected
first row and last column of this codec) rather than bare row/column
sums: sum-based or row-code-based reconstruction cannot tell the two
originals apart.

The small pair lives over the alphabet {0..3}; deleting row 1/column 1
of the first array and row 2/column 2 of the second yields [[2]] both
times, even though the two arrays have identical row and column sums.
The binary pair is a 16x16 example where deleting the penultimate row
of the first array and the last row of the second (plus the first
column of each) collide.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .crisscross import corrupt

SMALL_PAIR_Q = 4
SMALL_PAIR_FIRST = ((1, 1), (1, 2))
SMALL_PAIR_SECOND = ((2, 0), (0, 3))
SMALL_PAIR_DELETIONS = ((1, 1), (2, 2))

_Z = (0,) * 16
_R1 = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0)
_R2 = (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1)
_R6 = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1)
_R8 = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1)
_R10 = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)
_R11 = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1)
_R12 = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1)
_R13 = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)
_R14 = (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0)
_R15 = (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
_SHARED = (_R1, _R2, _R1, _R2, _Z, _R6, _Z, _R8, _Z, _R10, _R11, _R12, _R13, _R14)

BINARY_PAIR_Q = 2
BINARY_PAIR_FIRST = _SHARED + (_R15, _Z)
BINARY_PAIR_SECOND = _SHARED + (_Z, _R15)
BINARY_PAIR_DELETIONS = ((15, 1), (16, 1))


class FixtureCheck(NamedTuple):
    name: str
    ok: bool
    detail: str


def _sums(X: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rows = tuple(sum(r) for r in X)
    cols = tuple(sum(r[j] for r in X) for j in range(len(X[0])))
    return rows, cols


def verify_fixture_pairs() -> list[FixtureCheck]:
    """Re-derive the collision properties of the embedded fixture pairs."""
    checks = []

    rows_a, cols_a = _sums(SMALL_PAIR_FIRST)
    rows_b, cols_b = _sums(SMALL_PAIR_SECOND)
    checks.append(
        FixtureCheck(
            "small pair: matching row and column sums",
            rows_a == rows_b and cols_a == cols_b,
            f"rows {rows_a} vs {rows_b}, columns {cols_a} vs {cols_b}",
        )
    )
    (i_a, j_a), (i_b, j_b) = SMALL_PAIR_DELETIONS
    got_a = corrupt(SMALL_PAIR_FIRST, i_a, j_a)
    got_b = corrupt(SMALL_PAIR_SECOND, i_b, j_b)
    checks.append(
        FixtureCheck(
            "small pair: colliding deletions",
            got_a == got_b == [[2]],
            f"({i_a},{j_a}) of the first and ({i_b},{j_b}) of the second "
            f"give {got_a} and {got_b}",
        )
    )

    diff_cells = sum(
        a != b
        for row_a, row_b in zip(BINARY_PAIR_FIRST, BINARY_PAIR_SECOND)
        for a, b in zip(row_a, row_b)
    )
    checks.append(
        FixtureCheck(
            "binary pair: distinct arrays",
            diff_cells == 4,
            f"arrays differ in {diff_cells} entries (expected 4)",
        )
    )
    (i_a, j_a), (i_b, j_b) = BINARY_PAIR_DELETIONS
    collide = corrupt(BINARY_PAIR_FIRST, i_a, j_a) == corrupt(BINARY_PAIR_SECOND, i_b, j_b)
    checks.append(
        FixtureCheck(
            "binary pair: colliding deletions",
            collide,
            f"({i_a},{j_a}) of the first and ({i_b},{j_b}) of the second "
            f"{'collide' if collide else 'differ'}",
        )
    )
    return checks
