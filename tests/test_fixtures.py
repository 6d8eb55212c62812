"""The colliding array pairs of conftest: distinct arrays, one received array."""

from __future__ import annotations

from conftest import (
    BINARY_PAIR_DELETIONS,
    BINARY_PAIR_FIRST,
    BINARY_PAIR_Q,
    BINARY_PAIR_SECOND,
    SMALL_PAIR_DELETIONS,
    SMALL_PAIR_FIRST,
    SMALL_PAIR_Q,
    SMALL_PAIR_SECOND,
)
from crisscodec import crisscross


def test_small_pair_collision_re_derived():
    (i_a, j_a), (i_b, j_b) = SMALL_PAIR_DELETIONS
    got_a = crisscross.corrupt(SMALL_PAIR_FIRST, i_a, j_a)
    got_b = crisscross.corrupt(SMALL_PAIR_SECOND, i_b, j_b)
    assert got_a == got_b == [[2]]
    assert SMALL_PAIR_FIRST != SMALL_PAIR_SECOND
    symbols = {v for X in (SMALL_PAIR_FIRST, SMALL_PAIR_SECOND) for r in X for v in r}
    assert symbols <= set(range(SMALL_PAIR_Q))


def test_small_pair_sums_match():
    for axis in (0, 1):
        for k in range(2):
            first = SMALL_PAIR_FIRST
            second = SMALL_PAIR_SECOND
            if axis == 0:
                assert sum(first[k]) == sum(second[k])
            else:
                assert sum(r[k] for r in first) == sum(r[k] for r in second)


def test_binary_pair_shapes_and_alphabet():
    for X in (BINARY_PAIR_FIRST, BINARY_PAIR_SECOND):
        assert len(X) == 16 and all(len(r) == 16 for r in X)
        assert all(v in range(BINARY_PAIR_Q) for r in X for v in r)


def test_binary_pair_collision_re_derived():
    (i_a, j_a), (i_b, j_b) = BINARY_PAIR_DELETIONS
    got_a = crisscross.corrupt(BINARY_PAIR_FIRST, i_a, j_a)
    got_b = crisscross.corrupt(BINARY_PAIR_SECOND, i_b, j_b)
    assert got_a == got_b
    assert BINARY_PAIR_FIRST != BINARY_PAIR_SECOND
