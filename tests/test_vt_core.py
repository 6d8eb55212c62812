"""Differential transform, syndrome, membership and 1-D decoders."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from conftest import (
    GOLDEN_CODEWORD_1D,
    brute_deletion_candidates,
    brute_insertion_candidates,
    iter_words,
)
from crisscodec import vt_core
from crisscodec.errors import NoCandidateError
from crisscodec.vt_core import DvtParams


class TestDiff:
    def test_golden(self):
        assert vt_core.diff([1, 2, 0], 3) == [2, 2, 0]
        assert vt_core.diff(GOLDEN_CODEWORD_1D, 7) == [2, 1, 4, 6, 3, 1, 1, 5, 2]
        assert vt_core.diff(np.array([1, 2, 0]), 3) == [2, 2, 0]

    def test_inverse_golden(self):
        assert vt_core.diff_inverse([2, 2, 0], 3) == [1, 2, 0]
        assert vt_core.diff_inverse(np.array([2, 2, 0]), 3) == [1, 2, 0]

    def test_round_trip_exhaustive(self):
        for q in (2, 3, 4):
            for n in (1, 2, 3, 4):
                for x in iter_words(n, q):
                    xs = list(x)
                    y = vt_core.diff(xs, q)
                    assert vt_core.diff_inverse(y, q) == xs
                    assert vt_core.diff(vt_core.diff_inverse(xs, q), q) == xs

    def test_round_trip_random_large(self):
        rng = random.Random(0)
        for _ in range(50):
            q = rng.randrange(2, 50)
            xs = [rng.randrange(q) for _ in range(rng.randrange(1, 200))]
            assert vt_core.diff_inverse(vt_core.diff(xs, q), q) == xs

    def test_empty_rejected(self):
        for empty in ([], np.array([], dtype=int)):
            with pytest.raises(ValueError):
                vt_core.diff(empty, 3)
            with pytest.raises(ValueError):
                vt_core.diff_inverse(empty, 3)


class TestSyndrome:
    def test_golden(self):
        assert vt_core.syndrome([2, 1, 4, 6, 3, 1, 1, 5, 2]) == 126
        assert vt_core.syndrome([1, 0, 2]) == 7
        assert vt_core.syndrome([0]) == 0

    def test_exact_integer_no_reduction(self):
        # Large values must not wrap: the syndrome is an exact integer.
        y = [10**9] * 100
        assert vt_core.syndrome(y) == 10**9 * (100 * 101 // 2)


def diff_loop(x, q):
    return [(x[i] - x[i + 1]) % q for i in range(len(x) - 1)] + [x[-1]]


def syndrome_loop(y):
    total = 0
    for i in range(len(y)):
        total += (i + 1) * y[i]
    return total


def adjacent_distinct_loop(x):
    for i in range(len(x) - 1):
        if x[i] == x[i + 1]:
            return False
    return True


class TestKernelsAgainstLoops:
    """diff, syndrome and adjacent_distinct run in C builtins; index loops are the reference."""

    def test_random_words(self):
        rng = random.Random(7)
        for trial in range(600):
            q = rng.randrange(2, 300)
            x = [rng.randrange(q) for _ in range(rng.randrange(1, 40))]
            if trial % 3 == 0:  # make equal neighbours common
                x = [min(s, 1) for s in x]
            for word in (x, tuple(x), np.array(x)):
                assert vt_core.diff(word, q) == diff_loop(word, q)
                assert vt_core.syndrome(word) == syndrome_loop(word)
                assert vt_core.adjacent_distinct(word) == adjacent_distinct_loop(word)

    def test_empty_word(self):
        assert vt_core.syndrome([]) == syndrome_loop([]) == 0
        assert vt_core.adjacent_distinct([]) is adjacent_distinct_loop([]) is True


class TestDvtParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DvtParams(0, 3, 0)
        with pytest.raises(ValueError):
            DvtParams(5, 1, 0)
        with pytest.raises(ValueError):
            DvtParams(5, 3, 15)
        with pytest.raises(ValueError):
            DvtParams(5, 3, -1)
        assert DvtParams(5, 3, 14).modulus == 15

    def test_membership_golden(self):
        assert vt_core.is_dvt_member(GOLDEN_CODEWORD_1D, DvtParams(9, 7, 0))
        assert vt_core.is_dvt_member([1, 2, 0], DvtParams(3, 3, 6))
        assert not vt_core.is_dvt_member([1, 2, 0], DvtParams(3, 3, 0))

    def test_membership_validates_input(self):
        with pytest.raises(ValueError):
            vt_core.is_dvt_member([1, 2], DvtParams(3, 3, 0))
        with pytest.raises(ValueError):
            vt_core.is_dvt_member([1, 3, 0], DvtParams(3, 3, 0))

    def test_member_symbol_sum_property(self):
        # Members of DVT_a(n; q) have symbol sum congruent to a mod q.
        q = 3
        for n in range(1, 6):
            for x in iter_words(n, q):
                xs = list(x)
                a = vt_core.syndrome(vt_core.diff(xs, q)) % (q * n)
                assert sum(xs) % q == a % q


class TestDeletionDecode:
    def test_golden(self):
        result = vt_core.decode_deletion([2, 1, 4, 5, 2, 1, 0, 2], DvtParams(9, 7, 0))
        assert result.codeword == GOLDEN_CODEWORD_1D
        assert result.position == 1

    def test_all_zero(self):
        result = vt_core.decode_deletion([0, 0, 0], DvtParams(4, 3, 0))
        assert result.codeword == [0, 0, 0, 0]
        assert result.position == 1

    def test_no_candidate(self):
        # DVT_1(2; 3) = {(1, 0)}; the word (2,) is not in its deletion ball.
        assert brute_deletion_candidates([2], DvtParams(2, 3, 1)) == []
        with pytest.raises(NoCandidateError):
            vt_core.decode_deletion([2], DvtParams(2, 3, 1))

    def test_validates_input(self):
        with pytest.raises(ValueError):
            vt_core.decode_deletion([0, 0], DvtParams(4, 3, 0))
        with pytest.raises(ValueError):
            vt_core.decode_deletion([0, 3, 0], DvtParams(4, 3, 0))
        with pytest.raises(ValueError):
            vt_core.decode_deletion([], DvtParams(1, 3, 0))

    @pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (4, 3), (5, 3), (3, 4), (4, 4)])
    def test_agrees_with_bruteforce_on_every_input(self, n, q):
        """The congruence-solving decoder must behave exactly like trying
        every (position, symbol) insertion, on *arbitrary* received words."""
        for a in range(q * n):
            params = DvtParams(n, q, a)
            for w in iter_words(n - 1, q):
                received = list(w)
                expected = brute_deletion_candidates(received, params)
                assert len(expected) <= 1, "single-deletion balls must be disjoint"
                if not expected:
                    with pytest.raises(NoCandidateError):
                        vt_core.decode_deletion(received, params)
                else:
                    result = vt_core.decode_deletion(received, params)
                    assert result.codeword == expected[0]
                    positions = [
                        p
                        for p in range(1, n + 1)
                        if result.codeword[: p - 1] + result.codeword[p:] == received
                    ]
                    assert positions and result.position == min(positions)


class TestRllDeletionDecode:
    def test_golden(self):
        result = vt_core.decode_rll_deletion([4, 2, 1, 4, 2, 1, 0, 2], DvtParams(9, 7, 0))
        assert result.codeword == GOLDEN_CODEWORD_1D
        assert result.position == 5

    def test_exact_positions_exhaustive(self):
        q = 3
        for n in range(2, 7):
            for x in iter_words(n, q):
                xs = list(x)
                if not vt_core.adjacent_distinct(xs):
                    continue
                a = vt_core.syndrome(vt_core.diff(xs, q)) % (q * n)
                params = DvtParams(n, q, a)
                for d in range(1, n + 1):
                    received = xs[: d - 1] + xs[d:]
                    result = vt_core.decode_rll_deletion(received, params)
                    assert result.codeword == xs
                    assert result.position == d

    def test_rejects_non_rll_codeword_ball(self):
        # (0, 0, 0, 0) is the only codeword over this ball, but it is not
        # run-length limited, so the RLL decoder reports no candidate.
        with pytest.raises(NoCandidateError):
            vt_core.decode_rll_deletion([0, 0, 0], DvtParams(4, 3, 0))


class TestInsertionDecode:
    def test_golden(self):
        received = [3] + GOLDEN_CODEWORD_1D
        assert vt_core.decode_insertion(received, DvtParams(9, 7, 0)) == GOLDEN_CODEWORD_1D

    def test_validates_input(self):
        with pytest.raises(ValueError):
            vt_core.decode_insertion([0, 0, 0], DvtParams(4, 3, 0))

    @pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (4, 3), (3, 4)])
    def test_agrees_with_bruteforce_on_every_input(self, n, q):
        for a in range(q * n):
            params = DvtParams(n, q, a)
            for w in iter_words(n + 1, q):
                received = list(w)
                expected = brute_insertion_candidates(received, params)
                assert len(expected) <= 1, "single-insertion balls must be disjoint"
                if not expected:
                    with pytest.raises(NoCandidateError):
                        vt_core.decode_insertion(received, params)
                else:
                    assert vt_core.decode_insertion(received, params) == expected[0]


class TestDeletionIndex:
    def test_smallest_index_in_runs(self):
        assert vt_core.deletion_index([0, 0, 1, 0], [0, 1, 0]) == 1
        assert vt_core.deletion_index([1, 0, 0, 2], [1, 0, 2]) == 2
        assert vt_core.deletion_index([1, 2, 3], [1, 2]) == 3
        assert vt_core.deletion_index([1, 2, 3], [3, 1]) is None
        assert vt_core.deletion_index([1, 2, 3], [1, 2, 3]) is None

    def test_matches_definition_exhaustive(self):
        q = 3
        for n in (2, 3, 4, 5):
            for x in iter_words(n, q):
                for w in iter_words(n - 1, q):
                    positions = [
                        p
                        for p in range(1, n + 1)
                        if list(x[: p - 1] + x[p:]) == list(w)
                    ]
                    expected = min(positions) if positions else None
                    assert vt_core.deletion_index(list(x), list(w)) == expected
