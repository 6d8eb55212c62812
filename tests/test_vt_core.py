"""Differential transform, syndrome, membership and the 1-D deletion decoder."""

from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import (
    GOLDEN_CODEWORD_1D,
    adjacent_distinct_loop,
    brute_deletion_candidates,
    diff_loop,
    iter_words,
    rll_words,
    syndrome_loop,
)
from crisscodec import rll_suffix, vt_core
from crisscodec.errors import DecodingError
from crisscodec.rll_suffix import RllSuffixParams


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


class TestKernelsAgainstLoops:
    """diff and syndrome run in C builtins; index loops are the reference."""

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

    def test_empty_word(self):
        assert vt_core.syndrome([]) == syndrome_loop([]) == 0


class TestCheckSymbols:
    def test_a_one_shot_iterable_is_read_once(self):
        with pytest.raises(ValueError, match=r"^sequence\[0\] = 7 is outside the alphabet"):
            vt_core.check_symbols(iter([7, 8]), 3)
        assert vt_core.check_symbols((s for s in [2, 0]), 3) == [2, 0]

    def test_kernels_measure_the_word_they_checked(self):
        received = [2, 1, 4, 5, 2, 1, 0, 2]
        assert vt_core.decode_rll_deletion(iter(received), 7) == (GOLDEN_CODEWORD_1D, 1)
        with pytest.raises(ValueError, match="is not a sequence of symbols"):
            vt_core.decode_rll_deletion(5, 3)

    @pytest.mark.parametrize(
        "kernel,args",
        [
            (vt_core.diff, (iter([1, 2]), 3)),
            (vt_core.diff, ([1, "a"], 3)),
            (vt_core.syndrome, (5,)),
            (vt_core.diff_inverse, ([1, "a"], 3)),
            (vt_core.diff_inverse, (5, 3)),
        ],
    )
    def test_unchecked_kernels_refuse_a_non_word_with_value_error(self, kernel, args):
        # diff, diff_inverse and syndrome take no alphabet check; what they
        # cannot compute on is still a ValueError, never a TypeError.
        with pytest.raises(ValueError, match="is not a sequence of integers"):
            kernel(*args)


class TestMembership:
    """The syndrome test of DVT_0, as the one membership test, rll_suffix.is_member, applies it."""

    def test_membership_golden(self):
        assert rll_suffix.is_member(GOLDEN_CODEWORD_1D, RllSuffixParams(7, 7, (0, 2)))
        # diff([2, 0, 1]) = [2, 2, 1] has syndrome 9 = 3 * 3; diff([1, 2, 0])
        # = [2, 2, 0] has syndrome 6, and only the syndrome refuses it.
        assert rll_suffix.is_member([2, 0, 1], RllSuffixParams(1, 3, (0, 1)))
        assert not rll_suffix.is_member([1, 2, 0], RllSuffixParams(1, 3, (2, 0)))

    def test_membership_validates_input(self):
        with pytest.raises(ValueError, match=r"^sequence\[1\] = 3 is outside the alphabet"):
            rll_suffix.is_member([1, 3, 0], RllSuffixParams(1, 3, (0, 1)))

    def test_member_symbol_sum_property(self):
        # A word's symbol sum is congruent to its syndrome mod q, so the
        # members of DVT_0(n; q) have a symbol sum divisible by q.
        q = 3
        for n in range(1, 6):
            for x in iter_words(n, q):
                xs = list(x)
                assert sum(xs) % q == vt_core.syndrome(vt_core.diff(xs, q)) % q


class TestDeletionDecode:
    """decode_rll_deletion against the brute-force oracle, on every received word."""

    def test_golden(self):
        received = [2, 1, 4, 5, 2, 1, 0, 2]
        assert vt_core.decode_rll_deletion(received, 7) == (GOLDEN_CODEWORD_1D, 1)

    def test_no_candidate(self):
        # No word of DVT_0(3; 3) lies one deletion away from (1, 1).
        assert brute_deletion_candidates([1, 1], 3) == []
        with pytest.raises(DecodingError, match="^no run-length-limited codeword"):
            vt_core.decode_rll_deletion([1, 1], 3)

    def test_all_zero(self):
        # An all-zero word lies only in the ball of the all-zero codeword,
        # which is not run-length limited.
        for q in (3, 4, 5):
            for n in range(2, 9):
                assert brute_deletion_candidates([0] * (n - 1), q) == [[0] * n]
                with pytest.raises(DecodingError, match="^no run-length-limited codeword"):
                    vt_core.decode_rll_deletion([0] * (n - 1), q)

    def test_validates_input(self):
        with pytest.raises(ValueError):
            vt_core.decode_rll_deletion([0, 3, 0], 3)
        with pytest.raises(ValueError):
            vt_core.decode_rll_deletion([], 3)

    @pytest.mark.parametrize(
        "n,q",
        [(2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (7, 3), (3, 4), (4, 4), (5, 4), (6, 4),
         (4, 5), (5, 5)],
    )
    def test_agrees_with_bruteforce_on_every_input(self, n, q):
        """The congruence-solving search must find exactly the run-length-limited
        words that trying every (position, symbol) insertion finds, on
        *arbitrary* received words, and the position of the only deletion."""
        for w in iter_words(n - 1, q):
            received = list(w)
            found = brute_deletion_candidates(received, q)
            assert len(found) <= 1, "single-deletion balls must be disjoint"
            expected = [x for x in found if adjacent_distinct_loop(x)]
            if not expected:
                with pytest.raises(DecodingError, match="^no run-length-limited codeword"):
                    vt_core.decode_rll_deletion(received, q)
                continue
            x = expected[0]
            [position] = [p for p in range(1, n + 1) if x[: p - 1] + x[p:] == received]
            assert vt_core.decode_rll_deletion(received, q) == (x, position)


class TestRllDeletionDecode:
    def test_golden(self):
        result = vt_core.decode_rll_deletion([4, 2, 1, 4, 2, 1, 0, 2], 7)
        assert result.codeword == GOLDEN_CODEWORD_1D
        assert result.position == 5

    def test_exact_positions_exhaustive(self):
        q = 3
        pairs = 0
        for n in range(2, 12):
            for x in rll_words(n, q):
                if vt_core.syndrome(vt_core.diff(x, q)) % (q * n):
                    continue
                for d in range(1, n + 1):
                    received = x[: d - 1] + x[d:]
                    result = vt_core.decode_rll_deletion(received, q)
                    assert result.codeword == x
                    assert result.position == d
                    pairs += 1
        assert pairs == 2094

    def test_rejects_non_rll_codeword_ball(self):
        # (0, 0, 0, 0) is the only codeword over this ball, but it is not
        # run-length limited, so the RLL decoder reports no candidate.
        with pytest.raises(DecodingError, match="^no run-length-limited codeword"):
            vt_core.decode_rll_deletion([0, 0, 0], 3)
