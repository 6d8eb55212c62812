"""Run-length-limited suffix codes: index sets, encoder, decoder, recovery."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import (
    GOLDEN_CODEWORD_1D,
    GOLDEN_COLUMN_1D,
    GOLDEN_INTERMEDIATES_1D,
    encode_intermediates,
    enumerate_protected_words,
    rll_words,
)
from crisscodec import rll_suffix, vt_core
from crisscodec.crisscross import CodeParams, first_row_params
from crisscodec.errors import DecodingError, EncodingError
from crisscodec.rll_suffix import RllSuffixParams

GOLDEN_PARAMS = RllSuffixParams(7, 7, (0, 2))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RllSuffixParams(7, 2, (0, 1))  # q too small
        with pytest.raises(ValueError):
            RllSuffixParams(0, 7, (0, 2))
        with pytest.raises(ValueError, match="non-empty"):
            RllSuffixParams(7, 7, ())  # empty suffix
        with pytest.raises(ValueError):
            RllSuffixParams(7, 7, (2, 2))  # equal adjacent suffix symbols
        with pytest.raises(ValueError):
            RllSuffixParams(7, 7, (0, 7))  # symbol out of alphabet
        assert GOLDEN_PARAMS.m == 2
        assert GOLDEN_PARAMS.length == 9


class TestIndexSets:
    def test_golden(self):
        assert rll_suffix.index_sets(7, 7) == (1, (1, 6), (4, 5, 7), (2, 3))
        assert rll_suffix.index_sets(12, 3) == (
            3,
            (1, 2, 4, 8),
            (10, 11, 12),
            (3, 5, 6, 7, 9),
        )
        assert rll_suffix.index_sets(8, 9) == (1, (1, 8), (5, 6, 7), (2, 3, 4))

    def test_too_small(self):
        with pytest.raises(ValueError):
            rll_suffix.index_sets(5, 3)  # cannot reserve three high positions
        with pytest.raises(ValueError):
            rll_suffix.index_sets(6, 3)  # no data positions left
        with pytest.raises(ValueError, match="^base must be >= 2"):
            rll_suffix.index_sets(7, 2)  # alphabet below 3
        with pytest.raises(ValueError, match="^value must be >= 1"):
            rll_suffix.index_sets(0, 3)  # empty body

    def test_partition_properties(self):
        for q in (3, 4, 5, 7, 11):
            for n in range(8, 41):
                t, power, high, data = rll_suffix.index_sets(n, q)
                assert (q - 1) ** t <= n < (q - 1) ** (t + 1)
                assert power == tuple((q - 1) ** i for i in range(t + 1))
                assert len(high) == 3
                non_power = [i for i in range(n, 0, -1) if i not in set(power)]
                assert sorted(non_power[:3]) == list(high)
                everything = sorted(power + high + data)
                assert everything == list(range(1, n + 1))
                assert len(data) == n - t - 4 == rll_suffix.data_length(n, q)
                assert len(data) >= 1

    def test_data_length_small_binary_body(self):
        # floor(log_2 8) = 3, so a body of 8 over q=3 carries one symbol.
        assert rll_suffix.data_length(8, 3) == 1


class TestEncode:
    def test_golden_intermediates(self):
        x = rll_suffix.encode([0, 3], GOLDEN_PARAMS)
        assert x == GOLDEN_CODEWORD_1D
        assert encode_intermediates(x, 7, 7) == GOLDEN_INTERMEDIATES_1D

    def test_golden_column(self):
        params = RllSuffixParams(6, 7, (0, 1, 2))
        assert rll_suffix.encode([0], params) == GOLDEN_COLUMN_1D

    def test_proven_range_gate(self):
        # The range is computed: both points a fixed floor (body >= 8,
        # suffix <= 3) once refused are certified, so every residue encodes.
        # The messages and suffixes below reach all 3 * 16 residues.
        assert rll_suffix.encodable(7, 2, 7)
        assert rll_suffix.encode([0, 3], GOLDEN_PARAMS) == GOLDEN_CODEWORD_1D
        assert rll_suffix.encodable(12, 4, 3)
        residues = set()
        for suffix in rll_words(4, 3):
            params = RllSuffixParams(12, 3, suffix)
            for data in itertools.product((0, 1), repeat=5):
                x = rll_suffix.encode(list(data), params)
                assert rll_suffix.recover_data(x, params) == list(data)
                residues.add(encode_intermediates(x, 12, 3)["residue"])
        assert residues == set(range(3 * 16))

    def test_validates_data(self):
        params = RllSuffixParams(12, 3, (0, 1, 2))
        with pytest.raises(ValueError):
            rll_suffix.encode([0] * 4, params)  # needs 5 symbols
        with pytest.raises(ValueError):
            rll_suffix.encode([0, 0, 0, 0, 2], params)  # symbol must be <= q-2

    @pytest.mark.parametrize("bad", [True, 1.0], ids=repr)
    def test_data_symbols_must_be_plain_ints(self, bad):
        # A bool is not a data symbol, and a float is the caller's fault,
        # not a fault of the encoder's own output.
        params = first_row_params(CodeParams(11, 3))
        with pytest.raises(ValueError, match=r"^data\[0\] = "):
            rll_suffix.encode([bad, 0], params)

    def test_exhaustive_smallest_proven_body(self):
        params = RllSuffixParams(8, 3, (0,))
        words = []
        for f in (0, 1):
            x = rll_suffix.encode([f], params)
            assert rll_suffix.is_member(x, params)
            assert rll_suffix.recover_data(x, params) == [f]
            words.append(x)
            for d in range(1, 10):
                received = x[: d - 1] + x[d:]
                result = rll_suffix.decode(received, params)
                assert result.codeword == x
                assert result.position == d
        assert words[0] != words[1]

    def test_round_trip_all_messages(self):
        params = RllSuffixParams(12, 3, (0, 1, 2))
        seen = set()
        for data in itertools.product((0, 1), repeat=5):
            x = rll_suffix.encode(list(data), params)
            assert rll_suffix.is_member(x, params)
            assert rll_suffix.recover_data(x, params) == list(data)
            seen.add(tuple(x))
        assert len(seen) == 32  # encoding is injective

    def test_round_trip_nonzero_residue(self):
        width = rll_suffix.data_length(12, 5)
        residues = set()
        for suffix in rll_words(3, 5):
            params = RllSuffixParams(12, 5, suffix)
            for data in ([0] * width, [3] * width, list(range(width))):
                data = [d % 4 for d in data]
                x = rll_suffix.encode(data, params)
                assert rll_suffix.is_member(x, params)
                assert rll_suffix.recover_data(x, params) == data
                residues.add(encode_intermediates(x, 12, 5)["residue"])
        assert len(residues) == 65  # of the 5 * 15 residues

    def test_unproven_capacity_overflow(self):
        # At this uncertified point the greedy pass cannot absorb the
        # residue that this suffix and message leave; another suffix fits.
        assert not rll_suffix.encodable(8, 4, 3)
        params = RllSuffixParams(8, 3, (1, 2, 0, 2))
        with pytest.raises(EncodingError, match="residue 17 exceeds .* capacity"):
            rll_suffix.encode([0], params)
        params = RllSuffixParams(8, 3, (0, 1, 0, 1))
        assert rll_suffix.recover_data(rll_suffix.encode([0], params), params) == [0]

    def test_unproven_output_still_validated(self):
        # At an uncertified point every encode either overflows or yields
        # a genuine codeword, and both happen.
        outcomes = set()
        for suffix in rll_words(4, 3):
            params = RllSuffixParams(8, 3, suffix)
            for f in (0, 1):
                try:
                    x = rll_suffix.encode([f], params)
                except EncodingError:
                    outcomes.add("overflow")
                    continue
                assert rll_suffix.is_member(x, params)
                assert rll_suffix.recover_data(x, params) == [f]
                outcomes.add("codeword")
        assert outcomes == {"overflow", "codeword"}

    def test_output_failing_membership_is_encoding_error(self, monkeypatch):
        monkeypatch.setattr(rll_suffix, "is_member", lambda x, params: False)
        with pytest.raises(EncodingError, match="outside its own code"):
            rll_suffix.encode([0] * rll_suffix.data_length(7, 7), GOLDEN_PARAMS)


def greedy_overflows(n, m, q):
    """True iff the greedy pass overflows for some residue, by trying every one."""
    t, _, high, _ = rll_suffix.index_sets(n, q)
    for residue in range(q * (n + m)):
        for j in high:
            residue -= min(q - 2, residue // j) * j
        if residue >= (q - 1) ** (t + 1):
            return True
    return False


class TestEncodable:
    def test_matches_every_residue(self):
        seen = set()
        for n in range(5, 31):
            for q in range(3, 21):
                for m in (1, 2, 3, 4):
                    try:
                        rll_suffix.index_sets(n, q)
                    except ValueError:
                        with pytest.raises(ValueError):
                            rll_suffix.encodable(n, m, q)
                        continue
                    expected = not greedy_overflows(n, m, q)
                    assert rll_suffix.encodable(n, m, q) == expected, (n, m, q)
                    seen.add(expected)
        assert seen == {True, False}


class TestMembership:
    def test_golden(self):
        assert rll_suffix.is_member(GOLDEN_CODEWORD_1D, GOLDEN_PARAMS)
        # wrong suffix
        assert not rll_suffix.is_member([4, 2, 1, 4, 5, 2, 1, 0, 1], GOLDEN_PARAMS)
        # adjacent repeat
        assert not rll_suffix.is_member([4, 4, 1, 4, 5, 2, 1, 0, 2], GOLDEN_PARAMS)

    @pytest.mark.parametrize("q", [3, 4])
    def test_agrees_with_pure_enumeration(self, q):
        params = RllSuffixParams(5, q, (0, 1, 2))
        expected = {tuple(x) for x in enumerate_protected_words(8, q, (0, 1, 2))}
        got = {
            x
            for x in itertools.product(range(q), repeat=8)
            if rll_suffix.is_member(list(x), params)
        }
        assert got == expected
        assert got  # the code is not empty at these parameters


class TestDecode:
    def test_golden_positions(self):
        deleted_first = GOLDEN_CODEWORD_1D[1:]
        result = rll_suffix.decode(deleted_first, GOLDEN_PARAMS)
        assert result.codeword == GOLDEN_CODEWORD_1D
        assert result.position == 1
        deleted_last = GOLDEN_CODEWORD_1D[:-1]
        result = rll_suffix.decode(deleted_last, GOLDEN_PARAMS)
        assert result.codeword == GOLDEN_CODEWORD_1D
        assert result.position == 9

    def test_suffix_mismatch_rejected(self):
        # A word whose only consistent codeword ends with (0, 1), decoded
        # under suffix (0, 2) parameters, must be reported as hopeless.
        other = RllSuffixParams(7, 7, (0, 1))
        x = rll_suffix.encode([0, 0], other)
        params = RllSuffixParams(7, 7, (0, 2))
        with pytest.raises(DecodingError, match="^the only consistent codeword does not end"):
            rll_suffix.decode(x[1:], params)

    def test_validates_input(self):
        with pytest.raises(ValueError, match="received word of length 8, got 3"):
            rll_suffix.decode([0, 2, 0], GOLDEN_PARAMS)
        for call in (rll_suffix.is_member, rll_suffix.recover_data):
            with pytest.raises(ValueError, match="sequence of length 9, got 8"):
                call(GOLDEN_CODEWORD_1D[1:], GOLDEN_PARAMS)


class TestRecoverData:
    def test_golden(self):
        assert rll_suffix.recover_data(GOLDEN_CODEWORD_1D, GOLDEN_PARAMS) == [0, 3]

    def test_numpy_word(self):
        data = rll_suffix.recover_data(np.array(GOLDEN_CODEWORD_1D), GOLDEN_PARAMS)
        assert data == [0, 3] and all(type(f) is int for f in data)

    def test_word_is_checked_and_transformed_once(self, monkeypatch):
        calls = []
        real_check, real_diff = vt_core.check_symbols, vt_core.diff

        def check_spy(*args, **kwargs):
            calls.append("check_symbols")
            return real_check(*args, **kwargs)

        def diff_spy(*args, **kwargs):
            calls.append("diff")
            return real_diff(*args, **kwargs)

        monkeypatch.setattr(vt_core, "check_symbols", check_spy)
        monkeypatch.setattr(vt_core, "diff", diff_spy)
        for call in (rll_suffix.is_member, rll_suffix.recover_data):
            calls.clear()
            call(GOLDEN_CODEWORD_1D, GOLDEN_PARAMS)
            assert sorted(calls) == ["check_symbols", "diff"], call.__name__

    def test_rejects_non_member(self):
        bad = list(GOLDEN_CODEWORD_1D)
        bad[0] = (bad[0] + 1) % 7
        with pytest.raises(ValueError, match="not a codeword"):
            rll_suffix.recover_data(bad, GOLDEN_PARAMS)


class TestDigits:
    def test_round_trip(self):
        for base in (2, 3, 7, 10):
            for value in range(min(base**4, 200)):
                digits = rll_suffix.to_digits(value, base, 4)
                assert len(digits) == 4
                assert rll_suffix.from_digits(digits, base) == value

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            rll_suffix.to_digits(8, 2, 3)

    def test_int_log_floor(self):
        assert rll_suffix.int_log_floor(2, 8) == 3
        assert rll_suffix.int_log_floor(2, 7) == 2
        assert rll_suffix.int_log_floor(6, 5) == 0
        assert rll_suffix.int_log_floor(7, 4747561509943) == 15
        with pytest.raises(ValueError):
            rll_suffix.int_log_floor(1, 5)
        with pytest.raises(ValueError):
            rll_suffix.int_log_floor(2, 0)

    @pytest.mark.parametrize("base", [*range(2, 61), 256, 257, 2**31 - 1])
    def test_int_log_floor_matches_the_multiplying_loop(self, base):
        def loop(value):
            t, power = 0, base
            while power <= value:
                t, power = t + 1, power * base
            return t

        for t in [*range(40), 100, 1000]:
            for value in (base**t - 1, base**t, base**t + 1):
                if value >= 1:
                    assert rll_suffix.int_log_floor(base, value) == loop(value), (t, value)

    def test_int_log_floor_of_a_huge_power(self):
        # The multiplying loop would take 189 278 products of ints up to 300 000 bits long.
        t = rll_suffix.int_log_floor(3, 2**300_000)
        assert t == 189_278
        assert 3**t <= 2**300_000 < 3 ** (t + 1)
