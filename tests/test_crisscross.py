"""Two-dimensional code: membership, corruption, codec round trips."""

from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import (
    GOLDEN_ARRAY,
    GOLDEN_CODEWORD_1D,
    GOLDEN_COLUMN_1D,
    GOLDEN_DATA,
    GOLDEN_RECEIVED_9_9,
    GOLDEN_WALKTHROUGH,
    build_structural_codeword,
    enumerate_protected_words,
)
from crisscodec import crisscross, fileio, rll_suffix, vt_core
from crisscodec.crisscross import CodeParams
from crisscodec.errors import DecodingError, EncodingError, NotDecodableError
from crisscodec.fixtures import SMALL_PAIR_FIRST, SMALL_PAIR_SECOND

GOLDEN_PARAMS = CodeParams(9, 7)

# The only protected first row / reversed last column at n=5, q=8; the
# code there is the smallest nonempty instance and is used for small
# whole-code sweeps.
SMALL_N, SMALL_Q = 5, 8
SMALL_U = [3, 2, 1, 0, 2]
SMALL_V = [6, 7, 0, 1, 2]


def small_codeword(fill):
    return build_structural_codeword(SMALL_N, SMALL_Q, SMALL_U, SMALL_V, fill)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CodeParams(3, 7)
        with pytest.raises(ValueError):
            CodeParams(9, 2)
        assert CodeParams(4, 3).n == 4


class TestMessageLengths:
    def test_golden_values(self):
        assert crisscross.message_lengths(CodeParams(11, 3)) == (2, 1, 1, 80)
        assert crisscross.message_lengths(CodeParams(12, 5)) == (5, 4, 7, 105)
        assert crisscross.message_lengths(CodeParams(16, 7)) == (9, 8, 15, 209)
        assert crisscross.message_lengths(GOLDEN_PARAMS) == (2, 1, 2, 49)

    def test_proven_range_gate(self):
        # (10, 3) has a layout, but a syndrome residue can overflow the
        # protected row's power positions, so it is refused ...
        with pytest.raises(EncodingError, match="not certified at n=10, q=3"):
            crisscross.message_lengths(CodeParams(10, 3))
        # ... below n = 8 the layout does not exist at all,
        with pytest.raises(ValueError, match="no data room"):
            crisscross.message_lengths(CodeParams(7, 7))
        # and at n = 8, q = 3 the protected row has no free symbols.
        with pytest.raises(ValueError, match="no data room"):
            crisscross.message_lengths(CodeParams(8, 3))

    def test_certified_range(self):
        # Every point of the paper's range n >= 11 is certified ...
        for n in range(11, 65):
            for q in range(3, 65):
                crisscross.message_lengths(CodeParams(n, q))
        for n, q in ((256, 257), (64, 257), (512, 65537)):
            crisscross.message_lengths(CodeParams(n, q))
        # ... and below it, the certified points are these (README table).
        accepted = {}
        for n in (8, 9, 10):
            for q in range(3, 65):
                try:
                    crisscross.message_lengths(CodeParams(n, q))
                except (ValueError, EncodingError):
                    continue
                accepted.setdefault(n, []).append(q)
        q_min = {8: 7, 9: 4, 10: 4}
        assert accepted == {n: list(range(q_min[n], 65)) for n in q_min}

    def test_total_formula(self):
        for n in (11, 13, 20):
            for q in (3, 5, 11):
                ml = crisscross.message_lengths(CodeParams(n, q))
                assert ml.total == n * n - 4 * n + 2 + ml.k3
                assert 1 <= ml.k1 and 1 <= ml.k2
                # k3 is maximal: q^k3 <= (q-1)^(k1+k2) < q^(k3+1)
                assert q**ml.k3 <= (q - 1) ** (ml.k1 + ml.k2) < q ** (ml.k3 + 1)


class TestMembership:
    def test_golden_is_codeword(self):
        assert crisscross.is_codeword(GOLDEN_ARRAY, GOLDEN_PARAMS)
        assert crisscross.first_violation(GOLDEN_ARRAY, GOLDEN_PARAMS) is None

    def test_first_row_violation(self):
        X = [list(r) for r in GOLDEN_ARRAY]
        X[0][0] = (X[0][0] + 1) % 7
        assert crisscross.first_violation(X, GOLDEN_PARAMS).startswith("condition 1")

    def test_last_column_violation(self):
        X = [list(r) for r in GOLDEN_ARRAY]
        X[5][8] = 5  # creates an adjacent repeat in the reversed last column
        assert crisscross.first_violation(X, GOLDEN_PARAMS).startswith("condition 2")

    def test_marker_violation(self):
        X = [list(r) for r in GOLDEN_ARRAY]
        X[1][7] = 4
        assert crisscross.first_violation(X, GOLDEN_PARAMS).startswith("condition 3")

    def test_row_sum_violation(self):
        X = [list(r) for r in GOLDEN_ARRAY]
        X[3][3] = (X[3][3] + 1) % 7
        assert crisscross.first_violation(X, GOLDEN_PARAMS) == (
            "condition 4: row 4 does not sum to 0 (mod q)"
        )

    def test_column_sum_violation(self):
        X = [list(r) for r in GOLDEN_ARRAY]
        X[4][1], X[4][2] = X[4][2], X[4][1]  # keeps the row sum intact
        assert crisscross.first_violation(X, GOLDEN_PARAMS) == (
            "condition 5: column 2 does not sum to 0 (mod q)"
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            crisscross.is_codeword(GOLDEN_RECEIVED_9_9, GOLDEN_PARAMS)
        with pytest.raises(ValueError):
            crisscross.is_codeword([[7] * 9] * 9, GOLDEN_PARAMS)  # symbol = q

    def test_codewords_have_zero_sums(self):
        assert crisscross.check_zero_sums(GOLDEN_ARRAY, 7)
        assert crisscross.check_zero_sums(small_codeword([0] * 7), SMALL_Q)
        assert crisscross.check_zero_sums(small_codeword([1, 7, 3, 0, 5, 2, 6]), SMALL_Q)

    def test_zero_sums_counterexample(self):
        # row sums fail
        assert not crisscross.check_zero_sums([[1, 2], [2, 1]], 4)
        # row sums fine, column 1 fails
        assert not crisscross.check_zero_sums([[1, 0, 2], [2, 0, 1], [1, 1, 1]], 3)
        assert crisscross.check_zero_sums([[1, 2], [2, 1]], 3)
        assert crisscross.check_zero_sums([[0, 0], [0, 0]], 3)


class TestCorrupt:
    def test_small_golden(self):
        assert crisscross.corrupt([[1, 1], [1, 2]], 1, 1) == [[2]]
        assert crisscross.corrupt([[1, 1], [1, 2]], 2, 2) == [[1]]

    def test_golden_array(self):
        assert crisscross.corrupt(GOLDEN_ARRAY, 9, 9) == GOLDEN_RECEIVED_9_9

    def test_agrees_with_numpy_delete(self):
        rng = random.Random(7)
        X = [[rng.randrange(5) for _ in range(6)] for _ in range(6)]
        A = np.array(X)
        for i in range(1, 7):
            for j in range(1, 7):
                expected = np.delete(np.delete(A, i - 1, axis=0), j - 1, axis=1)
                assert crisscross.corrupt(X, i, j) == expected.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            crisscross.corrupt([[1]], 1, 1)  # too small to shrink
        with pytest.raises(ValueError):
            crisscross.corrupt([[1, 2], [3, 4]], 0, 1)
        with pytest.raises(ValueError):
            crisscross.corrupt([[1, 2], [3, 4]], 1, 3)
        with pytest.raises(ValueError):
            crisscross.corrupt([[1, 2, 3], [4, 5, 6]], 1, 1)  # not square

    def test_does_not_mutate_input(self):
        X = [[1, 2], [3, 4]]
        crisscross.corrupt(X, 1, 2)
        assert X == [[1, 2], [3, 4]]


class TestDeletionBall:
    def test_constant_array_has_singleton_ball(self):
        ball = crisscross.deletion_ball([[0] * 4 for _ in range(4)])
        assert ball == {tuple((0, 0, 0) for _ in range(3))}

    def test_ball_size_bound(self):
        ball = crisscross.deletion_ball(GOLDEN_ARRAY)
        assert 1 <= len(ball) <= 81

    def test_colliding_pair(self):
        # These two arrays share sums but their deletion balls collide,
        # which is exactly why plain zero-sum parity cannot decode.
        first = [list(r) for r in SMALL_PAIR_FIRST]
        second = [list(r) for r in SMALL_PAIR_SECOND]
        assert crisscross.deletion_ball(first) & crisscross.deletion_ball(second)

    def test_codeword_balls_disjoint(self):
        rng = random.Random(11)
        fills = {tuple(rng.randrange(SMALL_Q) for _ in range(7)) for _ in range(12)}
        balls = [crisscross.deletion_ball(small_codeword(list(f))) for f in fills]
        for a in range(len(balls)):
            for b in range(a + 1, len(balls)):
                assert not balls[a] & balls[b]


class TestEncode:
    def test_golden(self):
        X, trace = crisscross.encode_with_trace(GOLDEN_DATA, GOLDEN_PARAMS)
        assert X == GOLDEN_ARRAY
        assert trace.packed == 18
        assert trace.digits == (0, 3, 0)
        assert trace.first_row == GOLDEN_CODEWORD_1D
        assert trace.reversed_last_column == GOLDEN_COLUMN_1D

    def test_all_zero_message(self):
        params = CodeParams(11, 3)
        X = crisscross.encode([0] * 80, params)
        assert crisscross.is_codeword(X, params)
        assert crisscross.recover_data(X, params) == [0] * 80

    def test_round_trip_random_messages(self):
        params = CodeParams(11, 3)
        total = crisscross.message_lengths(params).total
        rng = random.Random(3)
        seen = set()
        for _ in range(10):
            data = [rng.randrange(3) for _ in range(total)]
            X = crisscross.encode(data, params)
            assert crisscross.is_codeword(X, params)
            assert crisscross.recover_data(X, params) == data
            seen.add(tuple(map(tuple, X)))
        assert len(seen) == 10  # distinct messages give distinct arrays

    def test_validation(self):
        with pytest.raises(EncodingError, match="not certified"):
            crisscross.encode([0] * 63, CodeParams(10, 3))
        with pytest.raises(ValueError):
            crisscross.encode([0] * 48, GOLDEN_PARAMS)
        with pytest.raises(ValueError):
            crisscross.encode([7] + [0] * 48, GOLDEN_PARAMS)


class TestDecode:
    def test_golden_walkthrough(self):
        X, trace = crisscross.decode_with_trace(GOLDEN_RECEIVED_9_9, GOLDEN_PARAMS)
        assert X == GOLDEN_ARRAY
        assert trace.column_restored is True
        assert trace.column_word == GOLDEN_WALKTHROUGH["column_word"]
        assert trace.row_position == 1
        assert trace.row_index == GOLDEN_WALKTHROUGH["row_index"]
        assert trace.row_values == GOLDEN_WALKTHROUGH["row_values"]
        assert trace.col_index == 9

    def test_every_corruption_of_golden(self):
        for i in range(1, 10):
            for j in range(1, 10):
                Y = crisscross.corrupt(GOLDEN_ARRAY, i, j)
                assert crisscross.decode(Y, GOLDEN_PARAMS) == GOLDEN_ARRAY

    def test_interior_column_uses_first_row(self):
        Y = crisscross.corrupt(GOLDEN_ARRAY, 2, 4)
        X, trace = crisscross.decode_with_trace(Y, GOLDEN_PARAMS)
        assert X == GOLDEN_ARRAY
        assert trace.column_restored is False
        assert trace.row_index == 2
        assert trace.col_index == 4

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            crisscross.decode(GOLDEN_ARRAY, GOLDEN_PARAMS)  # 9x9, expected 8x8
        with pytest.raises(ValueError):
            crisscross.decode(GOLDEN_RECEIVED_9_9, CodeParams(11, 3))

    def test_garbage_input_is_not_decodable(self):
        with pytest.raises(NotDecodableError):
            crisscross.decode([[1] * 8 for _ in range(8)], GOLDEN_PARAMS)

    def test_tampered_cell_is_not_decodable(self):
        Y = crisscross.corrupt(GOLDEN_ARRAY, 9, 9)
        Y[0][0] = (Y[0][0] + 1) % 7
        with pytest.raises(NotDecodableError):
            crisscross.decode(Y, GOLDEN_PARAMS)

    def test_smallest_dimension_has_empty_column_code(self):
        # At n = 4, q = 7 there is no valid protected column at all, so
        # every received array is rejected rather than mis-decoded.
        params = CodeParams(4, 7)
        for Y in ([[0] * 3] * 3, [[1, 2, 3], [4, 5, 6], [0, 1, 2]]):
            with pytest.raises(DecodingError):
                crisscross.decode([list(r) for r in Y], params)


class TestInputBoundary:
    """Each public array call checks its input once; numpy integers are accepted."""

    def test_numpy_integers_round_trip_as_plain_ints(self):
        X = crisscross.encode(np.array(GOLDEN_DATA), GOLDEN_PARAMS)
        decoded = crisscross.decode(np.array(GOLDEN_RECEIVED_9_9), GOLDEN_PARAMS)
        data = crisscross.recover_data(np.array(GOLDEN_ARRAY), GOLDEN_PARAMS)
        assert X == decoded == GOLDEN_ARRAY and data == GOLDEN_DATA
        for value in [*data, *(v for row in X + decoded for v in row)]:
            assert type(value) is int

    def test_out_of_alphabet_entries_are_named(self):
        Y = np.array(GOLDEN_RECEIVED_9_9)
        Y[2][5] = 7
        message = r"^row 3\[5\] = np\.int64\(7\) is outside the alphabet \[0, 7\)$"
        with pytest.raises(ValueError, match=message):
            crisscross.decode(Y, GOLDEN_PARAMS)
        X = [list(row) for row in GOLDEN_ARRAY]
        X[4][0] = True
        with pytest.raises(ValueError, match=r"^row 5\[0\] = True is outside"):
            crisscross.recover_data(X, GOLDEN_PARAMS)

    def test_each_input_array_is_scanned_once(self, monkeypatch):
        # Each public call checks its input array, or its data, once, and a
        # valid array of plain ints in one pass: no row is checked on its
        # own.  The first row and the last column are checked again, as 1-D
        # words, by the public rll_suffix functions; that is one O(n) scan
        # each.  The decoder's final check scans its own output, not Y.
        # Reading an array file runs the same one array check.
        scanned, symbol_scans = [], []
        real_array, real_symbols = crisscross.check_array, vt_core.check_symbols

        def array_spy(X, rows, cols, q):
            scanned.append(X)
            return real_array(X, rows, cols, q)

        def symbols_spy(x, q, name="sequence"):
            if name == "data":
                scanned.append(x)
            symbol_scans.append(name)
            return real_symbols(x, q, name)

        monkeypatch.setattr(crisscross, "check_array", array_spy)
        monkeypatch.setattr(vt_core, "check_symbols", symbols_spy)
        data = list(GOLDEN_DATA)
        Y = [list(r) for r in GOLDEN_RECEIVED_9_9]
        X = [list(r) for r in GOLDEN_ARRAY]
        for call, given in (
            (lambda: crisscross.encode(data, GOLDEN_PARAMS), data),
            (lambda: crisscross.decode(Y, GOLDEN_PARAMS), Y),
            (lambda: crisscross.recover_data(X, GOLDEN_PARAMS), X),
            (lambda: crisscross.first_violation(X, GOLDEN_PARAMS), X),
        ):
            scanned.clear()
            call()
            assert sum(s is given for s in scanned) == 1
        assert not any(name.startswith("row ") for name in symbol_scans)

        text = fileio.dumps(fileio.ArrayFile("array", 7, 9, rows=GOLDEN_ARRAY))
        scanned.clear()
        symbol_scans.clear()
        f = fileio.loads(text)
        assert f.rows == tuple(map(tuple, GOLDEN_ARRAY))
        assert len(scanned) == 1 and symbol_scans == []

    @pytest.mark.parametrize("bad", [True, np.int64(7), 2.0, "3", -1, 7], ids=repr)
    def test_one_pass_check_agrees_with_the_row_by_row_check(self, bad):
        # Whatever the one-pass check refuses, the error is the one the
        # row-by-row check gives: it names the first bad entry.
        rng = random.Random(f"one-pass:{bad!r}")
        for _ in range(20):
            received = rng.random() < 0.5
            A = [list(r) for r in (GOLDEN_RECEIVED_9_9 if received else GOLDEN_ARRAY)]
            r, k = rng.randrange(len(A)), rng.randrange(len(A))
            A[r][k] = bad
            with pytest.raises(ValueError) as reference:
                for i, row in enumerate(A, start=1):
                    vt_core.check_symbols(row, GOLDEN_PARAMS.q, f"row {i}")
            call = crisscross.decode if received else crisscross.first_violation
            with pytest.raises(ValueError) as got:
                call(A, GOLDEN_PARAMS)
            assert type(got.value) is ValueError
            assert str(got.value) == str(reference.value)
            assert str(got.value).startswith(f"row {r + 1}[{k}] = {bad!r} ")

    def test_ragged_array_names_the_bad_row(self):
        X = [list(r) for r in GOLDEN_ARRAY]
        X[2].pop()
        with pytest.raises(ValueError, match=r"^expected a 9x9 array, row 3 has 8 entries$"):
            crisscross.first_violation(X, GOLDEN_PARAMS)
        Y = [list(r) for r in GOLDEN_RECEIVED_9_9]
        Y[4].append(0)
        with pytest.raises(ValueError, match=r"^expected a 8x8 array, row 5 has 9 entries$"):
            crisscross.decode(Y, GOLDEN_PARAMS)
        with pytest.raises(ValueError, match=r"^expected a 8x8 array, got 9 rows$"):
            crisscross.decode([row[:8] for row in GOLDEN_ARRAY], GOLDEN_PARAMS)

    def test_final_check_catches_a_wrong_parity_rebuild(self, monkeypatch):
        real = crisscross._parity
        monkeypatch.setattr(
            crisscross, "_parity", lambda sums, q: [(v + 1) % q for v in real(sums, q)]
        )
        Y = crisscross.corrupt(GOLDEN_ARRAY, 5, 4)
        with pytest.raises(NotDecodableError, match="^reconstructed array is not a codeword"):
            crisscross.decode(Y, GOLDEN_PARAMS)

    def test_parity_outside_the_alphabet_is_refused(self, monkeypatch):
        # A _parity that forgot "% q" still brings every sum to 0 (mod q),
        # so only an alphabet check of the computed entries catches it.
        received = [
            crisscross.corrupt(GOLDEN_ARRAY, i, j) for i in range(1, 10) for j in range(1, 10)
        ]
        monkeypatch.setattr(crisscross, "_parity", lambda sums, q: [-s for s in sums])
        with pytest.raises(EncodingError, match="parity entry is outside the alphabet"):
            crisscross.encode(GOLDEN_DATA, GOLDEN_PARAMS)
        finals = 0
        for Y in received:
            with pytest.raises(NotDecodableError) as refused:
                crisscross.decode(Y, GOLDEN_PARAMS)
            finals += str(refused.value).startswith("reconstructed array is not a codeword: row ")
        assert finals > 0


class TestRecoverData:
    def test_golden(self):
        got = crisscross.recover_data(GOLDEN_ARRAY, GOLDEN_PARAMS)
        assert got == GOLDEN_DATA

    def test_rejects_non_codeword(self):
        X = [list(r) for r in GOLDEN_ARRAY]
        X[3][3] = (X[3][3] + 1) % 7
        with pytest.raises(ValueError, match="not a codeword"):
            crisscross.recover_data(X, GOLDEN_PARAMS)

    def test_rejects_codeword_outside_encoder_image(self):
        # A perfectly valid codeword whose protected digits pack to a
        # value >= q^k3 can never be produced by encode.
        u = rll_suffix.encode([5, 5], crisscross.first_row_params(GOLDEN_PARAMS))
        v = rll_suffix.encode([5], crisscross.last_column_params(GOLDEN_PARAMS))
        X = build_structural_codeword(9, 7, u, v, [0] * 47)
        assert crisscross.is_codeword(X, GOLDEN_PARAMS)
        with pytest.raises(ValueError, match="encoder image"):
            crisscross.recover_data(X, GOLDEN_PARAMS)


class TestSmallCodeSweep:
    def test_structural_words_are_codewords_and_decode(self):
        params = CodeParams(SMALL_N, SMALL_Q)
        rng = random.Random(5)
        fills = [[0] * 7] + [
            [rng.randrange(SMALL_Q) for _ in range(7)] for _ in range(5)
        ]
        for fill in fills:
            X = small_codeword(fill)
            assert crisscross.is_codeword(X, params)
            for i in range(1, SMALL_N + 1):
                for j in range(1, SMALL_N + 1):
                    Y = crisscross.corrupt(X, i, j)
                    assert crisscross.decode(Y, params) == X

    def test_protected_words_pinned(self):
        assert enumerate_protected_words(5, 8, (0, 2)) == [SMALL_U]
        assert enumerate_protected_words(5, 8, (0, 1, 2)) == [SMALL_V]
