"""Two-dimensional code: membership, corruption, codec round trips."""

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN_ARRAY,
    GOLDEN_CODEWORD_1D,
    GOLDEN_COLUMN_1D,
    GOLDEN_DATA,
    GOLDEN_RECEIVED_9_9,
    GOLDEN_WALKTHROUGH,
    SMALL_PAIR_FIRST,
    SMALL_PAIR_SECOND,
    build_structural_codeword,
    codewords_over,
    deletion_ball,
    enumerate_protected_words,
    zero_sums,
)
from crisscodec import crisscross, fileio, rll_suffix, vt_core
from crisscodec.crisscross import CodeParams
from crisscodec.errors import CodecError, DecodingError, EncodingError

GOLDEN_PARAMS = CodeParams(9, 7)

# The only protected first row / reversed last column at n=5, q=8; the
# code there is the smallest nonempty instance and is used for small
# whole-code sweeps.
SMALL_N, SMALL_Q = 5, 8
SMALL_U = [3, 2, 1, 0, 2]
SMALL_V = [6, 7, 0, 1, 2]
# A protected first row at (9, 4) that the encoder never writes.
UNWRITTEN_ROW_9_4 = [0, 1, 3, 0, 3, 2, 1, 0, 2]


def small_codeword(fill):
    return build_structural_codeword(SMALL_N, SMALL_Q, SMALL_U, SMALL_V, fill)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CodeParams(3, 7)
        with pytest.raises(ValueError):
            CodeParams(9, 2)
        assert CodeParams(4, 3).n == 4

    def test_integer_types_are_stored_as_plain_ints(self):
        # int64 arithmetic would overflow (q-1)^(k1+k2) at (64, 257), and the
        # layout caches would hand numpy-typed 1-D params to the equal plain key.
        expected = (58, 57, 114, 3956)
        params = CodeParams(np.int64(64), np.int64(257))
        assert (type(params.n), type(params.q)) == (int, int)
        assert crisscross.message_lengths(params) == expected
        assert crisscross.message_lengths(CodeParams(64, 257)) == expected
        assert type(crisscross.first_row_params(CodeParams(64, 257)).q) is int
        for n, q in ((11.0, 3), (11, 3.0), (True, 3), (11, "3"), (None, 3)):
            with pytest.raises(ValueError, match="must be an integer"):
                CodeParams(n, q)

    def test_params_are_an_immutable_record(self):
        params = CodeParams(11, 3)
        assert repr(params) == "CodeParams(n=11, q=3)"
        assert hash(CodeParams(np.int64(11), np.int64(3))) == hash(params)
        with pytest.raises(AttributeError):
            params.n = 12
        with pytest.raises(AttributeError):
            params.extra = 0
        with pytest.raises(ValueError, match="array dimension must be >= 4"):
            params._replace(n=3)
        # Equal params share one entry of each layout cache.
        numpy_params = CodeParams(np.int64(64), np.int64(257))
        for layout in (crisscross.first_row_params, crisscross.last_column_params):
            assert layout(numpy_params) is layout(CodeParams(64, 257))


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

    def test_one_int_log_floor_per_call(self, monkeypatch):
        # The split comes from the cached index_sets; only k3 takes a logarithm.
        original, calls = rll_suffix.int_log_floor, []

        def spy(base, value):
            calls.append((base, value))
            return original(base, value)

        params = CodeParams(11, 3)
        crisscross.message_lengths(params)  # fills the caches
        monkeypatch.setattr(rll_suffix, "int_log_floor", spy)
        monkeypatch.setattr(crisscross, "int_log_floor", spy)
        for _ in range(3):
            assert crisscross.message_lengths(params) == (2, 1, 1, 80)
        assert calls == [(3, 2**3)] * 3

    def test_refused_point_encodes_every_message(self):
        # The gate certifies all q(n+m) syndrome residues, but at (10, 3)
        # each protected code carries one base-2 digit, and both of its
        # values encode under both codes: the refusal is conservative.
        params = CodeParams(10, 3)
        for code in (crisscross.first_row_params(params), crisscross.last_column_params(params)):
            assert rll_suffix.index_sets(code.n, code.q).k == 1
            for digit in (0, 1):
                x = rll_suffix.encode([digit], code)
                assert rll_suffix.recover_data(x, code) == [digit]

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
        # The paper's closed forms, at every certified point of the grid.
        def floor_log(base, value):
            t = 0
            while base ** (t + 1) <= value:
                t += 1
            return t

        checked = 0
        for n in range(8, 65):
            for q in range(3, 65):
                try:
                    ml = crisscross.message_lengths(CodeParams(n, q))
                except (ValueError, EncodingError):
                    continue
                checked += 1
                assert ml.k1 == n - 6 - floor_log(q - 1, n - 2)
                assert ml.k2 == n - 7 - floor_log(q - 1, n - 3)
                assert ml.total == n * n - 4 * n + 2 + ml.k3
                assert 1 <= ml.k1 and 1 <= ml.k2
                # k3 is maximal: q^k3 <= (q-1)^(k1+k2) < q^(k3+1)
                assert q**ml.k3 <= (q - 1) ** (ml.k1 + ml.k2) < q ** (ml.k3 + 1)
        assert checked == 54 * 62 + 58 + 61 + 61
        # free_cells is the closed form of the cells _message_slices yields.
        for n in range(4, 65):
            cells = sum(end - start for _, start, end in crisscross._message_slices(n))
            assert crisscross.free_cells(n) == cells == (n - 2) ** 2 - 2


def reference_violation(X, params: CodeParams) -> str | None:
    """first_violation of a checked array, as a plain loop over every row and column."""
    n, q = params.n, params.q
    if not rll_suffix.is_member(X[0], crisscross.first_row_params(params)):
        return "condition 1: first row is not a protected 1-D codeword"
    if not rll_suffix.is_member(
        [row[-1] for row in reversed(X)], crisscross.last_column_params(params)
    ):
        return "condition 2: reversed last column is not a protected 1-D codeword"
    if X[1][n - 2] != 1 or X[2][n - 2] != 2:
        return "condition 3: marker entries next to the last column are wrong"
    for i, total in enumerate(map(sum, X)):
        if i > 0 and total % q != 0:
            return f"condition 4: row {i + 1} does not sum to 0 (mod q)"
    for j, total in enumerate(map(sum, zip(*X))):
        if 0 < j < n - 1 and total % q != 0:
            return f"condition 5: column {j + 1} does not sum to 0 (mod q)"
    return None


class TestMembership:
    def test_golden_is_codeword(self):
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

    @pytest.mark.parametrize("n, q", [(11, 3), (12, 5)])
    def test_every_checked_column_sum(self, n, q):
        # +a in column j and -a in column 1 of row 6 keep every row sum and
        # break only column j's, since column 1 is not checked; j = n - 1
        # is the column next to the protected last one.
        params = CodeParams(n, q)
        rng = random.Random(f"column-sum:{n}:{q}")
        X = crisscross.encode(
            [rng.randrange(q) for _ in range(crisscross.message_lengths(params).total)], params
        )
        for j in range(2, n):
            for a in (1, q - 1):
                Y = [list(r) for r in X]
                Y[5][j - 1] = (Y[5][j - 1] + a) % q
                Y[5][0] = (Y[5][0] - a) % q
                expected = f"condition 5: column {j} does not sum to 0 (mod q)"
                assert crisscross.first_violation(Y, params) == expected
                with pytest.raises(ValueError, match=re.escape(expected)):
                    crisscross.recover_data(Y, params)

    @pytest.mark.parametrize(
        "region", ["first row", "last column", "marker", "interior", "row swap", "row 1 and 4"]
    )
    def test_error_texts_match_the_reference_loop(self, region):
        # first_violation and recover_data name the condition, row and column
        # that the reference loop names.  A "row swap" moves a +a/-a pair within
        # one row, which keeps the row sums and breaks column sums only.
        n, q = GOLDEN_PARAMS
        rng = random.Random(f"error-texts:{region}")
        markers = {(1, n - 2), (2, n - 2)}
        interior = [(r, c) for r in range(1, n) for c in range(n - 1) if (r, c) not in markers]
        for _ in range(30):
            X = [list(row) for row in GOLDEN_ARRAY]
            if region == "row swap":
                r = rng.randrange(1, n)
                c1, c2 = rng.sample(range(n - 1), 2)
                a = rng.randrange(1, q)
                X[r][c1], X[r][c2] = (X[r][c1] + a) % q, (X[r][c2] - a) % q
            else:
                cells = {
                    "first row": [(0, rng.randrange(n))],
                    "last column": [(rng.randrange(1, n), n - 1)],
                    "marker": [rng.choice(sorted(markers))],
                    "interior": [rng.choice(interior)],
                    "row 1 and 4": [(0, rng.randrange(n)), (3, rng.randrange(1, n - 1))],
                }[region]
                for r, c in cells:
                    X[r][c] = (X[r][c] + rng.randrange(1, q)) % q
            expected = reference_violation(X, GOLDEN_PARAMS)
            assert expected is not None
            if region == "row 1 and 4":
                assert expected.startswith("condition 1")
                fixed_first_row = [GOLDEN_ARRAY[0]] + X[1:]
                assert reference_violation(fixed_first_row, GOLDEN_PARAMS).startswith(
                    "condition 4: row 4 "
                )
            assert crisscross.first_violation(X, GOLDEN_PARAMS) == expected
            with pytest.raises(ValueError) as refused:
                crisscross.recover_data(X, GOLDEN_PARAMS)
            assert str(refused.value) == f"input is not a codeword: {expected}"

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            crisscross.first_violation(GOLDEN_RECEIVED_9_9, GOLDEN_PARAMS)
        with pytest.raises(ValueError):
            crisscross.first_violation([[7] * 9] * 9, GOLDEN_PARAMS)  # symbol = q

    def test_codewords_have_zero_sums(self):
        # Conditions 1, 4 and 5 force the first row and the first and last
        # columns to sum to 0 as well.
        assert zero_sums(GOLDEN_ARRAY, 7)
        assert zero_sums(small_codeword([0] * 7), SMALL_Q)
        assert zero_sums(small_codeword([1, 7, 3, 0, 5, 2, 6]), SMALL_Q)

    def test_zero_sums_counterexample(self):
        # The zero_sums oracle is not vacuous.  Row sums fail:
        assert not zero_sums([[1, 2], [2, 1]], 4)
        # row sums fine, column 1 fails:
        assert not zero_sums([[1, 0, 2], [2, 0, 1], [1, 1, 1]], 3)
        assert zero_sums([[1, 2], [2, 1]], 3)
        assert zero_sums([[0, 0], [0, 0]], 3)


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
        X = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        for i, j in ((1.5, 2), (2, 1.5), (True, 2), (2, False), ("1", 2)):
            with pytest.raises(ValueError, match="index must be an integer"):
                crisscross.corrupt(X, i, j)

    def test_does_not_mutate_input(self):
        X = [[1, 2], [3, 4]]
        crisscross.corrupt(X, 1, 2)
        assert X == [[1, 2], [3, 4]]


class TestDeletionBall:
    def test_constant_array_has_singleton_ball(self):
        ball = deletion_ball([[0] * 4 for _ in range(4)])
        assert ball == {tuple((0, 0, 0) for _ in range(3))}

    def test_ball_size_bound(self):
        ball = deletion_ball(GOLDEN_ARRAY)
        assert 1 <= len(ball) <= 81
        assert ball == {
            tuple(map(tuple, crisscross.corrupt(GOLDEN_ARRAY, i, j)))
            for i in range(1, 10)
            for j in range(1, 10)
        }

    def test_colliding_pair(self):
        # These two arrays share sums but their deletion balls collide,
        # which is exactly why plain zero-sum parity cannot decode.
        first = [list(r) for r in SMALL_PAIR_FIRST]
        second = [list(r) for r in SMALL_PAIR_SECOND]
        assert deletion_ball(first) & deletion_ball(second)

    def test_codeword_balls_disjoint(self):
        rng = random.Random(11)
        fills = {tuple(rng.randrange(SMALL_Q) for _ in range(7)) for _ in range(12)}
        balls = [deletion_ball(small_codeword(list(f))) for f in fills]
        for a in range(len(balls)):
            for b in range(a + 1, len(balls)):
                assert not balls[a] & balls[b]


class TestEncode:
    def test_golden(self):
        X = crisscross.encode(GOLDEN_DATA, GOLDEN_PARAMS)
        assert X == GOLDEN_ARRAY
        first_row, column = X[0], [row[-1] for row in reversed(X)]
        assert first_row == GOLDEN_CODEWORD_1D
        assert column == GOLDEN_COLUMN_1D
        # The first k3 = 2 data symbols, packed base q, re-expanded base q-1
        # and split over the protected row and column.
        digits = rll_suffix.recover_data(
            first_row, crisscross.first_row_params(GOLDEN_PARAMS)
        ) + rll_suffix.recover_data(column, crisscross.last_column_params(GOLDEN_PARAMS))
        assert digits == [0, 3, 0]
        q = GOLDEN_PARAMS.q
        packed = sum(d * (q - 1) ** i for i, d in enumerate(digits))
        assert packed == 18 == GOLDEN_DATA[0] + q * GOLDEN_DATA[1]

    def test_all_zero_message(self):
        params = CodeParams(11, 3)
        X = crisscross.encode([0] * 80, params)
        assert crisscross.first_violation(X, params) is None
        assert crisscross.recover_data(X, params) == [0] * 80

    def test_round_trip_random_messages(self):
        params = CodeParams(11, 3)
        total = crisscross.message_lengths(params).total
        rng = random.Random(3)
        seen = set()
        for _ in range(10):
            data = [rng.randrange(3) for _ in range(total)]
            X = crisscross.encode(data, params)
            assert crisscross.first_violation(X, params) is None
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


def decode_corpus() -> list[tuple[list[list[int]], CodeParams]]:
    """2 000 seeded received arrays: every deletion of the golden array and
    of one (11, 3) codeword, each clean and with one substituted cell, then
    random (11, 3) arrays."""
    rng = random.Random(1817)

    def substituted(Y, q):
        Y = [list(row) for row in Y]
        r, c = rng.randrange(len(Y)), rng.randrange(len(Y))
        Y[r][c] = (Y[r][c] + rng.randrange(1, q)) % q
        return Y

    small = CodeParams(11, 3)
    message = [rng.randrange(3) for _ in range(crisscross.message_lengths(small).total)]
    corpus = []
    for params, X in ((GOLDEN_PARAMS, GOLDEN_ARRAY), (small, crisscross.encode(message, small))):
        for i, j in product(range(1, params.n + 1), repeat=2):
            Y = crisscross.corrupt(X, i, j)
            corpus += [(Y, params), (substituted(Y, params.q), params)]
    while len(corpus) < 2000:
        corpus.append(([[rng.randrange(3) for _ in range(10)] for _ in range(10)], small))
    return corpus


def decode_outcome(Y, params: CodeParams) -> str:
    """The returned array, or the type and text of the exception."""
    try:
        return repr(crisscross.decode(Y, params))
    except (CodecError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestDecode:
    def test_golden_walkthrough(self, rll_decode_calls):
        X = crisscross.decode(GOLDEN_RECEIVED_9_9, GOLDEN_PARAMS)
        assert X == GOLDEN_ARRAY
        # Column 9 was restored from parity: the first row is never decoded.
        [(column_word, position)] = rll_decode_calls
        assert (column_word, position) == (GOLDEN_WALKTHROUGH["column_word"], 1)
        row_index = GOLDEN_PARAMS.n - position + 1
        assert row_index == GOLDEN_WALKTHROUGH["row_index"]
        assert X[row_index - 1] == GOLDEN_WALKTHROUGH["row_values"]

    def test_every_corruption_of_golden(self, rll_decode_calls):
        # The column word locates row i (position n - i + 1); the first row
        # locates column j unless j = n, whose column is restored from parity.
        n = GOLDEN_PARAMS.n
        u, v = GOLDEN_CODEWORD_1D, GOLDEN_COLUMN_1D
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                rll_decode_calls.clear()
                Y = crisscross.corrupt(GOLDEN_ARRAY, i, j)
                assert crisscross.decode(Y, GOLDEN_PARAMS) == GOLDEN_ARRAY
                column_call = (v[: n - i] + v[n - i + 1 :], n - i + 1)
                row_call = (u[: j - 1] + u[j:], j)
                expected = [column_call] + ([row_call] if j < n else [])
                assert rll_decode_calls == expected, (i, j)

    def test_interior_column_uses_first_row(self, rll_decode_calls):
        Y = crisscross.corrupt(GOLDEN_ARRAY, 2, 4)
        X = crisscross.decode(Y, GOLDEN_PARAMS)
        assert X == GOLDEN_ARRAY
        assert [position for _, position in rll_decode_calls] == [8, 4]  # row 2, column 4
        assert rll_decode_calls[1][0] == X[0][:3] + X[0][4:]

    def test_each_decode_sums_the_received_array_once(self, monkeypatch):
        # One row-parity and one column-parity vector of the 8 x 8 received
        # array per call; _locate and the rebuild share them.
        sizes = []
        parity = crisscross._parity

        def spy(sums, q):
            sums = list(sums)
            sizes.append(len(sums))
            return parity(sums, q)

        monkeypatch.setattr(crisscross, "_parity", spy)
        for i, j in product(range(1, GOLDEN_PARAMS.n + 1), repeat=2):
            Y = crisscross.corrupt(GOLDEN_ARRAY, i, j)
            sizes.clear()
            assert crisscross.decode(Y, GOLDEN_PARAMS) == GOLDEN_ARRAY
            assert sizes == [8, 8], (i, j)

    def test_outcomes_match_the_pinned_digest(self):
        # A regression oracle for decoder refactors: the digest was taken
        # from the decoder that summed the received array in _locate and
        # again in the rebuild, and every outcome must stay byte-identical.
        outcomes = [decode_outcome(Y, params) for Y, params in decode_corpus()]
        kinds = Counter("array" if o.startswith("[") else o.split(":", 1)[0] for o in outcomes)
        assert kinds == {"array": 326, "DecodingError": 1674}
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == "f84112c633c16009549491f1675dbc8c91933ba2456feefbd3cd6b6852398b13"

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            crisscross.decode(GOLDEN_ARRAY, GOLDEN_PARAMS)  # 9x9, expected 8x8
        with pytest.raises(ValueError):
            crisscross.decode(GOLDEN_RECEIVED_9_9, CodeParams(11, 3))

    def test_garbage_input_is_not_decodable(self):
        with pytest.raises(DecodingError, match="^cannot locate the deleted row: no run"):
            crisscross.decode([[1] * 8 for _ in range(8)], GOLDEN_PARAMS)

    def test_tampered_cell_is_not_decodable(self):
        Y = crisscross.corrupt(GOLDEN_ARRAY, 9, 9)
        Y[0][0] = (Y[0][0] + 1) % 7
        with pytest.raises(DecodingError, match="^cannot locate the deleted row: no run"):
            crisscross.decode(Y, GOLDEN_PARAMS)

    def test_tampered_first_row_refuses_at_the_column(self):
        # Row 2 is located; the first row then has no consistent codeword.
        Y = crisscross.corrupt(GOLDEN_ARRAY, 2, 1)
        Y[0][0] += 1
        with pytest.raises(DecodingError) as refused:
            crisscross.decode(Y, GOLDEN_PARAMS)
        assert str(refused.value) == (
            "cannot locate the deleted column: no run-length-limited codeword "
            "of DVT_0(9; 7) yields the received word by one deletion"
        )

    def test_equal_corner_pair_keeps_the_received_last_column(self):
        # Only an increasing corner pair means that column n was deleted;
        # an equal pair is decoded as received, and refused at the row.
        Y = crisscross.corrupt(GOLDEN_ARRAY, 1, 3)
        Y[0][-1] = Y[1][-1]
        with pytest.raises(DecodingError) as refused:
            crisscross.decode(Y, GOLDEN_PARAMS)
        assert str(refused.value) == (
            "cannot locate the deleted row: no run-length-limited codeword "
            "of DVT_0(9; 7) yields the received word by one deletion"
        )

    def test_smallest_dimension_has_empty_column_code(self):
        # At n = 4, q = 7 there is no valid protected column at all, so
        # every received array is rejected rather than mis-decoded.
        params = CodeParams(4, 7)
        for Y in ([[0] * 3] * 3, [[1, 2, 3], [4, 5, 6], [0, 1, 2]]):
            with pytest.raises(DecodingError):
                crisscross.decode([list(r) for r in Y], params)


class TestAdversarialDecode:
    """The decoder returns the one codeword over its input, and refuses only when there is none.

    At (8, 7) and (9, 4) tampering reaches codewords outside the encoder's
    image, which no untampered deletion does.
    """

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_refuses_or_returns_a_codeword_over_the_input(self, data):
        points = [(11, 3), (12, 5), (8, 7), (9, 4)]
        n, q = data.draw(st.sampled_from(points), label="(n, q)")
        params = CodeParams(n, q)
        total = crisscross.message_lengths(params).total
        message = data.draw(
            st.lists(st.integers(0, q - 1), min_size=total, max_size=total), label="message"
        )
        i = data.draw(st.integers(1, n), label="i")
        j = data.draw(st.integers(1, n), label="j")
        Y = crisscross.corrupt(crisscross.encode(message, params), i, j)
        cell = st.tuples(st.integers(0, n - 2), st.integers(0, n - 2), st.integers(0, q - 1))
        for r, c, s in data.draw(st.lists(cell, max_size=2), label="substitutions"):
            Y[r][c] = s
        expected = codewords_over(Y, params)
        assert len(expected) <= 1, "two codewords share a deletion"
        try:
            X = crisscross.decode(Y, params)
        except DecodingError:
            assert not expected, "decode refused an input that a codeword explains"
            return
        assert crisscross.first_violation(X, params) is None
        assert tuple(map(tuple, Y)) in deletion_ball(X)
        assert {tuple(map(tuple, X))} == expected

    def test_rebuilds_a_codeword_outside_the_encoder_image(self):
        # At (8, 7) the encoder packs one message symbol into the base-6
        # data digits of the two protected words, so it reaches 7 of their
        # 36 digit pairs; the pair (5, 5) gives a codeword it never outputs.
        params = CodeParams(8, 7)
        u = rll_suffix.encode([5], crisscross.first_row_params(params))
        v = rll_suffix.encode([5], crisscross.last_column_params(params))
        fill = random.Random(8).choices(range(7), k=crisscross.free_cells(8))
        X = build_structural_codeword(8, 7, u, v, fill)
        with pytest.raises(ValueError, match="outside the encoder image"):
            crisscross.recover_data(X, params)
        for i, j in product(range(1, 9), repeat=2):
            Y = crisscross.corrupt(X, i, j)
            assert crisscross.decode(Y, params) == X


@lru_cache
def protected_words(code: rll_suffix.RllSuffixParams) -> list[list[int]]:
    return enumerate_protected_words(code.length, code.q, code.b)


class TestAdversarialRecover:
    """recover_data returns only a message whose encoding is its input."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_refuses_or_returns_the_message_of_the_input(self, data):
        n, q = data.draw(st.sampled_from([(11, 3), (12, 5), (9, 4)]), label="(n, q)")
        params = CodeParams(n, q)
        if q != 5 and data.draw(st.booleans(), label="any protected words"):
            # Any protected first row and reversed last column, most of which
            # the encoder never writes, completed to a codeword.
            u, v = (
                data.draw(st.sampled_from(protected_words(code)), label=name)
                for code, name in (
                    (crisscross.first_row_params(params), "first row"),
                    (crisscross.last_column_params(params), "reversed last column"),
                )
            )
            size = crisscross.free_cells(n)
            fill = data.draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
            X = build_structural_codeword(n, q, u, v, fill)
        else:
            total = crisscross.message_lengths(params).total
            message = data.draw(
                st.lists(st.integers(0, q - 1), min_size=total, max_size=total), label="message"
            )
            X = crisscross.encode(message, params)
        # A rectangle of +a, -a, +a, -a keeps every row and column sum.
        corners = st.tuples(*[st.integers(1, n - 2)] * 4, st.integers(1, q - 1))
        r1, r2, c1, c2, a = data.draw(corners, label="rectangle")
        for r, c, step in ((r1, c1, a), (r2, c2, a), (r1, c2, -a), (r2, c1, -a)):
            X[r][c] = (X[r][c] + step) % q
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, q - 1))
        for r, c, s in data.draw(st.lists(cell, max_size=1), label="substitution"):
            X[r][c] = s
        try:
            recovered = crisscross.recover_data(X, params)
        except ValueError:
            return
        assert crisscross.encode(recovered, params) == X

    def test_refuses_a_first_row_the_encoder_never_writes(self):
        # This first row is a protected 1-D codeword at (9, 4), so the array
        # is a codeword, but its reserved positions do not hold what the
        # encoder writes for their residue: it writes [2, 1, 3, 1, 0, 2, 1, 0, 2]
        # for the data digits this row carries.
        params = CodeParams(9, 4)
        v = rll_suffix.encode([0], crisscross.last_column_params(params))
        fill = random.Random(9).choices(range(4), k=crisscross.free_cells(9))
        X = build_structural_codeword(9, 4, UNWRITTEN_ROW_9_4, v, fill)
        assert crisscross.first_violation(X, params) is None
        message = "^protected row/column carry a value outside the encoder image$"
        with pytest.raises(ValueError, match=message):
            crisscross.recover_data(X, params)
        # A violated condition is still named first.
        X[4][4] = (X[4][4] + 1) % 4
        with pytest.raises(ValueError, match="^input is not a codeword: condition 4: row 5 "):
            crisscross.recover_data(X, params)


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

    def test_each_protected_word_is_read_once_and_decode_checks_once(self, monkeypatch):
        # recover_data checks and reads each protected word in one 1-D pass,
        # which takes its one differential, also when it refuses a first
        # row that the encoder never writes, and decode runs one full
        # first_violation, on its own output.
        params = CodeParams(9, 4)
        v = rll_suffix.encode([0], crisscross.last_column_params(params))
        fill = random.Random(9).choices(range(4), k=crisscross.free_cells(9))
        unwritten = build_structural_codeword(9, 4, UNWRITTEN_ROW_9_4, v, fill)
        words, checked = [], []
        real_diff, real_violation = vt_core.diff, crisscross.first_violation

        def diff_spy(x, q):
            words.append(list(x))
            return real_diff(x, q)

        def violation_spy(X, params):
            checked.append(X)
            return real_violation(X, params)

        monkeypatch.setattr(vt_core, "diff", diff_spy)
        monkeypatch.setattr(crisscross, "first_violation", violation_spy)
        assert crisscross.recover_data(GOLDEN_ARRAY, GOLDEN_PARAMS) == GOLDEN_DATA
        assert words == [GOLDEN_ARRAY[0], crisscross.reversed_last_column(GOLDEN_ARRAY)]
        words.clear()
        with pytest.raises(ValueError, match="outside the encoder image"):
            crisscross.recover_data(unwritten, params)
        assert words == [UNWRITTEN_ROW_9_4, v]
        X = crisscross.decode(GOLDEN_RECEIVED_9_9, GOLDEN_PARAMS)
        assert len(checked) == 1 and checked[0] is X

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: crisscross.encode(5, CodeParams(11, 3)),
                "data = 5 is not a sequence of symbols",
            ),
            (lambda: crisscross.decode(5, CodeParams(11, 3)), "expected a 10x10 array, got int"),
            (
                lambda: crisscross.recover_data([[0] * 11] * 10 + [5], CodeParams(11, 3)),
                "expected a 11x11 array, row 11 is not a sequence",
            ),
            (lambda: vt_core.check_symbols(5, 3), "sequence = 5 is not a sequence of symbols"),
            (
                lambda: rll_suffix.encode(5, crisscross.first_row_params(CodeParams(11, 3))),
                "data = 5 is not a sequence of symbols",
            ),
            (
                lambda: fileio.ArrayFile("array", 3, 2, rows=[iter([0, 1]), iter([2, 0])]),
                "expected a 2x2 array, row 1 is not a sequence",
            ),
            (lambda: crisscross.corrupt(5, 1, 1), "input must be a square array of dimension >= 2"),
            (
                lambda: crisscross.corrupt([[0, 1], 5], 1, 1),
                "input must be a square array of dimension >= 2",
            ),
            (
                lambda: crisscross.corrupt([iter([0, 1]), iter([1, 0])], 1, 1),
                "input must be a square array of dimension >= 2",
            ),
            (
                lambda: rll_suffix.decode(5, crisscross.first_row_params(CodeParams(11, 3))),
                "received word = 5 is not a sequence of symbols",
            ),
            (
                lambda: rll_suffix.is_member(5, crisscross.first_row_params(CodeParams(11, 3))),
                "sequence = 5 is not a sequence of symbols",
            ),
            (
                lambda: rll_suffix.recover_data(5, crisscross.first_row_params(CodeParams(11, 3))),
                "sequence = 5 is not a sequence of symbols",
            ),
            (
                lambda: rll_suffix.RllSuffixParams(5, 3, 5),
                "suffix = 5 is not a sequence of symbols",
            ),
        ],
        ids=[
            "encode", "decode", "recover_data", "check_symbols", "rll_encode", "ArrayFile",
            "corrupt", "corrupt_row", "corrupt_iterators", "rll_decode", "rll_is_member",
            "rll_recover_data", "rll_params",
        ],
    )
    def test_a_non_sequence_is_a_value_error(self, call, message):
        with pytest.raises(ValueError) as refused:
            call()
        assert type(refused.value) is ValueError
        assert str(refused.value) == message

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
        with pytest.raises(DecodingError, match="^reconstructed array is not a codeword"):
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
        stage = "^(cannot locate the deleted (row|column)|reconstructed array is not a codeword): "
        finals = 0
        for Y in received:
            with pytest.raises(DecodingError, match=stage) as refused:
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
        assert crisscross.first_violation(X, GOLDEN_PARAMS) is None
        with pytest.raises(ValueError, match="encoder image"):
            crisscross.recover_data(X, GOLDEN_PARAMS)

    @pytest.mark.parametrize("n, q", [(9, 7), (11, 3), (12, 5), (16, 257)])
    def test_encoder_image_ends_below_q_to_the_k3(self, n, q):
        # Protected digits packing to q^k3 - 1 carry the largest k3-symbol
        # prefix; packing to exactly q^k3 is the first value encode never writes.
        params = CodeParams(n, q)
        k1, k2, k3, _ = crisscross.message_lengths(params)
        cells = [c % q for c in range(crisscross.free_cells(n))]

        def codeword_packing(packed):
            digits = rll_suffix.to_digits(packed, q - 1, k1 + k2)
            u = rll_suffix.encode(digits[:k1], crisscross.first_row_params(params))
            v = rll_suffix.encode(digits[k1:], crisscross.last_column_params(params))
            X = crisscross._assemble(u, v, cells, params)
            assert crisscross.first_violation(X, params) is None
            return X

        assert crisscross.recover_data(codeword_packing(q**k3 - 1), params) == [q - 1] * k3 + cells
        with pytest.raises(
            ValueError, match="^protected row/column carry a value outside the encoder image$"
        ):
            crisscross.recover_data(codeword_packing(q**k3), params)


class TestSmallCodeSweep:
    def test_structural_words_are_codewords_and_decode(self):
        params = CodeParams(SMALL_N, SMALL_Q)
        rng = random.Random(5)
        fills = [[0] * 7] + [
            [rng.randrange(SMALL_Q) for _ in range(7)] for _ in range(5)
        ]
        for fill in fills:
            X = small_codeword(fill)
            assert crisscross.first_violation(X, params) is None
            for i in range(1, SMALL_N + 1):
                for j in range(1, SMALL_N + 1):
                    Y = crisscross.corrupt(X, i, j)
                    assert crisscross.decode(Y, params) == X

    def test_protected_words_pinned(self):
        assert enumerate_protected_words(5, 8, (0, 2)) == [SMALL_U]
        assert enumerate_protected_words(5, 8, (0, 1, 2)) == [SMALL_V]
