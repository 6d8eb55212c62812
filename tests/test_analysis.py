"""Redundancy analysis rows, bounds, and exact code-size counting."""

from __future__ import annotations

import itertools
import math

import pytest

from conftest import (
    count_arrays_bruteforce,
    enumerate_protected_words,
    protected_row_count_dp,
    protected_whole_word,
)
from crisscodec import analysis, crisscross, rll_suffix
from crisscodec.errors import EncodingError


class TestAnalysisRow:
    def test_golden_small_instance(self):
        row = analysis.analysis_row(9, 7)
        assert (row.k1, row.k2, row.k3) == (2, 1, 2)
        assert row.message_length == 49
        assert row.encoder_redundancy == 32

    def test_golden_proven_instance(self):
        row = analysis.analysis_row(11, 3)
        assert (row.k1, row.k2, row.k3) == (2, 1, 1)
        assert row.message_length == 80
        assert row.encoder_redundancy == 41

    def test_redundancy_plus_message_is_area(self):
        for n, q in ((11, 3), (12, 5), (16, 7), (20, 11)):
            row = analysis.analysis_row(n, q)
            assert row.message_length + row.encoder_redundancy == n * n
            assert row.encoder_redundancy == 4 * n - 2 - row.k3

    def test_bounds_recomputed_independently(self):
        row = analysis.analysis_row(12, 5)
        lower = 2 * 12 + 2 * math.log(12, 5) - 3
        upper = lower + 3 + (2 * 12 - 13) * math.log(5 / 4, 5) + 12
        assert row.lower_bound == pytest.approx(lower)
        assert row.upper_bound == pytest.approx(upper)
        assert row.gap == pytest.approx(row.encoder_redundancy - lower)

    def test_bounds_hold_on_sample_grid(self):
        for row in analysis.analyze_range(range(11, 25), [3, 4, 7, 101]):
            assert row.lower_bound - 1e-9 <= row.encoder_redundancy, (row.n, row.q)
            assert row.encoder_redundancy <= row.upper_bound + 1e-9, (row.n, row.q)

    def test_gate_propagates(self):
        with pytest.raises(EncodingError, match="not certified"):
            analysis.analysis_row(10, 3)
        with pytest.raises(ValueError, match="no data room"):
            analysis.analysis_row(8, 3)


class TestAnalyzeRange:
    def test_grid_order(self):
        rows = analysis.analyze_range(range(11, 13), [3, 5])
        assert [(r.n, r.q) for r in rows] == [(11, 3), (11, 5), (12, 3), (12, 5)]


HEADER = "n,q,k1,k2,k3,message_length,encoder_redundancy,lower_bound,upper_bound,gap"


class TestReports:
    def test_csv(self):
        text = analysis.to_csv([analysis.analysis_row(11, 3)])
        assert text == HEADER + "\n" + "11,3,2,1,1,80,41,23.365317,41.686949,17.634683\n"

    def test_table_alignment(self):
        rows = analysis.analyze_range(range(11, 14), [3])
        text = analysis.to_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(map(len, lines))) == 1  # rectangular
        assert lines[0].split() == HEADER.split(",")
        assert lines[1] == (
            "11  3   2   1   1              80                  41"
            "    23.365317    41.686949  17.634683"
        )


class TestProtectedRowCount:
    @pytest.mark.parametrize(
        "n,q,suffix",
        [
            (5, 8, (0, 2)),
            (5, 8, (0, 1, 2)),
            (8, 3, (0, 2)),
            (7, 4, (0, 1, 2)),
            (9, 3, (0, 1, 2)),
            (6, 7, (3, 1)),
            (7, 5, (1, 0)),
            (5, 8, (2, 2)),  # the suffix itself repeats a symbol
            (4, 5, (0, 1, 4, 0)),  # the suffix is the whole word, a protected one
        ],
    )
    def test_agrees_with_pure_enumeration(self, n, q, suffix):
        expected = enumerate_protected_words(n, q, suffix)
        assert analysis.protected_row_count(n, q, suffix) == len(expected)

    def test_agrees_with_rotate_and_add_oracle(self):
        # Both layout suffixes, a whole protected word (no free position)
        # and a suffix that repeats a symbol, on every n in [4, 24].
        repeating = (2, 1, 1)
        for n in range(4, 25):
            for q in sorted({3, 4, 5, 7, 11, n + 1}):
                params = crisscross.CodeParams(n, q)
                whole = protected_whole_word(n, q)
                cases = [
                    crisscross.first_row_params(params).b,
                    crisscross.last_column_params(params).b,
                    whole,
                    repeating,
                ]
                for suffix in cases:
                    expected = protected_row_count_dp(n, q, suffix)
                    got = analysis.protected_row_count(n, q, suffix)
                    assert got == expected, (n, q, suffix)
                assert protected_row_count_dp(n, q, whole) == 1, (n, q)
                assert protected_row_count_dp(n, q, repeating) == 0, (n, q)

    def test_guard(self):
        # The first refused q = n + 1 point:
        # (132 free positions x 8 bits)^2 x (134 * 135 residues) > 2 * 10^10
        with pytest.raises(ValueError, match="work guard"):
            analysis.protected_row_count(134, 135, (0, 2))

    def test_bad_suffix(self):
        with pytest.raises(ValueError, match="suffix"):
            analysis.protected_row_count(5, 3, (0, 3))
        with pytest.raises(ValueError, match="suffix"):
            analysis.protected_row_count(4, 3, (0, 1, 2, 0, 1))
        with pytest.raises(ValueError, match="suffix"):
            analysis.protected_row_count(4, 3, ())


class TestCodeSize:
    def test_smallest_instance_is_empty(self):
        size = analysis.count_code_size(4, 3)
        assert size.first_row_count == 0
        assert size.last_column_count == 0
        assert size.size == 0
        assert size.redundancy is None

    def test_next_binary_like_instance_is_empty(self):
        assert analysis.count_code_size(5, 3).size == 0

    def test_smallest_nonempty_instance(self):
        size = analysis.count_code_size(5, 8)
        assert size.first_row_count == 1
        assert size.last_column_count == 1
        assert size.size == 8**7
        assert size.redundancy == 25 - 7

    def test_formula_matches_component_counts(self):
        for n, q in ((4, 3), (5, 8), (6, 4), (5, 7)):
            size = analysis.count_code_size(n, q)
            assert size.size == (
                size.first_row_count * size.last_column_count * q ** ((n - 2) ** 2 - 2)
            )

    def test_pinned_grid(self):
        # (first rows, last columns, code size), as counted by enumerating
        # every q^n word before the syndrome DP replaced the enumeration.
        pinned = {
            (12, 3): (28, 12, 19240760773995089692027882177916527514212014154704),
            (8, 5): (105, 12, 733416527509689331054687500),
            (7, 7): (230, 13, 81832554546841939865570),
            (6, 11): (125, 33, 1566468063530869125),
        }
        for (n, q), expected in pinned.items():
            size = analysis.count_code_size(n, q)
            assert (size.first_row_count, size.last_column_count, size.size) == expected
            assert size.redundancy == n * n - rll_suffix.int_log_floor(q, size.size)

    def test_bruteforce_finds_planted_codewords(self):
        # No row or column is protected at (4, 3).  With every word that
        # ends in the suffix planted as protected, the enumeration must find
        # exactly the arrays the structural formula counts.
        def planted(suffix):
            words = itertools.product(range(3), repeat=4)
            return [list(w) for w in words if w[4 - len(suffix) :] == suffix]

        u_rows, v_rows = planted((0, 2)), planted((0, 1, 2))
        assert (len(u_rows), len(v_rows)) == (9, 3)
        assert count_arrays_bruteforce(4, 3, u_rows, v_rows) == 9 * 3 * 3**2

    def test_bruteforce_guard(self):
        # Refused from n, m and q alone, before the DP builds its int of
        # qn = 10^10 fields.
        with pytest.raises(ValueError, match="work guard"):
            analysis.count_code_size(100_000, 100_000)

    def test_bad_mode(self):
        for mode in ("exact", "bruteforce"):
            with pytest.raises(ValueError, match="mode"):
                analysis.count_code_size(4, 3, mode=mode)
        assert analysis.count_code_size(5, 8, "formula").size == 8**7

    def test_params_validated(self):
        with pytest.raises(ValueError):
            analysis.count_code_size(3, 3)
