"""Redundancy analysis rows, bounds, and exact code-size counting."""

from __future__ import annotations

import itertools
import math

import pytest

from conftest import enumerate_protected_words
from crisscodec import analysis
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

    def test_bounds_recomputed_independently(self):
        row = analysis.analysis_row(12, 5)
        lower = 2 * 12 + 2 * math.log(12, 5) - 3
        upper = lower + 3 + (2 * 12 - 13) * math.log(5 / 4, 5) + 12
        assert row.lower_bound == pytest.approx(lower)
        assert row.upper_bound == pytest.approx(upper)
        assert row.gap == pytest.approx(row.encoder_redundancy - lower)

    def test_bounds_hold_on_sample_grid(self):
        for row in analysis.analyze_range(range(11, 25), [3, 4, 7, 101]):
            assert analysis.bounds_hold(row), (row.n, row.q)

    def test_bounds_hold_slack_semantics(self):
        row = analysis.analysis_row(11, 3)
        nudged = analysis.AnalysisRow(
            row.n, row.q, row.k1, row.k2, row.k3, row.message_length,
            row.encoder_redundancy,
            float(row.encoder_redundancy) + 5e-10,  # lower barely above
            row.upper_bound, row.gap,
        )
        assert analysis.bounds_hold(nudged)
        assert not analysis.bounds_hold(nudged, slack=1e-12)

    def test_gate_propagates(self):
        with pytest.raises(EncodingError, match="not certified"):
            analysis.analysis_row(10, 3)
        with pytest.raises(ValueError, match="no data room"):
            analysis.analysis_row(8, 3)


class TestAnalyzeRange:
    def test_grid_order(self):
        rows = analysis.analyze_range(range(11, 13), [3, 5])
        assert [(r.n, r.q) for r in rows] == [(11, 3), (11, 5), (12, 3), (12, 5)]


class TestReports:
    def test_csv(self):
        rows = [analysis.analysis_row(11, 3)]
        text = analysis.to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == ",".join(analysis.CSV_FIELDS)
        cells = lines[1].split(",")
        assert cells[:7] == ["11", "3", "2", "1", "1", "80", "41"]
        for cell in cells[7:]:
            float(cell)  # bounds render as plain floats
            assert "." in cell and len(cell.split(".")[1]) == 6
        assert text.endswith("\n")

    def test_table_alignment(self):
        rows = analysis.analyze_range(range(11, 14), [3])
        text = analysis.to_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(map(len, lines))) == 1  # rectangular
        assert lines[0].split() == list(analysis.CSV_FIELDS)


class TestProtectedRowCount:
    @pytest.mark.parametrize(
        "n,q,suffix",
        [(5, 8, (0, 2)), (5, 8, (0, 1, 2)), (8, 3, (0, 2)), (7, 4, (0, 1, 2))],
    )
    def test_agrees_with_pure_enumeration(self, n, q, suffix):
        expected = enumerate_protected_words(n, q, suffix)
        count, rows = analysis.protected_row_count(n, q, suffix, collect=True)
        assert count == len(expected)
        assert sorted(map(tuple, rows)) == sorted(map(tuple, expected))
        count_only, none_rows = analysis.protected_row_count(n, q, suffix)
        assert count_only == count and none_rows is None

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            analysis.protected_row_count(30, 7, (0, 2))


class TestCodeSize:
    def test_smallest_instance_is_empty(self):
        size = analysis.count_code_size(4, 3)
        assert size.mode == "formula"
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

    def test_bruteforce_finds_planted_codewords(self, monkeypatch):
        # No row or column is protected at (4, 3).  With every word that
        # ends in the suffix planted as protected, the enumeration must find
        # exactly the arrays the structural formula counts.
        def planted(n, q, suffix, collect=False):
            words = itertools.product(range(q), repeat=n)
            rows = [list(w) for w in words if w[n - len(suffix) :] == suffix]
            return len(rows), rows if collect else None

        monkeypatch.setattr(analysis, "protected_row_count", planted)
        brute = analysis.count_code_size(4, 3, mode="bruteforce")
        assert (brute.first_row_count, brute.last_column_count) == (9, 3)
        assert brute.size == analysis.count_code_size(4, 3).size == 9 * 3 * 3**2

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError, match="guard"):
            analysis.count_code_size(5, 8, mode="bruteforce")

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            analysis.count_code_size(4, 3, mode="exact")

    def test_params_validated(self):
        with pytest.raises(ValueError):
            analysis.count_code_size(3, 3)
