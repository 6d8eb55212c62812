"""Self-test harness: suites pass on healthy code, fail on planted bugs."""

from __future__ import annotations

import pytest

from crisscodec import crisscross, selftest
from crisscodec.errors import EncodingError


def test_passes_at_proven_parameters():
    report = selftest.run_selftest(11, 3, trials=2, seed=0, exhaustive_small=True)
    assert report.ok
    names = [r.name for r in report.results]
    assert names == ["round-trip", "zero-sums", "discriminator", "exhaustive-small"]
    for result in report.results:
        assert result.passed


def test_passes_at_unproven_parameters():
    report = selftest.run_selftest(9, 7, trials=1, seed=3)
    assert report.ok


def test_refuses_uncertified_parameters():
    with pytest.raises(EncodingError, match="not certified"):
        selftest.run_selftest(10, 3, trials=1)


def test_report_lines_format():
    report = selftest.run_selftest(11, 3, trials=1, seed=5)
    lines = report.lines()
    assert lines[0] == "selftest n=11 q=3 seed=5"
    assert len(lines) == 1 + len(report.results)
    for line, result in zip(lines[1:], report.results):
        assert result.name in line
        assert "PASS" in line


def test_round_trip_suite_notices_wrong_decodes(monkeypatch):
    def flip_corner(decoded):
        decoded = [list(r) for r in decoded]
        decoded[-1][-1] = (decoded[-1][-1] + 1) % 3
        return decoded

    decode = crisscross.decode
    monkeypatch.setattr(crisscross, "decode", lambda Y, params: flip_corner(decode(Y, params)))
    report = selftest.run_selftest(11, 3, trials=1, seed=7)
    assert not report.ok
    by_name = {r.name: r for r in report.results}
    round_trip = by_name["round-trip"]
    assert not round_trip.passed
    # the failure detail carries a usable reproducer
    assert "seed=7" in round_trip.detail
    assert "trial=" in round_trip.detail
    assert "i=" in round_trip.detail and "j=" in round_trip.detail
    # the other suites are unaffected by the planted decode bug
    assert by_name["zero-sums"].passed
    assert by_name["discriminator"].passed


def test_exhaustive_small_suite_reports_empty_code():
    report = selftest.run_selftest(11, 3, trials=1, seed=0, exhaustive_small=True)
    by_name = {r.name: r for r in report.results}
    suite = by_name["exhaustive-small"]
    assert suite.passed
    assert "0 codewords" in suite.detail  # the (4, 3) instance is empty
    assert "0 overlapping ball pairs" in suite.detail
