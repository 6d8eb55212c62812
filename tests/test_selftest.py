"""Self-test harness: suites pass on healthy code, fail on planted bugs."""

from __future__ import annotations

import pytest

from crisscodec import crisscross, selftest
from crisscodec.errors import EncodingError


def test_passes_at_proven_parameters():
    report = selftest.run_selftest(11, 3, trials=2, seed=0)
    assert report.ok
    names = [r.name for r in report.results]
    assert names == ["round-trip", "discriminator"]
    for result in report.results:
        assert result.passed


def test_passes_at_unproven_parameters():
    report = selftest.run_selftest(9, 7, trials=1, seed=3)
    assert report.ok


def test_refuses_uncertified_parameters():
    with pytest.raises(EncodingError, match="not certified"):
        selftest.run_selftest(10, 3, trials=1)


@pytest.mark.parametrize("trials", [0, -3])
def test_refuses_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="at least one trial"):
        selftest.run_selftest(11, 3, trials=trials)


@pytest.mark.parametrize("n, q, trials", [(11, 3, 1.5), ("a", 3, 1), (11, 3, "2")])
def test_non_integer_arguments_are_value_errors(n, q, trials):
    with pytest.raises(ValueError, match="must be an integer") as refused:
        selftest.run_selftest(n, q, trials)
    assert type(refused.value) is ValueError


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
    # the discriminator suite is unaffected by the planted decode bug
    assert by_name["discriminator"].passed
