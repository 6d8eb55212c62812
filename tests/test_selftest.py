"""Self-test harness: the round trip passes on healthy code, fails on planted bugs."""

from __future__ import annotations

import re

import pytest

from crisscodec import crisscross, selftest
from crisscodec.errors import DecodingError, EncodingError


def test_passes_at_proven_parameters():
    report = selftest.run_selftest(11, 3, trials=2, seed=0)
    assert report.ok
    assert (report.n, report.q, report.seed) == (11, 3, 0)
    assert report.detail == "2 trials x 121 deletions"


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


@pytest.mark.parametrize(
    "n, q, trials, seed",
    [(11, 3, 1.5, 0), ("a", 3, 1, 0), (11, 3, "2", 0), (11, 3, 1, [1]), (11, 3, 1, 1.5),
     (11, 3, 1, "7")],
    ids=["11-3-1.5", "a-3-1", "11-3-2", "seed-list", "seed-float", "seed-str"],
)
def test_non_integer_arguments_are_value_errors(n, q, trials, seed):
    with pytest.raises(ValueError, match="must be an integer") as refused:
        selftest.run_selftest(n, q, trials, seed=seed)
    assert type(refused.value) is ValueError


def test_report_lines_format():
    report = selftest.run_selftest(11, 3, trials=1, seed=5)
    header, result = report.lines()
    assert header == "selftest n=11 q=3 seed=5"
    assert re.fullmatch(r"  round-trip: PASS \(1 trials x 121 deletions\) \[\d+\.\d\ds\]", result)


def test_round_trip_suite_notices_wrong_decodes(monkeypatch):
    def flip_corner(decoded):
        decoded = [list(r) for r in decoded]
        decoded[-1][-1] = (decoded[-1][-1] + 1) % 3
        return decoded

    decode = crisscross.decode
    monkeypatch.setattr(crisscross, "decode", lambda Y, params: flip_corner(decode(Y, params)))
    report = selftest.run_selftest(11, 3, trials=1, seed=7)
    assert not report.ok
    assert report.lines()[1].startswith("  round-trip: FAIL (121 failures, first: ")
    # the failure detail carries a usable reproducer
    assert report.detail.endswith("decode mismatch at trial=0 i=1 j=1 seed=7")


def test_round_trip_suite_notices_wrong_recovery(monkeypatch):
    def change_first_symbol(X, params):
        data = recover(X, params)
        data[0] = (data[0] + 1) % params.q
        return data

    recover = crisscross.recover_data
    monkeypatch.setattr(crisscross, "recover_data", change_first_symbol)
    report = selftest.run_selftest(11, 3, trials=2, seed=7)
    assert not report.ok
    assert report.detail == "2 failures, first: recover(encode(data)) != data at trial=0 seed=7"


def test_round_trip_suite_reports_decode_errors(monkeypatch):
    def refuse(Y, params):
        raise DecodingError("planted refusal")

    monkeypatch.setattr(crisscross, "decode", refuse)
    report = selftest.run_selftest(11, 3, 1, seed=7)
    assert not report.ok
    assert report.lines()[1].startswith("  round-trip: FAIL (121 failures, first: ")
    assert report.detail.endswith("decode raised DecodingError at trial=0 i=1 j=1 seed=7")
