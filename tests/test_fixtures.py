"""Embedded colliding-pair fixtures and their verification checks."""

from __future__ import annotations

from crisscodec import crisscross, fixtures


def test_all_checks_pass():
    checks = fixtures.verify_fixture_pairs()
    assert len(checks) == 4
    for check in checks:
        assert check.ok, f"{check.name}: {check.detail}"


def test_small_pair_collision_re_derived():
    (i_a, j_a), (i_b, j_b) = fixtures.SMALL_PAIR_DELETIONS
    got_a = crisscross.corrupt(fixtures.SMALL_PAIR_FIRST, i_a, j_a)
    got_b = crisscross.corrupt(fixtures.SMALL_PAIR_SECOND, i_b, j_b)
    assert got_a == got_b == [[2]]
    assert fixtures.SMALL_PAIR_FIRST != fixtures.SMALL_PAIR_SECOND


def test_small_pair_sums_match():
    for axis in (0, 1):
        for k in range(2):
            first = fixtures.SMALL_PAIR_FIRST
            second = fixtures.SMALL_PAIR_SECOND
            if axis == 0:
                assert sum(first[k]) == sum(second[k])
            else:
                assert sum(r[k] for r in first) == sum(r[k] for r in second)


def test_binary_pair_shapes_and_alphabet():
    for X in (fixtures.BINARY_PAIR_FIRST, fixtures.BINARY_PAIR_SECOND):
        assert len(X) == 16 and all(len(r) == 16 for r in X)
        assert all(v in (0, 1) for r in X for v in r)


def test_binary_pair_collision_re_derived():
    (i_a, j_a), (i_b, j_b) = fixtures.BINARY_PAIR_DELETIONS
    got_a = crisscross.corrupt(fixtures.BINARY_PAIR_FIRST, i_a, j_a)
    got_b = crisscross.corrupt(fixtures.BINARY_PAIR_SECOND, i_b, j_b)
    assert got_a == got_b
    assert fixtures.BINARY_PAIR_FIRST != fixtures.BINARY_PAIR_SECOND


def test_mutated_small_pair_fails_sum_check(monkeypatch):
    bad = [list(r) for r in fixtures.SMALL_PAIR_FIRST]
    bad[0][0] += 1
    monkeypatch.setattr(fixtures, "SMALL_PAIR_FIRST", bad)
    checks = fixtures.verify_fixture_pairs()
    by_name = {c.name: c for c in checks}
    assert not by_name["small pair: matching row and column sums"].ok
    # the untouched binary checks still pass
    assert by_name["binary pair: colliding deletions"].ok


def test_mutated_small_pair_fails_collision_check(monkeypatch):
    bad = [list(r) for r in fixtures.SMALL_PAIR_SECOND]
    bad[0][0] = 3  # cell surviving its pair's deletion (2,2)
    monkeypatch.setattr(fixtures, "SMALL_PAIR_SECOND", bad)
    checks = fixtures.verify_fixture_pairs()
    by_name = {c.name: c for c in checks}
    assert not by_name["small pair: colliding deletions"].ok


def test_mutated_binary_pair_fails_difference_count(monkeypatch):
    bad = [list(r) for r in fixtures.BINARY_PAIR_FIRST]
    bad[0][0] ^= 1
    monkeypatch.setattr(fixtures, "BINARY_PAIR_FIRST", bad)
    checks = fixtures.verify_fixture_pairs()
    by_name = {c.name: c for c in checks}
    assert not by_name["binary pair: distinct arrays"].ok


def test_mutated_binary_pair_fails_collision_check(monkeypatch):
    bad = [list(r) for r in fixtures.BINARY_PAIR_SECOND]
    bad[0][1] ^= 1  # survives the (16, 1) deletion of the second array
    monkeypatch.setattr(fixtures, "BINARY_PAIR_SECOND", bad)
    checks = fixtures.verify_fixture_pairs()
    by_name = {c.name: c for c in checks}
    assert not by_name["binary pair: colliding deletions"].ok
