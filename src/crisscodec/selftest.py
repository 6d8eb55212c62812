"""Randomized round-trip check of the array codec.

run_selftest encodes random messages, applies every one of the n^2
criss-cross deletions to each codeword, and requires each decode to give
the codeword back.  Since every decode is compared with the codeword,
the message is recovered once per trial, from the codeword itself.  The
encoder validates every codeword it returns, zero row and column sums
included, so the check does not test them again.  The corner pair that
tells a deleted last column from the other cases is forced by codeword
conditions 1-3 (see crisscross._locate) and checked by test_acc10, so it
has no check here either.

A run costs about trials * n^4 steps; run_selftest refuses more than
WORK_GUARD = 10^10 of them.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from . import crisscross
from .crisscross import CodeParams
from .vt_core import plain_int

WORK_GUARD = 10**10


class SelfTestReport(NamedTuple):
    """Outcome of a run_selftest call, a tuple."""

    n: int
    q: int
    seed: int
    ok: bool
    detail: str
    seconds: float

    def lines(self) -> list[str]:
        status = "PASS" if self.ok else "FAIL"
        return [
            f"selftest n={self.n} q={self.q} seed={self.seed}",
            f"  round-trip: {status} ({self.detail}) [{self.seconds:.2f}s]",
        ]


def run_selftest(n: int, q: int, trials: int, seed: int = 0) -> SelfTestReport:
    """Round-trip trials random messages through every deletion at (n, q)."""
    params = CodeParams(n, q)
    n, q = params.n, params.q
    trials, seed = plain_int("trials", trials), plain_int("seed", seed)
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    if trials * n**4 > WORK_GUARD:
        raise ValueError(
            f"trials * n^4 = {trials * n**4} steps exceed the work guard {WORK_GUARD}"
        )
    ml = crisscross.message_lengths(params)
    rng = random.Random(seed)
    start = time.perf_counter()
    failures: list[str] = []
    for trial in range(trials):
        data = [rng.randrange(q) for _ in range(ml.total)]
        X = crisscross.encode(data, params)
        if crisscross.recover_data(X, params) != data:
            failures.append(f"recover(encode(data)) != data at trial={trial} seed={seed}")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                try:
                    decoded = crisscross.decode(crisscross.corrupt(X, i, j), params)
                except Exception as exc:  # noqa: BLE001 - reported, not hidden
                    failures.append(
                        f"decode raised {type(exc).__name__} at "
                        f"trial={trial} i={i} j={j} seed={seed}"
                    )
                    continue
                if decoded != X:
                    failures.append(
                        f"decode mismatch at trial={trial} i={i} j={j} seed={seed}"
                    )
    detail = f"{trials} trials x {n * n} deletions"
    if failures:
        detail = f"{len(failures)} failures, first: {failures[0]}"
    return SelfTestReport(n, q, seed, not failures, detail, time.perf_counter() - start)
