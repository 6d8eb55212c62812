"""Randomized self-checks of the array codec.

The property suite drives the whole pipeline: random messages are
encoded, every one of the n^2 criss-cross deletions is applied, and the
decoder plus data recovery must reproduce the original exactly.  On top
of that it checks that the corner discriminator (which tells a deleted
last column from the other cases) always points the right way.  The
encoder validates every codeword it returns, zero row and column sums
included, so the suite does not check them again.

A run costs about trials * n^4 steps; run_selftest refuses more than
WORK_GUARD = 10^10 of them.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from . import crisscross
from .crisscross import CodeParams
from .rll_suffix import _plain_int

WORK_GUARD = 10**10


class SuiteResult(NamedTuple):
    """Outcome of one property suite, a tuple."""

    name: str
    passed: bool
    detail: str
    seconds: float


class SelfTestReport(NamedTuple):
    """Outcomes of a run_selftest call, a tuple."""

    n: int
    q: int
    seed: int
    results: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [f"selftest n={self.n} q={self.q} seed={self.seed}"]
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            out.append(f"  {r.name}: {status} ({r.detail}) [{r.seconds:.2f}s]")
        return out


def run_selftest(n: int, q: int, trials: int, seed: int = 0) -> SelfTestReport:
    """Run the property suite at (n, q) and report per-suite outcomes."""
    params = CodeParams(n, q)
    n, q, trials = params.n, params.q, _plain_int("trials", trials)
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    if trials * n**4 > WORK_GUARD:
        raise ValueError(
            f"trials * n^4 = {trials * n**4} steps exceed the work guard {WORK_GUARD}"
        )
    ml = crisscross.message_lengths(params)
    rng = random.Random(seed)
    results = []

    # Suite 1: encode -> corrupt -> decode -> recover round-trips over
    # every deletion position.  Discriminator observations are collected
    # along the way and judged in suite 2.
    start = time.perf_counter()
    failures: list[str] = []
    discriminator_bad: list[str] = []
    for trial in range(trials):
        data = [rng.randrange(q) for _ in range(ml.total)]
        X = crisscross.encode(data, params)
        if crisscross.recover_data(X, params) != data:
            failures.append(f"recover(encode(data)) != data at trial={trial} seed={seed}")
            continue
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                received = crisscross.corrupt(X, i, j)
                pair = (received[0][-1], received[1][-1])
                if (pair[0] < pair[1]) != (j == n):
                    discriminator_bad.append(
                        f"pair {pair} at trial={trial} i={i} j={j} seed={seed}"
                    )
                try:
                    decoded = crisscross.decode(received, params)
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
                elif crisscross.recover_data(decoded, params) != data:
                    failures.append(
                        f"recovered data mismatch at trial={trial} i={i} j={j} seed={seed}"
                    )
    detail = f"{trials} trials x {n * n} deletions"
    if failures:
        detail = f"{len(failures)} failures, first: {failures[0]}"
    results.append(
        SuiteResult("round-trip", not failures, detail, time.perf_counter() - start)
    )

    # Suite 2: the corner discriminator collected during suite 1.
    results.append(
        SuiteResult(
            "discriminator",
            not discriminator_bad,
            f"{trials * n * n} observations"
            if not discriminator_bad
            else f"{len(discriminator_bad)} bad, first: {discriminator_bad[0]}",
            0.0,
        )
    )

    return SelfTestReport(n, q, seed, tuple(results))
