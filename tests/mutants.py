"""Mutation runner: plant one-line bugs in copies of the tree and run Tier-1 on each.

Each entry of MUTANTS replaces one anchor text, which occurs exactly once
under src/, in one package file.  Its expected verdict is "killed" (some
Tier-1 test fails) or "equivalent: <why>" (no input tells the mutant
apart, so every test passes).  A Tier-1 test checks that the anchors are
still unique; this script runs the mutants themselves.  Standard library
only.  From the repository root:

    python tests/mutants.py [NAME ...]

It first runs Tier-1 on an unmutated copy and deselects the tests that
fail there, so that a failure of the environment (a console script that
is not installed, say) is not taken for a kill.  Then, one mutant after
another, it copies the tree to a temporary directory, applies the
replacement and runs Tier-1 with -x, less the anchor check.  It prints
one JSON line with each mutant's verdict, first failing test and
seconds, and exits 1 if any verdict differs from the expected one.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/crisscodec
    anchor: str
    replacement: str
    expected: str  # "killed", or "equivalent: <one-line reason>"


MUTANTS = [
    Mutant(
        "vt-position-plus-one",
        "vt_core.py",
        "return DeletionDecode(candidate, p)",
        "return DeletionDecode(candidate, p + 1)",
        "killed",
    ),
    Mutant(
        "vt-rll-filter-dropped",
        "vt_core.py",
        "if adjacent_distinct(candidate):\n                return DeletionDecode(candidate, p)",
        "if True:\n                return DeletionDecode(candidate, p)",
        "killed",
    ),
    Mutant(
        "vt-leading-alpha-le-q",
        "vt_core.py",
        "if alpha < q:",
        "if alpha <= q:",
        "equivalent: alpha = q inserts a copy of w[0] in front, which the RLL test rejects",
    ),
    Mutant(
        "rll-suffix-check-dropped",
        "rll_suffix.py",
        "if tuple(result.codeword[params.n :]) != params.b:",
        "if False:",
        "killed",
    ),
    Mutant(
        "log-floor-no-downward-step",
        "rll_suffix.py",
        "while power > value:",
        "while False:",
        "killed",
    ),
    Mutant(
        "log-floor-no-upward-step",
        "rll_suffix.py",
        "while power * base <= value:",
        "while False:",
        "killed",
    ),
    Mutant(
        "parity-off-by-one",
        "crisscross.py",
        "return [-s % q for s in sums]",
        "return [(1 - s) % q for s in sums]",
        "killed",
    ),
    Mutant(
        "condition-5-skips-column-n-1",
        "crisscross.py",
        "if 0 < j < n - 1 and total % q != 0:",
        "if 0 < j < n - 2 and total % q != 0:",
        "killed",
    ),
    Mutant(
        "locate-corner-pair-le",
        "crisscross.py",
        "work[0][-1] < work[1][-1]",
        "work[0][-1] <= work[1][-1]",
        "killed",
    ),
    Mutant(
        "locate-row-off-by-one",
        "crisscross.py",
        "i = n + 1 - rll_suffix.decode(",
        "i = n - rll_suffix.decode(",
        "killed",
    ),
    Mutant(
        "locate-first-row-not-restored",
        "crisscross.py",
        "u = _parity(map(sum, zip(*work)), q) if i == 1 else work[0]",
        "u = work[0]",
        "killed",
    ),
    Mutant(
        "rebuild-column-one-late",
        "crisscross.py",
        "row.insert(j - 1, value)",
        "row.insert(j, value)",
        "killed",
    ),
    Mutant(
        "decode-final-check-dropped",
        "crisscross.py",
        "if violation is not None:\n        raise DecodingError(",
        "if False:\n        raise DecodingError(",
        "killed",
    ),
    Mutant(
        "recover-codeword-check-dropped",
        "crisscross.py",
        "if violation is not None:\n        raise ValueError(f\"input is not a codeword",
        "if False:\n        raise ValueError(f\"input is not a codeword",
        "killed",
    ),
    Mutant(
        "recover-encoder-image-gt",
        "crisscross.py",
        "if packed >= q**ml.k3:",
        "if packed > q**ml.k3:",
        "killed",
    ),
    Mutant(
        "dp-fold-dropped",
        "analysis.py",
        "counts = (counts & low_fields) + (counts >> span)",
        "counts = counts & low_fields",
        "killed",
    ),
    Mutant(
        "dp-field-one-bit-narrower",
        "analysis.py",
        "width = ((q - 1) ** free).bit_length()",
        "width = ((q - 1) ** free).bit_length() - 1",
        "killed",
    ),
]


def _tier1(tree: Path, extra: list[str], timeout: float) -> tuple[int, list[str], float]:
    """Exit code, failing test ids and seconds of one Tier-1 run in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
    command += ["--continue-on-collection-errors", *extra]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return -1, ["(timeout)"], time.perf_counter() - start
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return proc.returncode, failed, time.perf_counter() - start


def _copy(scratch: Path, name: str) -> Path:
    tree = scratch / name
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def run(mutants: list[Mutant]) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        baseline = _copy(Path(scratch), "baseline")
        code, failing, seconds = _tier1(baseline, [], timeout=1800)
        if code not in (0, 1):
            raise SystemExit(f"Tier-1 does not run on the unmutated tree (exit {code})")
        shutil.rmtree(baseline)
        deselect = [arg for test in failing for arg in ("--deselect", test)]
        results = []
        for mutant in mutants:
            tree = _copy(Path(scratch), mutant.name)
            path = tree / "src" / "crisscodec" / mutant.file
            text = path.read_text()
            if text.count(mutant.anchor) != 1:
                raise SystemExit(f"{mutant.name}: the anchor does not occur exactly once")
            path.write_text(text.replace(mutant.anchor, mutant.replacement))
            # The anchor check fails on every mutated tree, so it kills nothing.
            extra = ["-x", "--ignore", "tests/test_mutants.py", *deselect]
            code, failed, took = _tier1(tree, extra, timeout=max(120, 10 * seconds))
            shutil.rmtree(tree)
            verdict = "survived" if code == 0 else "killed"
            expected = "survived" if mutant.expected.startswith("equivalent") else "killed"
            results.append(
                {
                    "name": mutant.name,
                    "file": mutant.file,
                    "verdict": verdict,
                    "expected": mutant.expected,
                    "as_expected": verdict == expected,
                    "first_failure": failed[0] if failed else None,
                    "seconds": round(took, 1),
                }
            )
    return {
        "baseline": {"seconds": round(seconds, 1), "deselected": failing},
        "mutants": results,
        "unexpected": [r["name"] for r in results if not r["as_expected"]],
    }


def main(argv: list[str]) -> int:
    unknown = set(argv) - {mutant.name for mutant in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    report = run([mutant for mutant in MUTANTS if not argv or mutant.name in argv])
    print(json.dumps(report))
    return 1 if report["unexpected"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
