"""Mutation runner: plant one-line bugs in copies of the tree and run Tier-1 on each.

Each entry of MUTANTS replaces one anchor text, which occurs exactly once
under src/, in one package file.  Its expected verdict is "killed" (some
Tier-1 test fails) or "equivalent: <why>" (no input tells the mutant
apart, so every test passes).  A killed mutant may name its killer, the
test written to catch it, which must then fail on it too.  A Tier-1 test
checks that the anchors are still unique and that each killer exists;
this script runs the mutants themselves.  Standard library
only.  From the repository root:

    python tests/mutants.py [NAME ...]

It first runs Tier-1 on an unmutated copy and deselects the tests that
fail there, so that a failure of the environment (a console script that
is not installed, say) is not taken for a kill.  Then, one mutant after
another, it copies the tree to a temporary directory, applies the
replacement, runs the mutant's killer alone if it names one, and runs
Tier-1 with -x, less the anchor check.  It prints one JSON line with
each mutant's verdict, first failing test, killer outcome and seconds,
and exits 1 if any verdict differs from the expected one or a killer
passes.
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
    killer: str | None = None  # id of a test that must fail on this mutant


MUTANTS = [
    Mutant(
        "vt-position-plus-one",
        "vt_core.py",
        "return DeletionDecode([*w[: p - 1], symbol, *w[p - 1 :]], p)",
        "return DeletionDecode([*w[: p - 1], symbol, *w[p - 1 :]], p + 1)",
        "killed",
        "tests/test_vt_core.py::TestRllDeletionDecode::test_exact_positions_exhaustive",
    ),
    Mutant(
        "vt-alpha-zero-accepted",
        "vt_core.py",
        "0 < alpha < q",
        "0 <= alpha < q",
        "killed",
        "tests/test_vt_core.py::TestDeletionDecode::test_agrees_with_bruteforce_on_every_input",
    ),
    Mutant(
        "vt-beta-test-dropped",
        "vt_core.py",
        "(beta or p == n) and ",
        "",
        "killed",
        "tests/test_vt_core.py::TestDeletionDecode::test_agrees_with_bruteforce_on_every_input",
    ),
    Mutant(
        "vt-refuses-from-three-zeros",
        "vt_core.py",
        "if zeros < 2:",
        "if zeros < 3:",
        "killed",
        "tests/test_vt_core.py::TestDeletionDecode::test_agrees_with_bruteforce_on_every_input",
    ),
    Mutant(
        "vt-syndrome-from-zero",
        "vt_core.py",
        "return sum(map(mul, y, count(1)))",
        "return sum(map(mul, y, count(0)))",
        "killed",
    ),
    Mutant(
        "vt-diff-without-mod",
        "vt_core.py",
        "y = list(map(mod, map(sub, x, islice(x, 1, None)), repeat(q)))",
        "y = list(map(sub, x, islice(x, 1, None)))",
        "killed",
    ),
    Mutant(
        "check-symbols-no-int-coercion",
        "vt_core.py",
        "symbols.append(int(s))",
        "symbols.append(s)",
        "killed",
    ),
    Mutant(
        "check-symbols-fast-path-no-lower-bound",
        "vt_core.py",
        "if not values or (min(values) >= 0 and max(values) < q):",
        "if not values or max(values) < q:",
        "killed",
    ),
    Mutant(
        "check-symbols-one-shot-read-twice",
        "vt_core.py",
        "if iter(x) is x:",
        "if False:",
        "killed",
    ),
    Mutant(
        "rll-suffix-check-dropped",
        "rll_suffix.py",
        "if tuple(result.codeword[params.n :]) != params.b:",
        "if False:",
        "killed",
    ),
    Mutant(
        "rll-member-skips-first-pair",
        "rll_suffix.py",
        "or 0 in y[:-1] or",
        "or 0 in y[1:-1] or",
        "killed",
    ),
    # recover_data reads the data of a codeword whose reserved positions
    # hold values the encoder never writes there.
    Mutant(
        "rll-recover-image-check-dropped",
        "rll_suffix.py",
        "if residue >= params.q * params.length or _reserved(residue, sets, params.q) != values:",
        "if False:",
        "killed",
        "tests/test_rll_suffix.py::TestRecoverData::test_accepts_exactly_the_encoder_outputs",
    ),
    # Without the bound a residue that exceeds the modulus by a multiple of
    # it passes whenever _reserved writes those values for it.
    Mutant(
        "rll-recover-residue-bound-dropped",
        "rll_suffix.py",
        "if residue >= params.q * params.length or ",
        "if ",
        "killed",
        "tests/test_rll_suffix.py::TestRecoverData::test_accepts_exactly_the_encoder_outputs",
    ),
    Mutant(
        "rll-suffix-rule-skips-last-pair",
        "rll_suffix.py",
        "if 0 in vt_core.diff(b, q)[:-1]:",
        "if 0 in vt_core.diff(b, q)[:-2]:",
        "killed",
        "tests/test_rll_suffix.py::TestParams::test_validation",
    ),
    Mutant(
        "rll-params-accept-bool-n",
        "rll_suffix.py",
        'n, q = vt_core.plain_int("n", n), vt_core.plain_int("q", q)\n        if q < 3:',
        'n, q = vt_core.plain_int("n", int(n)), vt_core.plain_int("q", q)\n        if q < 3:',
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
        "code-params-not-coerced",
        "crisscross.py",
        'n, q = vt_core.plain_int("n", n), vt_core.plain_int("q", q)\n        if n < 4:',
        'vt_core.plain_int("n", n), vt_core.plain_int("q", q)\n        if n < 4:',
        "killed",
    ),
    Mutant(
        "parity-off-by-one",
        "crisscross.py",
        "return list(map(mod, map(neg, sums), repeat(q)))",
        "return list(map(mod, map((1).__sub__, sums), repeat(q)))",
        "killed",
    ),
    Mutant(
        "check-array-fast-path-accepts-bool",
        "crisscross.py",
        "if countOf(map(type, chain.from_iterable(X)), int) == rows * cols:",
        "if countOf(map(type, chain.from_iterable(X)), int)"
        " + countOf(map(type, chain.from_iterable(X)), bool) == rows * cols:",
        "killed",
    ),
    Mutant(
        "check-array-fast-path-no-lower-bound",
        "crisscross.py",
        "if min(symbols) >= 0 and max(symbols) < q:",
        "if max(symbols) < q:",
        "killed",
    ),
    Mutant(
        "condition-5-skips-column-n-1",
        "crisscross.py",
        "islice(zip(*X), 1, n - 1)",
        "islice(zip(*X), 1, n - 2)",
        "killed",
    ),
    Mutant(
        "condition-4-row-off-by-one",
        "crisscross.py",
        "enumerate(X[1:], start=2)",
        "enumerate(X[1:], start=1)",
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
        "u = cols if i == 1 else work[0]",
        "u = work[0]",
        "killed",
    ),
    Mutant(
        "locate-last-column-not-reversed",
        "crisscross.py",
        "v = rows[::-1] if last_column_deleted",
        "v = rows if last_column_deleted",
        "killed",
    ),
    Mutant(
        "rebuild-corner-sign-flipped",
        "crisscross.py",
        "rows.insert(i - 1, -sum(cols) % params.q)",
        "rows.insert(i - 1, sum(cols) % params.q)",
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
        "decode-refuses-outside-encoder-image",
        "crisscross.py",
        "        violation = first_violation(work, params)\n",
        "        violation = first_violation(work, params) or recover_data(work, params) and None\n",
        "killed",
        "tests/test_crisscross.py::TestAdversarialDecode::"
        "test_rebuilds_a_codeword_outside_the_encoder_image",
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
        "packed >= q**ml.k3:",
        "packed > q**ml.k3:",
        "killed",
    ),
    # A codeword whose first row the encoder never writes is reported as
    # failing condition 1, which first_violation does not name.
    Mutant(
        "recover-unwritten-word-as-condition",
        "crisscross.py",
        "except EncodingError:\n            written = False\n        except ValueError as exc:",
        "except (EncodingError, ValueError) as exc:",
        "killed",
        "tests/test_crisscross.py::TestAdversarialRecover::"
        "test_refuses_a_first_row_the_encoder_never_writes",
    ),
    Mutant(
        "recover-column-refusal-as-condition-1",
        "crisscross.py",
        "last_column_params(params), _CONDITION_2)",
        "last_column_params(params), _CONDITION_1)",
        "killed",
    ),
    # At (9, 3) the row has data room but no certificate, and the column
    # has no room.  A gate that raised for no certificate would then refuse
    # the point as uncertified when the row goes first; test_proven_range_gate
    # pins "no data room" there.
    Mutant(
        "message-lengths-row-first",
        "crisscross.py",
        "        k2 = rll_suffix.data_length(last_column_params(params))\n"
        "        k1 = rll_suffix.data_length(first_row_params(params))\n",
        "        k1 = rll_suffix.data_length(first_row_params(params))\n"
        "        k2 = rll_suffix.data_length(last_column_params(params))\n",
        "equivalent: data_length returns None for no certificate, so both calls"
        " run before the None test and no room wins in either order",
    ),
    # The layout is worked out before short data is refused: at n = 10^8
    # its k3 alone takes minutes.
    Mutant(
        "encode-size-check-after-layout",
        "crisscross.py",
        "    if len(data) < free_cells(n):  # every message is longer: refused before any layout\n"
        "        raise ValueError(f\"expected more than {free_cells(n)} data symbols, got {len(data)}\")\n"
        "    ml = message_lengths(params)\n",
        "    ml = message_lengths(params)\n"
        "    if len(data) < free_cells(n):\n"
        "        raise ValueError(f\"expected more than {free_cells(n)} data symbols, got {len(data)}\")\n",
        "killed",
        "tests/test_cli.py::test_encode_at_a_huge_n_exits_2_at_once",
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
    # Every count read after the last factor: a suffix with fewer free
    # positions than the shortest one takes factors that are not its own.
    Mutant(
        "dp-counts-read-after-the-full-walk",
        "analysis.py",
        "while i < own_free:",
        "while i < free:",
        "killed",
        "tests/test_analysis.py::TestProtectedRowCount::test_agrees_with_rotate_and_add_oracle",
    ),
    Mutant(
        "dumps-no-trailing-newline",
        "fileio.py",
        'lines.append("}")\n    return "\\n".join(lines) + "\\n"',
        'lines.append("}")\n    return "\\n".join(lines)',
        "killed",
    ),
    Mutant(
        "array-file-rows-not-converted",
        "fileio.py",
        "rows = tuple(map(tuple, crisscross.check_array(rows, dim, dim, q)))",
        "crisscross.check_array(rows, dim, dim, q)",
        "killed",
    ),
    Mutant(
        "loads-accepts-extra-keys",
        "fileio.py",
        "if set(raw) != expected:",
        "if not expected <= set(raw):",
        "killed",
    ),
    Mutant(
        "rll-high-data-split-shifted",
        "rll_suffix.py",
        "if j not in power][-3:]",
        "if j not in power][-4:-1]",
        "killed",
    ),
    Mutant(
        "corrupt-no-upper-index-bound",
        "crisscross.py",
        'if not 1 <= vt_core.plain_int(f"{name} index", index) <= n:',
        'if not 1 <= vt_core.plain_int(f"{name} index", index):',
        "killed",
    ),
    Mutant(
        "array-file-q-n-not-coerced",
        "fileio.py",
        'q, n = vt_core.plain_int("q", q, 2), vt_core.plain_int("n", n, 2)',
        'vt_core.plain_int("q", q, 2), vt_core.plain_int("n", n, 2)',
        "killed",
    ),
    Mutant(
        "cli-builds-every-command",
        "cli.py",
        "names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS",
        "names = COMMANDS",
        "killed",
    ),
    Mutant(
        "cli-verify-runs-recover",
        "cli.py",
        '"verify": (cmd_verify,',
        '"verify": (cmd_recover,',
        "killed",
    ),
    Mutant(
        "cli-usage-lists-only-built-commands",
        "cli.py",
        "required=True, metavar=metavar)",
        "required=True)",
        "killed",
    ),
    Mutant(
        "selftest-decode-not-compared",
        "selftest.py",
        "if decoded != X:",
        "if False:",
        "killed",
        "tests/test_selftest.py::test_round_trip_suite_notices_wrong_decodes",
    ),
    Mutant(
        "selftest-recovery-not-compared",
        "selftest.py",
        "if crisscross.recover_data(X, params) != data:",
        "if False:",
        "killed",
        "tests/test_selftest.py::test_round_trip_suite_notices_wrong_recovery",
    ),
    Mutant(
        "selftest-seed-not-checked",
        "selftest.py",
        'plain_int("seed", seed)',
        "seed",
        "killed",
        "tests/test_selftest.py::test_non_integer_arguments_are_value_errors",
    ),
    # Only an in-process run_selftest call can kill it: the cli turns the
    # DecodingError that then escapes into exit 3 as well.
    Mutant(
        "selftest-decode-errors-escape",
        "selftest.py",
        "except Exception as exc:",
        "except ArithmeticError as exc:",
        "killed",
        "tests/test_selftest.py::test_round_trip_suite_reports_decode_errors",
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
            killer_failed = None
            if mutant.killer:
                code, _, _ = _tier1(tree, [mutant.killer], timeout=max(120, 10 * seconds))
                killer_failed = code == 1
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
                    "as_expected": verdict == expected and killer_failed is not False,
                    "first_failure": failed[0] if failed else None,
                    "killer": mutant.killer,
                    "killer_failed": killer_failed,
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
