"""The mutation list stays applicable: each anchor names one place in the package,
and each killer names a test that exists.

Running the mutants takes minutes (python tests/mutants.py); this only
checks that the list has not gone stale.
"""

from __future__ import annotations

import ast
import re

from mutants import MUTANTS, ROOT, SRC


def test_each_anchor_occurs_exactly_once_in_src():
    sources = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    for mutant in MUTANTS:
        counts = {path.name: text.count(mutant.anchor) for path, text in sources.items()}
        assert {name: k for name, k in counts.items() if k} == {mutant.file: 1}, mutant.name
        assert mutant.replacement != mutant.anchor, mutant.name


def test_names_are_unique_and_verdicts_are_stated():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert re.fullmatch(r"killed|equivalent: \S.*", mutant.expected), mutant.name


def test_each_killer_names_a_test_function_of_a_killed_mutant():
    killers = [mutant for mutant in MUTANTS if mutant.killer is not None]
    assert killers
    for mutant in killers:
        assert mutant.expected == "killed", mutant.name
        path, *names = mutant.killer.split("::")
        scope, node = ast.parse((ROOT / path).read_text()).body, None
        for name in names:
            node = next(
                (n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                 and n.name == name),
                None,
            )
            assert node is not None, f"{mutant.name}: {mutant.killer} names nothing"
            scope = node.body
        assert isinstance(node, ast.FunctionDef) and node.name.startswith("test_"), mutant.name
