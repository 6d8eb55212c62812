"""The mutation list stays applicable: each anchor names one place in the package.

Running the mutants takes minutes (python tests/mutants.py); this only
checks that the list has not gone stale.
"""

from __future__ import annotations

import re

from mutants import MUTANTS, SRC


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
