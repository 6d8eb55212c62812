"""Package import surface, no public name that only the tests call, no stale doc
reference, no allocation that grows with n before a call checks its input, and a
test configuration that reports a failing Hypothesis test."""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import crisscodec
from conftest import run_capped

SRC = Path(crisscodec.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"
README = SRC.parents[1] / "README.md"
PYPROJECT = SRC.parents[1] / "pyproject.toml"


def test_importing_the_codec_does_not_load_numpy():
    code = (
        "import sys, crisscodec, crisscodec.crisscross, crisscodec.fileio, "
        "crisscodec.selftest, crisscodec.analysis, crisscodec.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


#: Calls at an n far beyond any layout that can be built, and what each must do.
HUGE_N_CALLS = {
    "rll_suffix.data_length(RllSuffixParams(10**12, 3, (0, 2)))": "returned",
    "rll_suffix.encode([0], RllSuffixParams(10**8, 3, (0, 2)))": "ValueError",
    "crisscross.encode([0], CodeParams(10**8, 3))": "ValueError",
    "crisscross.recover_data([[0]], CodeParams(10**8, 3))": "ValueError",
    "analysis.analysis_row(10**40, 3)": "ValueError",
}


def test_huge_n_is_answered_or_refused_at_once():
    # Each call reads only its own input and O(log n) reserved positions,
    # so it ends well within 0.1 s, and a 1 GiB address space, either way.
    code = (
        "import json, sys, time\n"
        "from crisscodec import analysis, crisscross, rll_suffix\n"
        "from crisscodec.crisscross import CodeParams\n"
        "from crisscodec.errors import CodecError\n"
        "from crisscodec.rll_suffix import RllSuffixParams\n"
        "for call in sys.argv[1:]:\n"
        "    start = time.perf_counter()\n"
        "    try:\n"
        "        eval(call)\n"
        "        outcome = 'returned'\n"
        "    except (ValueError, CodecError) as exc:\n"
        "        outcome = type(exc).__name__\n"
        "    except BaseException as exc:\n"
        "        outcome = 'leaked ' + type(exc).__name__\n"
        "    print(json.dumps([call, outcome, time.perf_counter() - start]), flush=True)\n"
    )
    proc = run_capped(code, *HUGE_N_CALLS, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {call: outcome for call, outcome, _ in results} == HUGE_N_CALLS
    slow = {call: seconds for call, _, seconds in results if seconds >= 0.1}
    assert not slow, slow


#: What `import crisscodec` adds to sys.modules in an interpreter started as
#: the benchmark's probes start one.  A module that joins it is import-time
#: work that every process pays, so it fails here before it shows as setup_s.
PACKAGE_IMPORT = [
    "__future__",
    "crisscodec",
    "crisscodec.crisscross",
    "crisscodec.errors",
    "crisscodec.rll_suffix",
    "crisscodec.vt_core",
    "numbers",
]


def test_importing_the_package_or_the_cli_loads_only_the_codec():
    # A fresh interpreter, because pytest itself imports dataclasses and inspect.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import crisscodec\n"
        "print(sorted(set(sys.modules) - before))\n"
        "unwanted = {'dataclasses', 'inspect', 'crisscodec.analysis', 'crisscodec.selftest'}\n"
        "import crisscodec.cli\n"
        "print(sorted(unwanted & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{PACKAGE_IMPORT}\n[]\n"


def _uses(module: str, tree: ast.Module, modules: set[str]) -> set[tuple[str, str]]:
    """(module, name) of each package name this module refers to, outside the def of that name.

    A bare name means a definition of this module or a name imported
    from a sibling module; `sibling.name` means that sibling's name.
    """
    imported = {}
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
                uses.add((node.module, alias.name))
    for top in tree.body:
        own = (module, getattr(top, "name", None))
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                target = imported.get(node.id, (module, node.id))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                target = (node.value.id, node.attr)
            else:
                continue
            if target != own:
                uses.add(target)
    return uses


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = set().union(*(_uses(module, tree, set(trees)) for module, tree in trees.items()))
    assert PERFBENCH.is_dir()
    bench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and (module, node.name) not in uses
        and not re.search(rf"\b{module}\.{node.name}\b", bench)
    ]
    assert not unused, f"only the tests call {unused}; move them into tests/"


def test_no_module_uses_a_private_name_of_another():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    private = sorted(
        f"{module} uses {owner}.{name}"
        for module, tree in trees.items()
        for owner, name in _uses(module, tree, set(trees))
        if owner != module and name.startswith("_")
    )
    assert not private


def test_every_module_reference_in_the_docs_resolves():
    """Each `module.name` token in README.md or a package source, whose module
    is a crisscodec module, names an attribute that exists."""
    modules = sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("_"))
    token = re.compile(rf"\b({'|'.join(modules)})((?:\.\w+)+)")
    stale = []
    for path in [README, *sorted(SRC.glob("*.py"))]:
        for module, chain in token.findall(path.read_text()):
            target = importlib.import_module(f"crisscodec.{module}")
            for name in chain[1:].split("."):
                if not hasattr(target, name):
                    stale.append(f"{path.name}: {module}{chain}")
                    break
                target = getattr(target, name)
    assert not stale, f"these references name nothing: {stale}"


def test_every_error_class_is_raised():
    """Each class of errors.py except the CodecError base is raised somewhere
    in the package, so no error class is exported that callers never see."""
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    errors = ast.parse((SRC / "errors.py").read_text())
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    never = [name for name in classes if name != "CodecError" and name not in raised]
    assert not never, f"no raise statement in the package raises {never}"


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # On a falsified example Hypothesis imports libcst, which warns that
    # mypy_extensions.TypedDict is deprecated.  Turned into an error inside
    # the plugin's report hook, that warning ends the session with an
    # INTERNALERROR before any later test runs.
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 10\n"
        "\n"
        "def test_later():\n"
        "    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
