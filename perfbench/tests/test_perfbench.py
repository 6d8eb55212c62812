"""Tests of the benchmark itself: tiny workloads, failure accounting and tracing.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from crisscodec import crisscross, rll_suffix  # noqa: E402

TINY = {
    "bulk-256": lambda: workloads.Bulk(16, 17),
    "sweep-11": lambda: workloads.Sweep(11, 3),
    "cli-64": lambda: workloads.Cli(11, 5),
    "count": lambda: workloads.Count(((6, 5),)),
}


def run_tiny(name, workdir, tracer=None):
    """One step of a tiny-size workload (seconds=0 still runs one step)."""
    workload = TINY[name]()
    if name == "cli-64" and tracer is not None:
        workload.processes = True
    stats = workloads.Stats(name, 7, tracer)
    traced = tracer is not None and workload.in_process
    with tracer.installed() if traced else contextlib.nullcontext():
        workloads.run_loop(workload, 7, 0.0, stats, workdir)
    return stats


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_verifies_every_operation(name, tmp_path):
    stats = run_tiny(name, tmp_path)
    assert stats.attempted > 0 and stats.op_ns and stats.work > 0
    assert stats.failures == []


def test_inputs_depend_only_on_workload_seed_and_index():
    bulk = workloads.Bulk(16, 17)
    first = bulk.message(workloads.rng_for("bulk-256", 3, 5))
    assert bulk.message(workloads.rng_for("bulk-256", 3, 5)) == first
    assert bulk.message(workloads.rng_for("bulk-256", 4, 5)) != first


def _off_by_one(real):
    def decode(Y, params):
        X = real(Y, params)
        X[-1][1] = (X[-1][1] + 1) % params.q
        return X

    return decode


@pytest.mark.parametrize("name", ["bulk-256", "sweep-11"])
def test_wrong_decode_is_counted_as_failed(name, tmp_path, monkeypatch):
    monkeypatch.setattr(crisscross, "decode", _off_by_one(crisscross.decode))
    stats = run_tiny(name, tmp_path)
    assert stats.failures, "a wrong decode must be recorded"
    failure = stats.failures[0]
    assert (failure["workload"], failure["seed"]) == (name, 7)
    assert {"op", "i", "j", "reason"} <= set(failure)


def test_wrong_decode_makes_the_command_fail(monkeypatch, capsys):
    monkeypatch.setattr(crisscross, "decode", _off_by_one(crisscross.decode))
    code = run.main(["--workload", "bulk-256", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1


def test_wrong_count_is_counted_as_failed(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.PINNED_COUNTS, (6, 5), (3, 1, 0))
    assert run_tiny("count", tmp_path).failures


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_workload_reaches_every_layer_it_owns(name, tmp_path):
    tracer = tracing.Tracer()
    stats = run_tiny(name, tmp_path, tracer)
    values, errors = tracing.layer_metrics(tracer, name, stats.op_ns, [])
    assert errors == [] and stats.failures == []
    assert list(values) == list(tracing.PER_LAYER)
    totals = tracer.aggregate()
    for function in tracing.OWNERS[name]:
        assert totals[function]["calls"] > 0, function


def test_sweep_refusals_are_classified_by_stage(tmp_path):
    tracer = tracing.Tracer()
    run_tiny("sweep-11", tmp_path, tracer)
    stages = tracer.refusals()
    assert stages["other"] == 0
    assert stages["row"] + stages["col"] + stages["final"] > 0


def test_wrappers_are_bound_where_callers_look_them_up():
    original = rll_suffix.from_digits
    tracer = tracing.Tracer()
    with tracer.installed():
        assert crisscross.from_digits is rll_suffix.from_digits is not original
        crisscross.encode([0] * crisscross.message_lengths(crisscross.CodeParams(11, 3)).total,
                          crisscross.CodeParams(11, 3))
    assert crisscross.from_digits is original and rll_suffix.from_digits is original
    totals = tracer.aggregate()
    for name in ("rll_suffix.from_digits", "rll_suffix.to_digits", "rll_suffix.int_log_floor"):
        assert totals[name]["calls"] > 0, name
    assert "crisscross.encode_with_trace" not in totals


def test_self_time_excludes_traced_callees():
    tracer = tracing.Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("m.outer", lambda: inner() + inner())
    outer()
    totals = tracer.aggregate()
    assert totals["m.inner"]["calls"] == 2
    assert totals["m.outer"]["self"] == totals["m.outer"]["busy"] - totals["m.inner"]["busy"]


def test_benchmark_json_matches_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, tracing.unit(name)) for name in tracing.PER_LAYER
    ]
    stats = workloads.Stats("count", 1, op_ns=[1000, 2000])
    e2e = run.end_to_end(stats, 0.5, 30.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_totals_cover_calls_beyond_the_kept_spans(monkeypatch):
    monkeypatch.setattr(tracing, "MAX_SPANS", 3)
    tracer = tracing.Tracer()
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: inner() or inner())
    outer()
    outer()
    assert len(tracer.spans) == 3
    assert tracer.aggregate()["m.inner"]["calls"] == 4
