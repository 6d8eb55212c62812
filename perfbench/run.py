"""Benchmark of crisscodec: seeded workloads, one closed-loop caller, checked outputs.

    python3 perfbench/run.py --workload bulk-256 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; crisscodec is imported from src/.
`--workload all` runs the four workloads one after another.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  The exit code is 0 only when every operation
was verified correct.  perfbench/README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
WORKLOAD_NAMES = ("bulk-256", "sweep-11", "cli-64", "count")
#: Fresh interpreters whose set-up time is measured per run; the median is reported.
SETUP_RUNS = 7
PROBE_TIMEOUT_S = 120


def percentile(samples_ns: list[int], pct: int) -> float:
    """The pct-th percentile of samples, in milliseconds (0.0 when there are none)."""
    if len(samples_ns) < 2:
        return samples_ns[0] / 1e6 if samples_ns else 0.0
    return statistics.quantiles(samples_ns, n=100, method="inclusive")[pct - 1] / 1e6


def set_up(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Set-up seconds and peak RSS in MB of SETUP_RUNS fresh interpreters.

    Each imports crisscodec and runs the workload's first operation; the
    seconds are their median, the RSS the largest.  Taking memory from these
    children keeps it free of the benchmark's own samples, whose number
    grows with the program's speed.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed), str(workdir)],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def end_to_end(stats, setup_s: float, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The gated metrics.  The median latency and the throughput are detail
    lines only: on a host whose speed switches between two levels they
    snap between those levels from run to run, while the 90th percentile
    stays on the slower one (see README.md)."""
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_ms.p90": (percentile(stats.op_ns, 90), "ms"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import tracing
    import workloads

    workload = workloads.make(name, trace)
    setup_s, peak_rss_mb = (0.0, 0.0) if trace else set_up(name, seed, workdir)
    # Warm-up, untimed and unchecked: its failures show again in the timed loop.
    workload.step(seed, -1, workloads.Stats(name, seed), workdir)
    errors: list[str] = []
    if not trace:
        stats = workloads.Stats(name, seed)
        workloads.run_loop(workload, seed, seconds, stats, workdir)
        metrics = end_to_end(stats, setup_s, peak_rss_mb)
    else:
        # Half the time untraced, half traced: the difference is the tracing overhead.
        untraced = workloads.Stats(name, seed)
        workloads.run_loop(workload, seed, seconds / 2, untraced, workdir)
        tracer = tracing.Tracer()
        stats = workloads.Stats(name, seed, tracer)
        with tracer.installed() if workload.in_process else contextlib.nullcontext():
            workloads.run_loop(workload, seed, seconds / 2, stats, workdir)
        (WORK / f"spans-{name}.json").write_text(json.dumps(tracer.dump()))
        values, errors = tracing.layer_metrics(tracer, name, stats.op_ns, untraced.op_ns)
        metrics = {key: (value, tracing.unit(key)) for key, value in values.items()}
        stats.attempted += untraced.attempted
        stats.failures += untraced.failures
    report(stats, workload, metrics, errors)
    return {
        "correct": not stats.failures and not errors and stats.attempted > 0,
        "attempted": stats.attempted,
        "failed": len(stats.failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def report(stats, workload, metrics: dict, errors: list[str]) -> None:
    """Human-readable detail: per-phase latencies, failures with replay data."""
    fail_rate = len(stats.failures) / stats.attempted if stats.attempted else 0.0
    print(
        f"# {stats.workload} seed={stats.seed}: {len(stats.op_ns)} operations timed, "
        f"{stats.attempted} attempted, fail_rate={fail_rate:.4g}; work = {workload.work_unit}"
    )
    busy_s = sum(stats.op_ns) / 1e9
    print(
        f"#   op_ms p50={percentile(stats.op_ns, 50):.4f} p90={percentile(stats.op_ns, 90):.4f} "
        f"samples={len(stats.op_ns)}; work_per_s={stats.work / busy_s if busy_s else 0.0:.6g}"
    )
    for phase, samples in stats.phase_ns.items():
        print(
            f"#   {phase}_ms p50={percentile(samples, 50):.4f} "
            f"p90={percentile(samples, 90):.4f} samples={len(samples)}"
        )
    for key, (value, unit) in metrics.items():
        print(f"#   {key} = {value:.6g} {unit}")
    for failure in stats.failures:
        print("FAILED " + json.dumps(failure), file=sys.stderr)
    for error in errors:
        print(f"ERROR {error}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crisscodec" / "__init__.py").is_file():
        print(f"error: no crisscodec sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
            for name in names
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": m for name, r in results.items() for key, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
