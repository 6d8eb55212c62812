"""Spans around crisscodec's public functions, installed from outside the package.

A Tracer wraps every public module-level function of the measured modules
and rebinds each wrapper under every name a crisscodec module looks the
function up by (crisscross binds from_digits, to_digits and int_log_floor
with `from ... import`, so patching rll_suffix alone would miss those
calls).  Every call adds to its function's totals (calls, busy, self and
failed time) as it returns; the first MAX_SPANS spans are also kept whole
in memory and written out when the run ends.

This module imports no crisscodec code at import time, so a child process
can import it before timing `import crisscodec`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Iterator

#: Modules whose public functions are traced.  Of `cli` only `main` is:
#: its subcommand handlers are the CLI layer's own work.
MODULES = ("vt_core", "rll_suffix", "crisscross", "fileio", "analysis")
#: The `_with_trace` twins are the bodies of encode/decode; leaving them
#: unwrapped keeps the layout and parity work in encode/decode self time.
SKIP = frozenset(
    {"crisscross.encode_with_trace", "crisscross.decode_with_trace", "rll_suffix.encode_with_trace"}
)
LAYERS = ("vt_core", "rll_suffix", "crisscross", "fileio", "cli", "analysis")

#: Refusal stage of a failed crisscross.decode, keyed by its message prefix.
REFUSAL_STAGES = (
    ("cannot locate the deleted row", "row"),
    ("cannot locate the deleted column", "col"),
    ("reconstructed array is not a codeword", "final"),
)

#: Functions whose calls must be seen on the workload that does their work;
#: a traced run on that workload that sees none of them is an error.
OWNERS = {
    "bulk-256": (
        "vt_core.check_symbols",
        "crisscross.first_violation",
        "crisscross.encode",
        "crisscross.decode",
        "crisscross.recover_data",
        "crisscross.corrupt",
    ),
    "sweep-11": (
        "vt_core.decode_rll_deletion",
        "rll_suffix.encode",
        "rll_suffix.decode",
        "rll_suffix.is_member",
        "rll_suffix.recover_data",
    ),
    "cli-64": ("cli.main", "fileio.loads", "fileio.dumps"),
    "count": ("analysis.protected_row_count", "analysis.count_code_size"),
}

#: Per-layer metrics of a traced run, in BENCHMARK.json order.  Counts and
#: times are per workload operation unless the name says otherwise.
PER_LAYER = (
    "vt_core.check_symbols.calls",
    "vt_core.check_symbols.busy_s",
    "crisscross.first_violation.calls",
    "crisscross.first_violation.busy_s",
    "crisscross.first_violation.self_s",
    "crisscross.encode.busy_s",
    "crisscross.encode.self_s",
    "crisscross.decode.busy_s",
    "crisscross.decode.self_s",
    "crisscross.recover_data.busy_s",
    "crisscross.recover_data.self_s",
    "crisscross.corrupt.busy_s",
    "vt_core.decode_rll_deletion.calls",
    "vt_core.decode_rll_deletion.busy_s",
    "vt_core.decode_rll_deletion.failed",
    "rll_suffix.encode.calls",
    "rll_suffix.encode.busy_s",
    "rll_suffix.decode.calls",
    "rll_suffix.decode.busy_s",
    "rll_suffix.decode.failed",
    "rll_suffix.is_member.calls",
    "rll_suffix.is_member.busy_s",
    "rll_suffix.recover_data.calls",
    "rll_suffix.recover_data.busy_s",
    "crisscross.decode.refused.row",
    "crisscross.decode.refused.col",
    "crisscross.decode.refused.final",
    "crisscross.decode.late_refusal_ratio",
    "cli.process_s",
    "cli.import_s",
    "cli.main.busy_s",
    "cli.main.self_s",
    "fileio.loads.calls",
    "fileio.loads.busy_s",
    "fileio.dumps.calls",
    "fileio.dumps.busy_s",
    "analysis.protected_row_count.calls",
    "analysis.protected_row_count.busy_s",
    "analysis.protected_row_count.words",
    "analysis.count_code_size.busy_s",
    *(f"{layer}.self_share" for layer in LAYERS),
    "trace.op_s",
    "trace.overhead_s",
)


def unit(metric: str) -> str:
    """Unit of a PER_LAYER metric: times and counts are per workload operation."""
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    return "s/op" if metric.endswith("_s") else "1/op"


#: Spans kept whole for writing out; totals cover every call regardless.
MAX_SPANS = 50_000


def _count_words(counts: dict[str, float], n: int, q: int, *args, **kwargs) -> None:
    counts["analysis.protected_row_count.words"] += q**n


def _count_refusal(counts: dict[str, float], exc: Exception) -> None:
    counts[f"crisscross.decode.refused.{refusal_stage(str(exc)) or 'other'}"] += 1


#: Counters recorded at the layer boundary, from a call's arguments or from
#: the exception it raised.
CALL_HOOKS = {"analysis.protected_row_count": _count_words}
ERROR_HOOKS = {"crisscross.decode": _count_refusal}


def refusal_stage(message: str) -> str | None:
    for prefix, stage in REFUSAL_STAGES:
        if message.startswith(prefix):
            return stage
    return None


class Tracer:
    """Span recorder.

    `totals` maps each function to [calls, busy ns, self ns, calls that
    raised]; self time is busy time minus the time of traced callees.  A
    kept span is (name index, start ns, end ns, parent span index or -1,
    op id, raised).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.totals: dict[str, list[int]] = {}
        self.spans: list[tuple[int, int, int, int, int, bool] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[list[int]] = []  # [kept span index or -1, ns in traced callees]

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.totals[name] = [0, 0, 0, 0]
        return self.names.index(name)

    def wrap(self, name: str, fn):
        index = self._name_index(name)
        total, spans, stack = self.totals[name], self.spans, self._stack
        call_hook, error_hook = CALL_HOOKS.get(name), ERROR_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if call_hook is not None:
                call_hook(self.counts, *args, **kwargs)
            me = len(spans) if len(spans) < MAX_SPANS else -1
            if me >= 0:
                spans.append(None)
            frame = [me, 0]
            stack.append(frame)
            raised = False
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised = True
                if error_hook is not None:
                    error_hook(self.counts, exc)
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                busy = end - start
                total[0] += 1
                total[1] += busy
                total[2] += busy - frame[1]
                total[3] += raised
                if stack:
                    stack[-1][1] += busy
                if me >= 0:
                    spans[me] = (index, start, end, stack[-1][0] if stack else -1, self.op, raised)

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the measured functions wherever crisscodec looks them up."""
        functions = {"cli.main": importlib.import_module("crisscodec.cli").main}
        for module_name in MODULES:
            module = importlib.import_module(f"crisscodec.{module_name}")
            for attr, fn in vars(module).items():
                name = f"{module_name}.{attr}"
                if (
                    not attr.startswith("_")
                    and name not in SKIP
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    functions[name] = fn
        wrappers = {id(fn): (fn, self.wrap(name, fn)) for name, fn in functions.items()}
        patched = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "crisscodec" and not module_name.startswith("crisscodec."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def dump(self) -> dict:
        """Totals, counters and kept spans as plain JSON data."""
        return {
            "names": self.names,
            "totals": self.totals,
            "counts": self.counts,
            "spans": [list(s) for s in self.spans],
        }

    def absorb(self, doc: dict, op: int) -> None:
        """Add what another process dumped, its spans as operation `op`."""
        remap = [self._name_index(name) for name in doc["names"]]
        for name, values in doc["totals"].items():
            self.totals[name] = [a + b for a, b in zip(self.totals[name], values)]
        for name, value in doc["counts"].items():
            self.counts[name] += value
        offset = len(self.spans)
        for index, start, end, parent, _, raised in doc["spans"][: MAX_SPANS - offset]:
            parent = parent + offset if parent >= 0 else -1
            self.spans.append((remap[index], start, end, parent, op, raised))

    def aggregate(self) -> dict[str, dict[str, int]]:
        """Per function: calls, busy ns, self ns and calls that raised."""
        return {
            name: dict(zip(("calls", "busy", "self", "failed"), t))
            for name, t in self.totals.items()
            if t[0]
        }

    def refusals(self) -> dict[str, int]:
        """Failed crisscross.decode calls by the stage that refused."""
        return {
            stage: int(self.counts.get(f"crisscross.decode.refused.{stage}", 0))
            for stage in ("row", "col", "final", "other")
        }


def layer_metrics(
    tracer: Tracer, workload: str, traced_op_ns: list[int], untraced_op_ns: list[int]
) -> tuple[dict[str, float], list[str]]:
    """The PER_LAYER values of one traced run, and any missing-layer errors."""
    ops = max(len(traced_op_ns), 1)
    wall_ns = max(sum(traced_op_ns), 1)
    totals = tracer.aggregate()
    values: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0)
    for name, t in totals.items():
        values[f"{name}.calls"] = t["calls"] / ops
        values[f"{name}.busy_s"] = t["busy"] / 1e9 / ops
        values[f"{name}.self_s"] = t["self"] / 1e9 / ops
        values[f"{name}.failed"] = t["failed"] / ops
        layer_self[name.split(".")[0]] += t["self"]
    for layer, self_ns in layer_self.items():
        values[f"{layer}.self_share"] = self_ns / wall_ns
    for name, total in tracer.counts.items():
        values[name] = total / ops
    stages = tracer.refusals()
    refused = sum(stages.values())
    values["crisscross.decode.late_refusal_ratio"] = stages["final"] / refused if refused else 0.0
    traced_s = sum(traced_op_ns) / 1e9 / ops
    values["trace.op_s"] = traced_s
    if untraced_op_ns:
        values["trace.overhead_s"] = traced_s - sum(untraced_op_ns) / 1e9 / len(untraced_op_ns)
    errors = [
        f"{name} was never called on {workload}, the workload that does its work"
        for name in OWNERS.get(workload, ())
        if totals.get(name, {}).get("calls", 0) == 0
    ]
    return {name: values[name] for name in PER_LAYER}, errors
