"""The benchmark's four workloads: seeded inputs, one closed-loop caller, checked outputs.

Every input is drawn from random.Random(f"{workload}:{seed}:{index}"), so
(workload, seed, op index) replays any operation.  Each operation is timed
with time.perf_counter_ns around the calls into crisscodec only; inputs are
made and outputs verified outside the timed region, against the benchmark's
own model of the code (`is_codeword`, `delete`), not the program's.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from crisscodec import analysis, cli, crisscross, fileio
from crisscodec.crisscross import CodeParams
from crisscodec.errors import DecodingError

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
CLI_LAUNCH = "from crisscodec.cli import entry_point; entry_point()"
CHILD_TIMEOUT_S = 60


@dataclass
class Stats:
    """Samples and outcomes of one run of one workload."""

    workload: str
    seed: int
    tracer: Tracer | None = None
    op_ns: list[int] = field(default_factory=list)  # one sample per closed-loop operation
    phase_ns: dict[str, list[int]] = field(default_factory=dict)
    work: int = 0
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)

    def begin(self, op: int) -> None:
        """Start an attempted operation; traced spans carry its index."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = op

    def done(self, ns: int, work: int) -> None:
        self.op_ns.append(ns)
        self.work += work

    def phase(self, name: str, ns: int) -> None:
        self.phase_ns.setdefault(name, []).append(ns)

    def fail(self, op: int, i: int, j: int, reason: str) -> None:
        self.failures.append(
            {"workload": self.workload, "seed": self.seed, "op": op, "i": i, "j": j, "reason": reason}
        )


def rng_for(workload: str, seed: int, index: int | str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def delete(X: list[list[int]], i: int, j: int) -> list[list[int]]:
    """X without row i and column j (1-based)."""
    return [row[: j - 1] + row[j:] for r, row in enumerate(X) if r != i - 1]


def _protected(x: list[int], q: int, suffix: tuple[int, ...]) -> bool:
    """x is in RLL_DVT_0(len(x); q) and ends with `suffix`."""
    y = [(a - b) % q for a, b in zip(x, x[1:])] + [x[-1]]
    return (
        sum(k * v for k, v in enumerate(y, start=1)) % (q * len(x)) == 0
        and all(a != b for a, b in zip(x, x[1:]))
        and tuple(x[-len(suffix) :]) == suffix
    )


def is_codeword(X: list[list[int]], n: int, q: int) -> bool:
    """The five codeword conditions of the criss-cross code, checked directly."""
    if len(X) != n or any(len(row) != n for row in X):
        return False
    if any(type(v) is not int or not 0 <= v < q for row in X for v in row):
        return False
    return (
        _protected(X[0], q, (0, 2))
        and _protected([row[-1] for row in reversed(X)], q, (0, 1, 2))
        and X[1][n - 2] == 1
        and X[2][n - 2] == 2
        and all(sum(row) % q == 0 for row in X[1:])
        and all(sum(row[j] for row in X) % q == 0 for j in range(1, n - 1))
    )


class _Codec:
    """A workload over one (n, q) code; messages are drawn from the operation's RNG."""

    in_process = True

    def __init__(self, n: int, q: int) -> None:
        self.params = CodeParams(n, q)
        self.message_length = crisscross.message_lengths(self.params).total

    def message(self, rng: random.Random) -> list[int]:
        return rng.choices(range(self.params.q), k=self.message_length)

    def first_op(self, seed: int, workdir: Path) -> float:
        """Seconds of one round trip, the operation a fresh interpreter runs first."""
        data = self.message(rng_for(self.name, seed, "first"))
        start = time.perf_counter()
        X = crisscross.encode(data, self.params)
        crisscross.recover_data(crisscross.decode(crisscross.corrupt(X, 1, 1), self.params), self.params)
        return time.perf_counter() - start


class Bulk(_Codec):
    """Large arrays: encode -> corrupt -> decode -> recover, one message per operation."""

    name = "bulk-256"
    work_unit = "message symbols round-tripped"

    def __init__(self, n: int = 256, q: int = 257) -> None:
        super().__init__(n, q)

    def step(self, seed: int, index: int, stats: Stats, workdir: Path) -> None:
        p, rng = self.params, rng_for(self.name, seed, index)
        data = self.message(rng)
        i, j = rng.randint(1, p.n), rng.randint(1, p.n)
        stats.begin(index)
        try:
            t0 = time.perf_counter_ns()
            X = crisscross.encode(data, p)
            t1 = time.perf_counter_ns()
            Y = crisscross.corrupt(X, i, j)
            t2 = time.perf_counter_ns()
            Z = crisscross.decode(Y, p)
            t3 = time.perf_counter_ns()
            D = crisscross.recover_data(Z, p)
            t4 = time.perf_counter_ns()
        except Exception as exc:  # any raise is a failed operation, recorded for replay
            stats.fail(index, i, j, f"{type(exc).__name__}: {exc}")
            return
        if not is_codeword(X, p.n, p.q) or Z != X or D != data:
            stats.fail(index, i, j, "encode, decode or recover returned a wrong result")
            return
        stats.done(t4 - t0, len(data))
        for phase, ns in (("encode", t1 - t0), ("corrupt", t2 - t1), ("decode", t3 - t2), ("recover", t4 - t3)):
            stats.phase(phase, ns)


class Sweep(_Codec):
    """Small arrays: every one of the n^2 deletions of each message is decoded.

    About a quarter of the received arrays also get one symbol substituted,
    which drives the decoder's refusal path.  One operation is one received
    array: decode, plus recover when the array was not tampered with.
    """

    name = "sweep-11"
    work_unit = "received arrays decoded"
    tamper_share = 0.25

    def __init__(self, n: int = 11, q: int = 3) -> None:
        super().__init__(n, q)

    def step(self, seed: int, index: int, stats: Stats, workdir: Path) -> None:
        p, rng = self.params, rng_for(self.name, seed, index)
        n, q = p.n, p.q
        data = self.message(rng)
        base = index * n * n
        stats.begin(base)
        try:
            t0 = time.perf_counter_ns()
            X = crisscross.encode(data, p)
            encode_ns = time.perf_counter_ns() - t0
        except Exception as exc:
            stats.fail(base, 0, 0, f"encode raised {type(exc).__name__}: {exc}")
            return
        if not is_codeword(X, n, q):
            stats.fail(base, 0, 0, "encode returned a non-codeword")
            return
        for k in range(n * n):
            op, i, j = base + k, k // n + 1, k % n + 1
            Y = delete(X, i, j)
            tampered = rng.random() < self.tamper_share
            if tampered:
                r, c = rng.randrange(n - 1), rng.randrange(n - 1)
                Y[r][c] = (Y[r][c] + rng.randrange(1, q)) % q
            # The encode above is begun and timed as part of the first operation.
            if k:
                stats.begin(op)
            extra_ns = 0 if k else encode_ns
            if tampered:
                self._tampered(Y, op, i, j, stats, extra_ns)
            else:
                self._clean(X, Y, data, op, i, j, stats, extra_ns)

    def _clean(self, X, Y, data, op, i, j, stats: Stats, extra_ns: int) -> None:
        try:
            t0 = time.perf_counter_ns()
            Z = crisscross.decode(Y, self.params)
            t1 = time.perf_counter_ns()
            D = crisscross.recover_data(Z, self.params)
            t2 = time.perf_counter_ns()
        except Exception as exc:
            stats.fail(op, i, j, f"{type(exc).__name__}: {exc}")
            return
        if Z != X or D != data:
            stats.fail(op, i, j, "decode or recover returned a wrong result")
            return
        stats.done(t2 - t0 + extra_ns, 1)
        stats.phase("decode", t1 - t0)
        stats.phase("recover", t2 - t1)

    def _tampered(self, Y, op, i, j, stats: Stats, extra_ns: int) -> None:
        n, q = self.params.n, self.params.q
        t0 = time.perf_counter_ns()
        try:
            Z = crisscross.decode(Y, self.params)
        except DecodingError:
            Z = None
        except Exception as exc:
            stats.fail(op, i, j, f"tampered decode raised {type(exc).__name__}: {exc}")
            return
        t1 = time.perf_counter_ns()
        # A refusal is correct; so is any codeword whose deletion ball holds Y.
        if Z is not None and not (
            is_codeword(Z, n, q)
            and any(delete(Z, a, b) == Y for a in range(1, n + 1) for b in range(1, n + 1))
        ):
            stats.fail(op, i, j, "tampered decode returned an array that does not explain it")
            return
        stats.done(t1 - t0 + extra_ns, 1)
        stats.phase("tampered_decode", t1 - t0)


class Cli(_Codec):
    """The command line round trip: encode, corrupt, decode, recover on JSON files.

    One operation is one CLI command; the chain of four must end with a
    recovered file byte-identical to the message file.  Commands run
    in-process through cli.main, so an operation is the CLI's own work and
    start-up plus import show in setup_s (a fresh interpreter running the
    encode command).  With `processes`, as in a traced run, each command is
    a child process instead, and a traced one records its spans through
    cli_child.py.
    """

    name = "cli-64"
    work_unit = "message symbols round-tripped"
    commands = ("encode", "corrupt", "decode", "recover")

    def __init__(self, n: int = 64, q: int = 257, processes: bool = False) -> None:
        super().__init__(n, q)
        self.processes = processes

    @property
    def in_process(self) -> bool:
        return not self.processes

    def _write_message(self, rng: random.Random, workdir: Path) -> tuple[list[int], Path]:
        data = self.message(rng)
        path = workdir / "message.json"
        path.write_text(fileio.dumps(fileio.ArrayFile("data", self.params.q, self.params.n, symbols=data)))
        return data, path

    def _argv(self, command: str, workdir: Path, i: int, j: int) -> list[str]:
        f = {name: str(workdir / f"{name}.json") for name in ("message", "array", "received", "decoded", "recovered")}
        return {
            "encode": ["encode", "--n", str(self.params.n), "--q", str(self.params.q), "--data", f["message"], "--out", f["array"]],
            "corrupt": ["corrupt", "--in", f["array"], "--row", str(i), "--col", str(j), "--out", f["received"]],
            "decode": ["decode", "--in", f["received"], "--out", f["decoded"]],
            "recover": ["recover", "--in", f["decoded"], "--out", f["recovered"]],
        }[command]

    def first_op(self, seed: int, workdir: Path) -> float:
        """The first CLI command, run in this process (a fresh interpreter when probed)."""
        self._write_message(rng_for(self.name, seed, "first"), workdir)
        start = time.perf_counter()
        code = cli.main(self._argv("encode", workdir, 1, 1))
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"encode command exited with {code}")
        return elapsed

    def _run(self, argv: list[str], stats: Stats, workdir: Path, op: int) -> tuple[int, str]:
        """Exit code and error text of one command."""
        if not self.processes:
            return cli.main(argv), ""
        trace_file = workdir / "child-trace.json"
        launcher = [str(CLI_CHILD), str(trace_file)] if stats.tracer is not None else ["-c", CLI_LAUNCH]
        t0 = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, *launcher, *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        if stats.tracer is not None and proc.returncode == 0:
            stats.tracer.absorb(json.loads(trace_file.read_text()), op)
            stats.tracer.counts["cli.process_s"] += (time.perf_counter_ns() - t0) / 1e9
        return proc.returncode, proc.stderr.decode()[-300:]

    def step(self, seed: int, index: int, stats: Stats, workdir: Path) -> None:
        rng = rng_for(self.name, seed, index)
        data, message = self._write_message(rng, workdir)
        i, j = rng.randint(1, self.params.n), rng.randint(1, self.params.n)
        for k, command in enumerate(self.commands):
            op = index * len(self.commands) + k
            stats.begin(op)
            try:
                t0 = time.perf_counter_ns()
                code, error = self._run(self._argv(command, workdir, i, j), stats, workdir, op)
                t1 = time.perf_counter_ns()
            except Exception as exc:  # includes a child that outlived CHILD_TIMEOUT_S
                stats.fail(op, i, j, f"{command} raised {type(exc).__name__}: {exc}")
                return
            if code != 0:
                stats.fail(op, i, j, f"{command} exited {code}: {error}")
                return
            stats.done(t1 - t0, 0)
            stats.phase(command, t1 - t0)
        array = (workdir / "array.json").read_bytes()
        recovered = (workdir / "recovered.json").read_bytes()
        if (workdir / "decoded.json").read_bytes() != array or recovered != message.read_bytes():
            stats.fail(op, i, j, "decoded or recovered file differs from the original")
        elif not is_codeword(json.loads(array)["rows"], self.params.n, self.params.q):
            stats.fail(op, i, j, "encode wrote a non-codeword")
        else:
            stats.work += len(data)


#: Code sizes of the count grid, pinned from the seed commit:
#: (first-row count, last-column count, code size) per (n, q).
PINNED_COUNTS = {
    (12, 3): (28, 12, 19240760773995089692027882177916527514212014154704),
    (8, 5): (105, 12, 733416527509689331054687500),
    (7, 7): (230, 13, 81832554546841939865570),
    (6, 11): (125, 33, 1566468063530869125),
    (6, 5): (8, 5, 244140625000),  # the tests' tiny grid
}


class Count:
    """Exact code sizes by the structural formula over a fixed (n, q) grid.

    One operation is one pass over the grid, in an order drawn from the seed.
    Only the `formula` mode runs: one bruteforce call at (4, 3) takes over
    30 s, so a change to analysis._count_bruteforce alone does not show here.
    """

    name = "count"
    work_unit = "candidate words enumerated"
    in_process = True

    def __init__(self, grid: tuple[tuple[int, int], ...] = ((12, 3), (8, 5), (7, 7), (6, 11))) -> None:
        self.grid = grid

    def first_op(self, seed: int, workdir: Path) -> float:
        start = time.perf_counter()
        analysis.count_code_size(*self.grid[0], "formula")
        return time.perf_counter() - start

    def step(self, seed: int, index: int, stats: Stats, workdir: Path) -> None:
        order = list(self.grid)
        rng_for(self.name, seed, index).shuffle(order)
        total = words = 0
        for k, (n, q) in enumerate(order):
            op = index * len(order) + k
            stats.begin(op)
            try:
                t0 = time.perf_counter_ns()
                r = analysis.count_code_size(n, q, "formula")
                t1 = time.perf_counter_ns()
            except Exception as exc:
                stats.fail(op, 0, 0, f"count_code_size({n}, {q}) raised {type(exc).__name__}: {exc}")
                return
            if (r.first_row_count, r.last_column_count, r.size) != PINNED_COUNTS[(n, q)]:
                stats.fail(op, 0, 0, f"count_code_size({n}, {q}) = {r} differs from the pinned count")
                return
            total += t1 - t0
            words += 2 * q**n
            stats.phase(f"count_{n}_{q}", t1 - t0)
        stats.done(total, words)


WORKLOADS = {w.name: w for w in (Bulk, Sweep, Cli, Count)}


def make(name: str, trace: bool):
    """The named workload; in a traced run each cli-64 command is its own process."""
    return Cli(processes=True) if trace and name == Cli.name else WORKLOADS[name]()


def run_loop(workload, seed: int, seconds: float, stats: Stats, workdir: Path) -> None:
    """Closed loop: start the next operation only when the last one returned."""
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        workload.step(seed, index, stats, workdir)
        index += 1
        if time.perf_counter() >= deadline:
            return
