"""Benchmark of the bunred command line, driven in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports bunred from the
checkout's src/ and writes only under .bench_out/ at the checkout's root.
Each op is one call of bunred.cli.main with stdout captured in memory, and
the next op starts when the previous one returns: a closed loop with one
client, in one process and one thread.

A pass is the workload's list of ops for the seed (see workloads.py), in
which each distinct command runs several times in shuffled order.  With
--trace 0 passes repeat while another one still fits in --seconds, always at
least one, and the end_to_end metrics of BENCHMARK.json are reported:

    setup_s      median over SETUP_REPEATS set-ups of importing bunred afresh
                 and generating the inputs, which for verify_docs includes
                 writing its documents; all but the first are timed between
                 ops at moments spread evenly over the run
    wall_s       time of one round of the workload's distinct commands: the
                 sum over them of each command's latency
    op_p50_ms    median over the distinct commands of their latencies
    op_p90_ms    90th percentile of the same latencies
    peak_rss_mb  peak resident memory of this process

A command's latency is the least of its timings in the run.  Other work on
a shared host only ever adds time to a command; it comes and goes over
seconds and may slow one CPU and not another (see CpuRotation).  The least
of many timings, taken at different moments and on different CPUs, repeats
from run to run far better than their median.  Commands are kept short for
the same reason: one that takes seconds never fits into a quiet moment.

With --trace 1 one untraced round of the distinct commands is followed by two
traced rounds (see tracer.py), which must agree exactly on every count; the
per_layer metrics are reported, counts from the first traced round and times
as the median of the two.  trace.overhead_frac is traced over untraced wall
time, minus 1.

Every op's output is checked against closed forms and against the sha256
recorded in expected.json.  An op that raises, returns the wrong exit code,
writes to stderr or fails a check counts in `failed`; failed/attempted is the
failed fraction.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import COUNTS, Tracer
from workloads import WORKLOADS, Op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKDIR = ROOT / ".bench_out"
# A fixed count: each fresh import of bunred leaves a little memory behind,
# which must be the same in every run for peak_rss_mb to compare.
SETUP_REPEATS = 9
# Ops move to the next CPU the process may run on once this long has passed.
CPU_SWITCH_SECONDS = 0.5

try:
    _LIBC = ctypes.CDLL(None)
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):  # not glibc: nothing to trim
    _LIBC = None


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    out_bytes: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


class CpuRotation:
    """Pins the process to one CPU at a time and, between ops, moves it on to
    the next CPU it may run on every CPU_SWITCH_SECONDS, so that every command
    is timed on each of them.  On a shared host each CPU is slowed by its own
    neighbours, at its own times."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.index = -1
        self.last = 0.0
        self.tick()

    def tick(self) -> None:
        if len(self.cpus) > 1 and perf_counter() - self.last >= CPU_SWITCH_SECONDS:
            self.index = (self.index + 1) % len(self.cpus)
            os.sched_setaffinity(0, {self.cpus[self.index]})
            self.last = perf_counter()


def setup(workload: str, seed: int | None):
    """Import bunred afresh from the checkout and build the workload's ops."""
    t0 = perf_counter()
    for name in [m for m in sys.modules if m == "bunred" or m.startswith("bunred.")]:
        del sys.modules[name]
    cli = importlib.import_module("bunred.cli")
    ops = WORKLOADS[workload](seed, str(WORKDIR))
    return perf_counter() - t0, cli, ops


class SetupSampler:
    """Times `count` fresh set-ups at moments spread evenly over `seconds`, so
    that their median does not hang on what the host did at one moment."""

    def __init__(self, workload: str, seed: int, seconds: float, count: int) -> None:
        self.workload, self.seed = workload, seed
        start = perf_counter()
        self.due = [start + k * seconds / count for k in range(count)]
        self.times: list[float] = []

    def tick(self, finish: bool = False) -> None:
        while self.due and (finish or perf_counter() >= self.due[0]):
            self.due.pop(0)
            in_use = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "bunred"}
            self.times.append(setup(self.workload, self.seed)[0])
            sys.modules.update(in_use)  # the ops go on with the package they started with


def run_pass(cli, ops: list[Op], expected: dict[str, str] | None, tracer: Tracer | None = None,
             between=None) -> Pass:
    """Run ops one after another, calling between() before each one;
    expected=None records digests without comparing."""
    p = Pass()
    for i, op in enumerate(ops):
        if between is not None:
            between()
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        rc, problem = None, None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(op.argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
            except Exception:  # any other escape is a failed op, not a failed run
                problem = "raised " + traceback.format_exc(limit=-3)
            p.latencies.append(perf_counter() - t0)
        text = out.getvalue()
        out.close()
        data = text.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        p.out_bytes += len(data)
        p.digests[op.key] = digest
        del data
        if problem is None:
            try:
                problem = op.check(rc, text)
            except Exception as exc:  # unreadable output fails the op
                problem = f"output check raised {exc!r}"
        if problem is None and err.getvalue():
            problem = f"wrote to stderr: {err.getvalue()[:200]!r}"
        if problem is None and expected is not None and expected.get(op.key) != digest:
            problem = "output bytes differ from expected.json" if op.key in expected else "no digest in expected.json"
        if problem is not None:
            p.failed += 1
            p.problems.append(f"{op.key[:100]}: {problem}")
        del text
        _release_free_memory()
    return p


def _release_free_memory() -> None:
    """Hand freed heap pages back to the OS between ops, as a process per
    command would, so that peak_rss_mb follows the largest op rather than
    how earlier ops left the heap."""
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def timed_passes(cli, ops, expected, seconds: float,
                 setups: SetupSampler) -> tuple[list[Pass], dict[str, float]]:
    cpus = CpuRotation()

    def between() -> None:
        cpus.tick()
        setups.tick()

    passes = []
    start = perf_counter()
    while True:
        gc.collect()
        pass_start = perf_counter()
        passes.append(run_pass(cli, ops, expected, between=between))
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    setups.tick(finish=True)
    least: dict[str, float] = {}
    for p in passes:
        for op, latency in zip(ops, p.latencies):
            least[op.key] = min(latency, least.get(op.key, latency))
    latencies = list(least.values())
    return passes, {
        "wall_s": sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": _p90(latencies) * 1e3,
    }


def distinct(ops: list[Op]) -> list[Op]:
    """Each command of ops once, in the order of first appearance."""
    first: dict[str, Op] = {}
    for op in ops:
        first.setdefault(op.key, op)
    return list(first.values())


def traced_passes(cli, ops, expected, spans_path: Path) -> tuple[list[Pass], dict[str, float], list[str]]:
    gc.collect()
    untraced = run_pass(cli, ops, expected)
    passes, layer, problems = [untraced], [], []
    for i in range(2):
        tracer = Tracer()
        gc.collect()
        with tracer.installed():
            p = run_pass(cli, ops, expected, tracer)
        passes.append(p)
        layer.append(tracer.metrics(p.out_bytes))
        problems += tracer.check_spans()
        if i == 0:
            with open(spans_path, "w", encoding="utf-8") as f:
                f.write("name\tstart\tend\tparent\top\n")
                f.writelines(f"{n}\t{s!r}\t{e!r}\t{par}\t{op}\n" for n, s, e, par, op in tracer.spans)
    first, second = layer
    for name in COUNTS:
        if first[name] != second[name]:
            problems.append(f"{name} differs between two passes: {first[name]} != {second[name]}")
    if first["serialize.out_bytes"] != untraced.out_bytes:
        problems.append("traced and untraced passes wrote different numbers of bytes")
    metrics = {name: first[name] if name in COUNTS else statistics.median([first[name], second[name]])
               for name in first}
    metrics["trace.overhead_frac"] = statistics.median(p.wall for p in passes[1:]) / untraced.wall - 1
    return passes, metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the bunred command line.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    src = ROOT / "src"
    if not (src / "bunred" / "cli.py").is_file():
        print(f"error: no bunred sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    WORKDIR.mkdir(exist_ok=True)

    first_setup, cli, ops = setup(args.workload, args.seed)
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"error: bunred was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))[args.workload]

    if args.trace:
        spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        passes, metrics, problems = traced_passes(cli, distinct(ops), expected, spans_path)
    else:
        setups = SetupSampler(args.workload, args.seed, args.seconds, SETUP_REPEATS - 1)
        passes, metrics = timed_passes(cli, ops, expected, args.seconds, setups)
        metrics["setup_s"] = statistics.median([first_setup] + setups.times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = []

    if sorted(metrics) != sorted(m["name"] for m in declared):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [x for p in passes for x in p.problems] + problems
    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(passes[0].latencies)} ops, "
          f"{failed}/{attempted} failed (failed_frac {failed / attempted})")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
