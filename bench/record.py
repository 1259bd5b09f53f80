"""Records what the benchmark compares against, at the checked-out commit.

    python3 bench/record.py digests
        Runs every op of every workload's pool once and writes the sha256 of
        each op's stdout to bench/expected.json.  Each output must pass the
        benchmark's own checks first.
    python3 bench/record.py baseline --seed 1
        Runs bench/run.py for each workload for BENCHMARK.json's run_seconds,
        untraced and then traced, each in its own process and one after
        another, and writes the results with the machine they ran on to
        bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import run


def record_digests() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.WORKDIR.mkdir(exist_ok=True)
    digests = {}
    for name in run.WORKLOADS:
        _, cli, ops = run.setup(name, None)
        p = run.run_pass(cli, ops, None)
        for line in p.problems:
            print(f"FAIL {line}", file=sys.stderr)
        if p.problems:
            return 1
        digests[name] = dict(sorted(p.digests.items()))
        print(f"{name}: {len(p.digests)} ops in {p.wall:.1f} s")
    path = run.BENCH_DIR / "expected.json"
    path.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def record_baseline(seed: int) -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    results = {}
    for name in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[f"{name}/trace{trace}"] = result
            print(f"{name} trace {trace}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed")
    baseline = {
        "machine": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "int_max_str_digits": sys.get_int_max_str_digits(),
        },
        "seed": seed,
        "seconds": seconds,
        "results": results,
    }
    path = run.BENCH_DIR / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("what", choices=("digests", "baseline"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    return record_digests() if args.what == "digests" else record_baseline(args.seed)


if __name__ == "__main__":
    sys.exit(main())
