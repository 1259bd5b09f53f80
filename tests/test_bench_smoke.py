"""The benchmark's smoke runs pass on this code, untraced and traced, for each
workload.

bench/tracer.py wraps bunred's functions and reads their arguments and
results, so a change under src/ can break a traced run while every direct
test passes: its loads hook, for one, counts len(args[0].encode("utf-8")) and
so needs a str.  The untraced run checks each op's output against
bench/expected.json without the tracer in the way.  Each run must end in a
last line with "correct": true and "failed": 0.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = pytest.mark.parametrize(
    "workload", ["verify_docs", "sweep_grid", "bigint_reduce", "splitting_scan"]
)


def _assert_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last


@WORKLOADS
def test_untraced_benchmark_run_is_correct(workload):
    _assert_run_is_correct(workload, "0")


@WORKLOADS
def test_traced_benchmark_run_is_correct(workload):
    _assert_run_is_correct(workload, "1")
