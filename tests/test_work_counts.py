"""Exact work counts of fixed CLI runs, pinned so that lost sharing shows without a clock.

The sweep is the 900-case grid genus 2..4, rank <= 12, |degree| <= 12, run
through the CLI, which shares one table of built types and one trace_ok memo
per genus.  Counters are monkeypatched around the calls being counted:

- solve_lemma is called once per distinct composite type: 853 times;
- reduce builds one node per distinct type of a genus, 853 CompositeStep and
  406 BaseStep, together the 1,259 nodes walked below (a fresh table of
  built types per case builds 1,424 and 1,957);
- the verifier's pass walks 1,259 nodes, against 3,381 when every case is
  checked again with a fresh memo;
- trace_ok builds no SheafType, DegreeAffineMap or GenusContext: each check
  states its rule on plain values and takes the genus as an int.

The big-rank path is `reduce --format json` on the three 300-digit types of
test_reduce_golden, one per genus 2..4, each with its own table and memo:
2,649 solve_lemma calls and CompositeStep nodes, 1,490 BaseStep nodes and
4,139 nodes walked, and again no object built by trace_ok.

The read side is `verify FILE` on the documents of the three 100-digit
types of test_reduce_golden, one per genus 2..4.  While cli.load reads them
it builds 845 CompositeStep, 848 BaseStep and 845 LemmaSolution, one per
node, and 2,541 SheafType and 3,383 DegreeAffineMap; it calls node_depth
once per document.  The verifier's pass walks the 1,693 nodes and reports
14,395 rows (4,141, 5,348 and 4,906 checks).

A failing trace, the genus-2 (12, 5) tree with the root's rkV one too big:
trace_ok makes the whole pass, as verify_trace does, and walks its 9 nodes.

A count that changes on purpose is pinned again with a reason.
"""

import dataclasses
from collections import Counter

from test_reduce_golden import _seeded_type

from bunred import (
    BaseStep,
    CompositeStep,
    DegreeAffineMap,
    GenusContext,
    LemmaSolution,
    SheafType,
    cli,
    dumps,
    reduce,
    reduction,
    serialize,
)

SWEEP = ["sweep", "--genus", "2..4", "--max-rank", "12", "--degree-range=-12..12"]
NAMES = (
    "solve_lemma", "CompositeStep", "BaseStep", "walked",
    "SheafType", "DegreeAffineMap", "GenusContext",
)


def _counting(counts, cls, inside):
    """cls.__init__, counting the objects made while inside is not empty."""
    real_init = cls.__init__

    def init(self, *args, **kwargs):
        if inside:
            counts[cls.__name__] += 1
        real_init(self, *args, **kwargs)

    return init


def _count_walked(monkeypatch, counts):
    """Count the nodes each pass of the verifier walks as counts["walked"]."""
    real_check_trace = reduction._check_trace

    def check_trace(trace, run, verified):
        walked, ok = real_check_trace(trace, run, verified)
        counts["walked"] += len(walked)
        return walked, ok

    monkeypatch.setattr(reduction, "_check_trace", check_trace)


def _count_work(monkeypatch):
    """Install the counters; return the Counter they add to and the list of
    traces passed to cli.trace_ok."""
    counts = Counter()
    traces = []
    in_reduce = []
    in_trace_ok = []

    real_solve = reduction.solve_lemma

    def solve_lemma(ctx, t):
        counts["solve_lemma"] += 1
        return real_solve(ctx, t)

    real_reduce = cli.reduce

    def reduce(ctx, t, **kwargs):
        in_reduce.append(t)
        try:
            return real_reduce(ctx, t, **kwargs)
        finally:
            in_reduce.pop()

    real_trace_ok = cli.trace_ok

    def trace_ok(trace, verified):
        traces.append(trace)
        in_trace_ok.append(trace)
        try:
            return real_trace_ok(trace, verified)
        finally:
            in_trace_ok.pop()

    monkeypatch.setattr(reduction, "solve_lemma", solve_lemma)
    _count_walked(monkeypatch, counts)
    monkeypatch.setattr(cli, "reduce", reduce)
    monkeypatch.setattr(cli, "trace_ok", trace_ok)
    for cls in (SheafType, DegreeAffineMap, GenusContext):
        monkeypatch.setattr(cls, "__init__", _counting(counts, cls, in_trace_ok))
    for cls in (CompositeStep, BaseStep):
        monkeypatch.setattr(cls, "__init__", _counting(counts, cls, in_reduce))
    return counts, traces


def test_sweep_grid_work_counts(monkeypatch, capsys):
    """GenusContext was 900, one per trace, while the composite checks took
    a GenusContext; they take the genus as an int, so it is 0."""
    counts, traces = _count_work(monkeypatch)
    assert cli.main(SWEEP) == 0
    assert capsys.readouterr().out.endswith("\n900 cases, 900 valid\n")
    assert len(traces) == 900
    assert {name: counts[name] for name in NAMES} == {
        "solve_lemma": 853,
        "CompositeStep": 853,
        "BaseStep": 406,
        "walked": 1259,
        "SheafType": 0,
        "DegreeAffineMap": 0,
        "GenusContext": 0,
    }

    counts.clear()
    assert all(reduction.trace_ok(trace, {}) for trace in traces)
    assert counts["walked"] == 3381


def test_bigint_reduce_work_counts(monkeypatch, capsys):
    counts, traces = _count_work(monkeypatch)
    for g in range(2, 5):
        rank, degree = _seeded_type(300, g)
        args = ["reduce", "-g", str(g), "-r", str(rank), "-d", str(degree), "--format", "json"]
        assert cli.main(args) == 0
    capsys.readouterr()
    assert len(traces) == 3
    assert {name: counts[name] for name in NAMES} == {
        "solve_lemma": 2649,
        "CompositeStep": 2649,
        "BaseStep": 1490,
        "walked": 4139,
        "SheafType": 0,
        "DegreeAffineMap": 0,
        "GenusContext": 0,
    }


def test_verify_work_counts(monkeypatch, capsys, tmp_path):
    paths = []
    for g in range(2, 5):
        path = tmp_path / f"g{g}.json"
        path.write_text(dumps(reduce(GenusContext(g), SheafType(*_seeded_type(100, g)))))
        paths.append(str(path))

    counts = Counter()
    in_load = []
    real_load = cli.load

    def load(path):
        in_load.append(path)
        try:
            return real_load(path)
        finally:
            in_load.pop()

    real_node_depth = serialize.node_depth

    def node_depth(node):
        counts["node_depth"] += 1
        return real_node_depth(node)

    monkeypatch.setattr(cli, "load", load)
    monkeypatch.setattr(serialize, "node_depth", node_depth)
    _count_walked(monkeypatch, counts)
    for cls in (CompositeStep, BaseStep, LemmaSolution, SheafType, DegreeAffineMap):
        monkeypatch.setattr(cls, "__init__", _counting(counts, cls, in_load))

    # a verdict counts the report's rows: 14,395 in all
    verdicts = []
    for path in paths:
        assert cli.main(["verify", path]) == 0
        verdicts.append(capsys.readouterr().out.splitlines()[-1])
    assert verdicts == [
        "certificate VALID (4141 checks)",
        "certificate VALID (5348 checks)",
        "certificate VALID (4906 checks)",
    ]
    assert dict(counts) == {
        "CompositeStep": 845,
        "BaseStep": 848,
        "LemmaSolution": 845,
        "SheafType": 2541,
        "DegreeAffineMap": 3383,
        "node_depth": 3,
        "walked": 1693,
    }


def test_trace_ok_walks_a_failing_trace_as_far_as_verify_trace(monkeypatch):
    trace = reduce(GenusContext(2), SheafType(12, 5))
    root = dataclasses.replace(trace.root, rkV=trace.root.rkV + 1)
    bad = dataclasses.replace(trace, root=root)
    counts = Counter()
    _count_walked(monkeypatch, counts)

    memo = {}
    ok = reduction.trace_ok(bad, memo)
    walked_by_trace_ok = counts.pop("walked")
    report = reduction.verify_trace(bad, strict=False)
    assert ok is False and ok == report.ok
    assert memo == {}
    assert {c.path for c in report.failures()} == {"root"}
    assert walked_by_trace_ok == counts["walked"] == 9
