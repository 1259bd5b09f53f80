"""Exact work counts of one sweep, pinned so that lost sharing shows without a clock.

The sweep is the 900-case grid genus 2..4, rank <= 12, |degree| <= 12, run
through the CLI, which shares one table of built types and one trace_ok memo
per genus.  Counters are monkeypatched around the calls being counted:

- solve_lemma is called once per distinct composite type: 853 times;
- reduce builds one node per distinct type of a genus, 853 CompositeStep and
  406 BaseStep, together the 1,259 nodes walked below (a fresh table of
  built types per case builds 1,424 and 1,957);
- the verifier's pass walks 1,259 nodes, against 3,381 when every case is
  checked again with a fresh memo;
- trace_ok builds one GenusContext per trace and no SheafType or
  DegreeAffineMap: a passing check compares plain ints.

A count that changes on purpose is pinned again with a reason.
"""

from collections import Counter

from bunred import (
    BaseStep,
    CompositeStep,
    DegreeAffineMap,
    GenusContext,
    SheafType,
    cli,
    reduction,
)

SWEEP = ["sweep", "--genus", "2..4", "--max-rank", "12", "--degree-range=-12..12"]


def test_sweep_grid_work_counts(monkeypatch, capsys):
    counts = Counter()
    traces = []
    in_reduce = []
    in_trace_ok = []

    real_solve = reduction.solve_lemma

    def solve_lemma(ctx, t):
        counts["solve_lemma"] += 1
        return real_solve(ctx, t)

    real_check_trace = reduction._check_trace

    def check_trace(trace, run, verified):
        walked = real_check_trace(trace, run, verified)
        counts["walked"] += len(walked)
        return walked

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

    def counting(cls, inside):
        """cls.__init__, counting the objects made while inside is not empty."""
        real_init = cls.__init__

        def init(self, *args, **kwargs):
            if inside:
                counts[cls.__name__] += 1
            real_init(self, *args, **kwargs)

        return init

    monkeypatch.setattr(reduction, "solve_lemma", solve_lemma)
    monkeypatch.setattr(reduction, "_check_trace", check_trace)
    monkeypatch.setattr(cli, "reduce", reduce)
    monkeypatch.setattr(cli, "trace_ok", trace_ok)
    for cls in (SheafType, DegreeAffineMap, GenusContext):
        monkeypatch.setattr(cls, "__init__", counting(cls, in_trace_ok))
    for cls in (CompositeStep, BaseStep):
        monkeypatch.setattr(cls, "__init__", counting(cls, in_reduce))

    assert cli.main(SWEEP) == 0
    assert capsys.readouterr().out.endswith("\n900 cases, 900 valid\n")
    assert len(traces) == 900
    names = (
        "solve_lemma", "CompositeStep", "BaseStep", "walked",
        "SheafType", "DegreeAffineMap", "GenusContext",
    )
    assert {name: counts[name] for name in names} == {
        "solve_lemma": 853,
        "CompositeStep": 853,
        "BaseStep": 406,
        "walked": 1259,
        "SheafType": 0,
        "DegreeAffineMap": 0,
        "GenusContext": 900,
    }

    counts.clear()
    assert all(reduction.trace_ok(trace, {}) for trace in traces)
    assert counts["walked"] == 3381
