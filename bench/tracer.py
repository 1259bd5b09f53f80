"""Spans around the calls into each bunred layer, recorded from outside bunred.

While installed, a Tracer replaces the module attributes that callers look
up with timing wrappers and puts the originals back afterwards; nothing under
src/ changes.  Each call becomes a span [name, start, end, parent, op]; a
span's self time is its duration minus the durations of its child spans.
The leaf modules (euler, types, affine, weights, grassmann) have no spans:
their cost lands in the self time of the layer that calls them.

Counts come from walking what the wrapped calls return.  The clock is
paused while a wrapper counts, so counting adds to the traced run's wall
time (trace.overhead_frac) but to no span.
"""

from __future__ import annotations

import math
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import oracle

# (span name, module, attribute): the attribute is the name its caller looks up.
TARGETS = (
    ("cli", "bunred.cli", "main"),
    ("reduction.reduce", "bunred.cli", "reduce"),
    ("reduction.verify_trace", "bunred.cli", "verify_trace"),
    ("serialize.trace_to_dict", "bunred.cli", "trace_to_dict"),
    ("serialize.dumps", "bunred.cli", "dumps"),
    ("generic_hom.scan", "bunred.cli", "no_bad_splitting_scan"),
    ("serialize.loads", "bunred.serialize", "loads"),
    ("serialize.trace_from_dict", "bunred.serialize", "trace_from_dict"),
    ("diophantine.solve_lemma", "bunred.reduction", "solve_lemma"),
)

# Rank sizes of the bigint_reduce strata, for reduction.reduce.op_ms.d<digits>.
DIGIT_BANDS = (6, 30, 100, 300)

# Metrics that must repeat exactly between two passes over the same inputs.
COUNTS = (
    "reduction.verify_trace.calls",
    "reduction.verify_trace.checks",
    "reduction.verify_trace.checks_failed",
    "reduction.reduce.calls",
    "reduction.reduce.nodes",
    "reduction.reduce.distinct_subtrees",
    "reduction.reduce.max_depth",
    "reduction.reduce.max_int_digits",
    "diophantine.solve_lemma.calls",
    "serialize.in_bytes",
    "serialize.out_bytes",
    "generic_hom.scan.calls",
    "generic_hom.scan.examined",
    "generic_hom.scan.visited",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0  # id of the op in progress, set by the caller
        self._open: list[int] = []
        self._paused = 0.0
        self.nodes = 0
        self.distinct: set[tuple[int, int, int]] = set()
        self.max_depth = 0
        self.max_abs_int = 0
        self.reduce_ms: dict[int, list[float]] = {}
        self.checks = 0
        self.checks_failed = 0
        self.in_bytes = 0
        self.examined = 0
        self.visited = 0

    def _now(self) -> float:
        return perf_counter() - self._paused

    def _wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            span = [name, self._now(), None, self._open[-1] if self._open else -1, self.op]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self._now()
                self._open.pop()
            if count is not None:
                t0 = perf_counter()
                count(span, args, result)
                self._paused += perf_counter() - t0
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, module, attr in TARGETS:
                mod = sys.modules[module]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    # -- counting, outside the span clock ------------------------------------

    def _count_reduction_reduce(self, span, args, trace) -> None:
        self.reduce_ms.setdefault(len(str(trace.input.rank)), []).append((span[2] - span[1]) * 1e3)
        biggest = max(abs(trace.h), abs(trace.total_affine_dim), abs(trace.composite_det.shift))
        stack = [(trace.root, 1)]
        while stack:
            node, depth = stack.pop()
            self.nodes += 1
            self.distinct.add((trace.genus, node.t.rank, node.t.degree))
            self.max_depth = max(self.max_depth, depth)
            if hasattr(node, "sol"):
                s = node.sol
                ints = [node.t.rank, node.t.degree, s.rF, s.dF, s.r1, s.d1, s.h, s.h1,
                        node.rkV, node.rho_affine, node.hecke_affine]
                ints += [m.shift for m in node.det_maps]
                stack.append((node.mu2, depth + 1))
                stack.append((node.mu1, depth + 1))
            else:
                ints = [node.t.rank, node.t.degree, node.twist_degree]
            biggest = max(biggest, max(map(abs, ints)))
        self.max_abs_int = max(self.max_abs_int, biggest)

    def _count_reduction_verify_trace(self, span, args, report) -> None:
        self.checks += len(report.checks)
        self.checks_failed += len(report.failures())

    def _count_serialize_loads(self, span, args, trace) -> None:
        self.in_bytes += len(args[0].encode("utf-8"))

    def _count_generic_hom_scan(self, span, args, report) -> None:
        _, t1, t2, bound = args
        self.examined += report.examined
        self.visited += oracle.scan_visited(t1.rank, t2.rank, bound)

    # -- results --------------------------------------------------------------

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def check_spans(self) -> list[str]:
        """Problems with the span tree: a child outside its parent or in another
        op, or an op whose self times do not add up to its cli span."""
        problems = []
        op_total: dict[int, float] = {}
        op_self: dict[int, float] = {}
        for (name, start, end, parent, op), own in zip(self.spans, self._self_times()):
            op_self[op] = op_self.get(op, 0.0) + own
            if parent < 0:
                if name != "cli" or op in op_total:
                    problems.append(f"op {op}: unexpected root span {name}")
                op_total[op] = end - start
            else:
                _, p_start, p_end, _, p_op = self.spans[parent]
                if not (p_start <= start <= end <= p_end and p_op == op):
                    problems.append(f"op {op}: span {name} lies outside its parent")
        for op, total in op_total.items():
            if not math.isclose(op_self[op], total, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"op {op}: self times add up to {op_self[op]} s, cli span is {total} s")
        if op_self.keys() != op_total.keys():
            problems.append("spans of an op without a cli span")
        return problems

    def metrics(self, out_bytes: int) -> dict[str, float]:
        """Per-layer metrics of one pass; out_bytes is what the pass's ops wrote."""
        calls = {name: 0 for name, _, _ in TARGETS}
        self_s = {name: 0.0 for name, _, _ in TARGETS}
        for span, own in zip(self.spans, self._self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += own

        m = {
            "reduction.verify_trace.calls": calls["reduction.verify_trace"],
            "reduction.verify_trace.self_s": self_s["reduction.verify_trace"],
            "reduction.verify_trace.checks": self.checks,
            "reduction.verify_trace.checks_failed": self.checks_failed,
            "reduction.verify_trace.us_per_check": _ratio(self_s["reduction.verify_trace"] * 1e6, self.checks),
            "reduction.reduce.calls": calls["reduction.reduce"],
            "reduction.reduce.self_s": self_s["reduction.reduce"],
            "reduction.reduce.nodes": self.nodes,
            "reduction.reduce.distinct_subtrees": len(self.distinct),
            "reduction.reduce.distinct_ratio": _ratio(len(self.distinct), self.nodes),
            "reduction.reduce.max_depth": self.max_depth,
            "reduction.reduce.max_int_digits": len(str(self.max_abs_int)) if self.nodes else 0,
        }
        for digits in DIGIT_BANDS:
            times = self.reduce_ms.get(digits)
            m[f"reduction.reduce.op_ms.d{digits}"] = statistics.median(times) if times else 0.0
        m.update({
            "diophantine.solve_lemma.calls": calls["diophantine.solve_lemma"],
            "diophantine.solve_lemma.self_s": self_s["diophantine.solve_lemma"],
            "serialize.loads.self_s": self_s["serialize.loads"],
            "serialize.trace_from_dict.self_s": self_s["serialize.trace_from_dict"],
            "serialize.in_bytes": self.in_bytes,
            "serialize.trace_to_dict.self_s": self_s["serialize.trace_to_dict"],
            "serialize.dumps.self_s": self_s["serialize.dumps"],
            "serialize.out_bytes": out_bytes,
            "cli.self_s": self_s["cli"],
            "generic_hom.scan.calls": calls["generic_hom.scan"],
            "generic_hom.scan.self_s": self_s["generic_hom.scan"],
            "generic_hom.scan.examined": self.examined,
            "generic_hom.scan.visited": self.visited,
            "generic_hom.scan.examined_ratio": _ratio(self.examined, self.visited),
        })
        return m


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 where the layer did no work in this workload."""
    return num / den if den else 0.0
