"""Birational-reduction certificates and their independent verifier.

reduce() builds the full reduction tree taking the moduli stack of rank-r,
degree-d bundles to the stack of rank-h, degree-0 bundles, h = hcf(r, d).
Each non-base step records the window solution (rF, dF), the rank of the
Hom bundle the step is a Grassmannian bundle of, the affine dimensions
contributed by the graph map and by the Hecke side, two child subtrees (the
reduction of the kernel type (r1, d1) and of the Hecke target (h1, -h)), and
the per-segment determinant-degree maps:

    [ kernel step: deg -> h*dF - deg,
      child 1's composite,
      Hecke shift: deg -> deg - h,
      child 2's composite ]

A base step (rank == h) is a twist by the unique line-bundle degree landing
at degree 0.

verify_trace() re-derives every number in the certificate from first
principles and reports each named check as pass/fail; nothing is trusted
from the construction, and nothing is cached.  It makes one pre-order pass
over the tree with an explicit stack (a node's own checks, then its mu1
subtree, then its mu2 subtree), so its depth is not bounded by the recursion
limit; node_affine_total and node_depth walk level by level for the same
reason.  The checks are module-level tables of plain functions; a check's
failure detail is formatted only when the check fails, so a passing
certificate costs no string formatting.

reduce() builds the tree with one explicit-stack loop, not by recursion, and
solves and builds each distinct (rank, degree) once: every repeat of a type
in the tree is the same frozen node.  The table of built types lives for one
reduce() call only.  It refuses a tree deeper than max_tree_depth() with a
DomainError, a bound set below the recursion limit so that the recursive
writers (serialize.trace_to_dict and _node_from_dict, the CLI's text walk)
can still handle every tree it returns.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Union

from .affine import DegreeAffineMap, compose_det
from .diophantine import LemmaSolution, solve_lemma
from .errors import CertificateInvalid, DomainError, InvalidType
from .euler import euler_form
from .grassmann import hecke_det_shift
from .types import GenusContext, SheafType, hcf_of_type, require_genus_ge_2


@dataclass(frozen=True)
class BaseStep:
    """Terminal step: rank equals hcf, twist by a degree-`twist_degree` line bundle."""

    t: SheafType
    twist_degree: int


@dataclass(frozen=True)
class CompositeStep:
    """One window-solution step plus the two recursive child reductions."""

    t: SheafType
    sol: LemmaSolution
    rkV: int
    rho_affine: int
    hecke_affine: int
    mu1: StepNode
    mu2: StepNode
    det_maps: tuple[DegreeAffineMap, ...]


StepNode = Union[BaseStep, CompositeStep]


@dataclass(frozen=True)
class ReductionTrace:
    genus: int
    input: SheafType
    h: int
    root: StepNode
    total_affine_dim: int
    composite_det: DegreeAffineMap


def node_composite_det(node: StepNode) -> DegreeAffineMap:
    """Determinant-degree map of the whole subtree, first segment acting first."""
    if isinstance(node, BaseStep):
        return DegreeAffineMap(1, node.t.rank * node.twist_degree)
    return compose_det(node.det_maps)


def node_affine_total(node: StepNode) -> int:
    """Sum of the affine dimensions contributed by the subtree."""
    total = 0
    level = [node]
    while level:
        below = []
        for node in level:
            if not isinstance(node, BaseStep):
                total += node.rho_affine + node.hecke_affine
                below.append(node.mu1)
                below.append(node.mu2)
        level = below
    return total


def node_depth(node: StepNode) -> int:
    """Number of levels of the subtree."""
    depth = 0
    level = [node]
    while level:
        depth += 1
        below = []
        for node in level:
            if not isinstance(node, BaseStep):
                below.append(node.mu1)
                below.append(node.mu2)
        level = below
    return depth


# Frames left below the recursion limit for the callers of the recursive
# writers of a tree (serialize.trace_to_dict, serialize._node_from_dict and the
# CLI's text walk), which take one frame per level plus a few at the leaves.
WRITER_HEADROOM = 60


def max_tree_depth() -> int:
    """Deepest tree reduce() builds: the recursion limit less WRITER_HEADROOM,
    so that every tree it returns can still be written and read back."""
    return sys.getrecursionlimit() - WRITER_HEADROOM


def reduce(ctx: GenusContext, t: SheafType) -> ReductionTrace:
    """Build the complete reduction certificate for the type t.

    Recursion on r/h: a base step twists degree to 0; otherwise one window
    solution produces the kernel type (r1, d1) and the Hecke target (h1, -h),
    both strictly smaller in the r/h measure.  A tree deeper than
    max_tree_depth() is refused with a DomainError.
    """
    require_genus_ge_2(ctx)
    if t.rank < 1:
        raise InvalidType(f"reduction needs rank >= 1, got {t}")
    root = _build_tree(ctx, t, max_tree_depth())
    return ReductionTrace(
        genus=ctx.genus,
        input=t,
        h=hcf_of_type(t),
        root=root,
        total_affine_dim=node_affine_total(root),
        composite_det=node_composite_det(root),
    )


def _build_tree(ctx: GenusContext, t: SheafType, max_depth: int) -> StepNode:
    """The reduction tree of t, each distinct type solved and built once.

    One explicit-stack pass: a composite type is entered in the order the
    recursive definition visits it (the node, then its mu1 subtree, then its
    mu2 subtree), so solve_lemma is called in that order, once per distinct
    type, and its node is made after both of its children.  Only composite
    children are entered; a base child (r1 = h1, or h1 = h) is made when its
    parent is.  built maps (rank, degree) to its node, so every later
    occurrence of a type is the same frozen node; it lives for this call
    only.  Depth is checked on the way down, and for a repeated composite
    subtree when it is reused.
    """
    r, d = t.rank, t.degree
    if d % r == 0:
        return BaseStep(t=t, twist_degree=-(d // r))
    built: dict[tuple[int, int], StepNode] = {}
    # (type, depth, None) enters a composite type at that depth;
    # (type, depth, sol) makes its node once both children are built.
    todo: list = [(t, 1, None)]
    while todo:
        t, depth, sol = todo.pop()
        if sol is None:
            node = built.get((t.rank, t.degree))
            if node is not None:
                if depth + node_depth(node) - 1 > max_depth:
                    raise _too_deep(max_depth)
                continue
            if depth == max_depth:
                raise _too_deep(max_depth)
            sol = solve_lemma(ctx, t)
            todo.append((t, depth, sol))
            if sol.h1 != sol.h:
                todo.append((SheafType(sol.h1, -sol.h), depth + 1, None))
            if sol.r1 != sol.h1:
                todo.append((SheafType(sol.r1, sol.d1), depth + 1, None))
            continue
        h = sol.h
        mu1 = _built_or_base(built, sol.r1, sol.d1)
        mu2 = _built_or_base(built, sol.h1, -h)
        # chi((r1, d1), (rF, dF)), as euler_form computes it
        rk_v = (1 - ctx.genus) * sol.r1 * sol.rF + sol.r1 * sol.dF - sol.rF * sol.d1
        built[t.rank, t.degree] = CompositeStep(
            t=t,
            sol=sol,
            rkV=rk_v,
            rho_affine=h * (rk_v - sol.h1),
            hecke_affine=h * (sol.h1 - h),
            mu1=mu1,
            mu2=mu2,
            det_maps=(
                DegreeAffineMap(-1, h * sol.dF),
                node_composite_det(mu1),
                hecke_det_shift(h),
                node_composite_det(mu2),
            ),
        )
    return built[r, d]


def _built_or_base(built: dict[tuple[int, int], StepNode], r: int, d: int) -> StepNode:
    """The node of a child of type (r, d): composite children are built
    before their parent, so a type not in built is a base step."""
    node = built.get((r, d))
    if node is None:
        node = built[r, d] = BaseStep(t=SheafType(r, d), twist_degree=-(d // r))
    return node


def _too_deep(max_depth: int) -> DomainError:
    return DomainError(
        "the reduction tree is deeper than the recursion limit "
        f"({sys.getrecursionlimit()}) allows: reduce builds at most {max_depth} "
        "levels, so that the recursive writers of a tree still have "
        f"{WRITER_HEADROOM} frames to spare, and a typical tree has about 1.5 "
        "levels per decimal digit of the rank, so most ranks of more than about "
        "600 digits are out of range"
    )


# --------------------------------------------------------------------------
# Verification


class CheckResult(NamedTuple):
    path: str
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def failed_names(self) -> set[str]:
        return {c.name for c in self.checks if not c.passed}


# The named checks, in report order, as (name, holds, explain).  Both
# functions take the same arguments; explain formats the failure note and
# runs only when holds is false.

# Trace-level checks on (trace).
_TRACE_DOMAIN_CHECKS = (
    ("genus_domain", lambda tr: tr.genus >= 2, lambda tr: f"genus {tr.genus} < 2"),
    (
        "input_domain",
        lambda tr: tr.input.rank >= 1,
        lambda tr: f"input {tr.input} has rank 0",
    ),
)
_TRACE_HEAD_CHECKS = (
    (
        "input_hcf",
        lambda tr: tr.h == hcf_of_type(tr.input),
        lambda tr: f"stored h={tr.h}, recomputed {math.gcd(tr.input.rank, tr.input.degree)}",
    ),
    (
        "root_type",
        lambda tr: tr.root.t == tr.input,
        lambda tr: f"root type {tr.root.t} != input {tr.input}",
    ),
)

# Trace-level checks on (trace, node sum of affine dimensions, (g-1)(r^2-h^2),
# recomputed composite determinant map).
_TRACE_TAIL_CHECKS = (
    (
        "total_affine_dim",
        lambda tr, total, expected, det: tr.total_affine_dim == total == expected,
        lambda tr, total, expected, det: f"stored {tr.total_affine_dim}, node sum {total}, "
        f"(g-1)(r^2-h^2) = {expected}",
    ),
    (
        "composite_det",
        lambda tr, total, expected, det: tr.composite_det == det,
        lambda tr, total, expected, det: f"stored {tr.composite_det}, recomputed {det}",
    ),
    (
        "det_sends_to_zero",
        lambda tr, total, expected, det: det.apply(tr.input.degree) == 0,
        lambda tr, total, expected, det: f"composite sends {tr.input.degree} to "
        f"{det.apply(tr.input.degree)}",
    ),
)

# Checks on (type) of every node; the node's other checks need it to pass.
_NODE_DOMAIN_CHECKS = (
    ("node_type_domain", lambda t: t.rank >= 1, lambda t: f"type {t} has rank 0"),
)

# Checks on (node, r, d, h) of a base step, (r, d) its type and h = hcf(r, d).
_BASE_CHECKS = (
    ("base_rank", lambda n, r, d, h: r == h, lambda n, r, d, h: f"rank {r} != hcf {h}"),
    (
        "base_twist",
        lambda n, r, d, h: d % r == 0 and n.twist_degree == -(d // r),
        lambda n, r, d, h: f"twist {n.twist_degree} does not send degree {d} to 0",
    ),
)

# Checks on (ctx, node, sol, r, d, h) of a composite step, sol its window
# solution, (r, d) its type and h = hcf(r, d).
_COMPOSITE_CHECKS = (
    (
        "euler_equation",
        lambda ctx, n, s, r, d, h: (1 - ctx.genus) * s.rF * r + s.rF * d - r * s.dF == h,
        lambda ctx, n, s, r, d, h: f"(1-g)*{s.rF}*{r} + {s.rF}*{d} - {r}*{s.dF} != {h}",
    ),
    (
        "rank_window",
        lambda ctx, n, s, r, d, h: r < h * s.rF < 2 * r,
        lambda ctx, n, s, r, d, h: f"h*rF = {h * s.rF} outside ({r}, {2 * r})",
    ),
    (
        "reduced_type",
        lambda ctx, n, s, r, d, h: s.r1 == h * s.rF - r and s.d1 == h * s.dF - d,
        lambda ctx, n, s, r, d, h: f"stored (r1,d1)=({s.r1},{s.d1}), "
        f"expected ({h * s.rF - r},{h * s.dF - d})",
    ),
    (
        "solution_hcf",
        lambda ctx, n, s, r, d, h: s.h == h and s.h1 == math.gcd(s.r1, s.d1) and s.h1 % h == 0,
        lambda ctx, n, s, r, d, h: f"stored h={s.h}, h1={s.h1}; "
        f"recomputed h={h}, h1={math.gcd(s.r1, s.d1)}",
    ),
    (
        "measure_decrease",
        lambda ctx, n, s, r, d, h: s.r1 * h < r * s.h1,
        lambda ctx, n, s, r, d, h: f"r1/h1 = {s.r1}/{s.h1} not < r/h = {r}/{h}",
    ),
    (
        "hom_bundle_rank",
        lambda ctx, n, s, r, d, h: n.rkV
        == euler_form(ctx, SheafType(s.r1, s.d1), SheafType(s.rF, s.dF)),
        lambda ctx, n, s, r, d, h: f"stored rkV={n.rkV} is not chi((r1,d1),(rF,dF))",
    ),
    # The graph map goes from Gr_h of V = Hom(universal fibre over (r1,d1), F)
    # to Gr_h of the dual universal fibre W over (h1,0).  Both have weight -1
    # (0 - 1 and -(1)), whatever the types, so of the criterion "equal weights
    # and j <= rk W <= rk V" only the rank chain is left to check.
    (
        "graph_map_precondition",
        lambda ctx, n, s, r, d, h: h <= s.h1 <= n.rkV,
        lambda ctx, n, s, r, d, h: f"j={h}, rkW={s.h1}, rkV={n.rkV} "
        "with weights -1/-1 fails j <= rkW <= rkV",
    ),
    # The paper's divisibility condition for the Hecke Grassmannian over
    # (h1, -h): hcf(h1, h) divides h.  That is a tautology, so this check
    # restates the paper and can fail only as "not evaluable" (h1 <= 0, when
    # (h1, -h) is not a sheaf type).
    (
        "hecke_divisibility",
        lambda ctx, n, s, r, d, h: h % hcf_of_type(SheafType(s.h1, -h)) == 0,
        lambda ctx, n, s, r, d, h: f"hcf({s.h1},{h}) does not divide {h}",
    ),
    (
        "dimension_identity",
        lambda ctx, n, s, r, d, h: (ctx.genus - 1) * r**2
        == (ctx.genus - 1) * s.r1**2 + h * (n.rkV - h),
        lambda ctx, n, s, r, d, h: f"(g-1)r^2 = {(ctx.genus - 1) * r**2} "
        "!= (g-1)r1^2 + h(rkV-h)",
    ),
    (
        "rho_affine",
        lambda ctx, n, s, r, d, h: n.rho_affine == h * (n.rkV - s.h1),
        lambda ctx, n, s, r, d, h: f"stored {n.rho_affine}, expected {h}*({n.rkV}-{s.h1})",
    ),
    (
        "hecke_affine",
        lambda ctx, n, s, r, d, h: n.hecke_affine == h * (s.h1 - h),
        lambda ctx, n, s, r, d, h: f"stored {n.hecke_affine}, expected {h}*({s.h1}-{h})",
    ),
    (
        "child_types",
        lambda ctx, n, s, r, d, h: n.mu1.t == SheafType(s.r1, s.d1)
        and n.mu2.t == SheafType(s.h1, -h),
        lambda ctx, n, s, r, d, h: f"children are {n.mu1.t}, {n.mu2.t}; "
        f"expected ({s.r1},{s.d1}), ({s.h1},{-h})",
    ),
    (
        "det_segments",
        lambda ctx, n, s, r, d, h: n.det_maps
        == (
            DegreeAffineMap(-1, h * s.dF),
            node_composite_det(n.mu1),
            hecke_det_shift(h),
            node_composite_det(n.mu2),
        ),
        lambda ctx, n, s, r, d, h: "stored determinant segments differ from the re-derived ones",
    ),
)


def _run(results: list[CheckResult], path: str, checks, args: tuple) -> bool:
    """Record one result per check of the table, evaluated on args; return
    whether all of them passed.

    A check that cannot even be evaluated (garbage values in a tampered trace)
    counts as failed, never as an exception escaping the verifier.
    """
    all_passed = True
    for name, holds, explain in checks:
        try:
            if holds(*args):
                results.append(CheckResult(path, name, True))
                continue
            note = explain(*args)
        except Exception as exc:  # noqa: BLE001 - any blowup means "failed"
            note = f"not evaluable: {exc}"
        results.append(CheckResult(path, name, False, note))
        all_passed = False
    return all_passed


def verify_trace(trace: ReductionTrace, *, strict: bool = True) -> VerificationReport:
    """Re-check every invariant of a reduction certificate from scratch.

    Returns a report listing each named check with pass/fail.  With
    strict=True (the default) a CertificateInvalid carrying the first failing
    check's node path and name is raised instead of returning a failing
    report.
    """
    results: list[CheckResult] = []
    if _run(results, "trace", _TRACE_DOMAIN_CHECKS, (trace,)):
        _run(results, "trace", _TRACE_HEAD_CHECKS, (trace,))
        g = trace.genus
        _verify_nodes(results, GenusContext(g), trace.root)
        _run(
            results,
            "trace",
            _TRACE_TAIL_CHECKS,
            (
                trace,
                node_affine_total(trace.root),
                (g - 1) * (trace.input.rank**2 - trace.h**2),
                node_composite_det(trace.root),
            ),
        )

    report = VerificationReport(checks=tuple(results))
    if strict and not report.ok:
        first = report.failures()[0]
        raise CertificateInvalid(first.path, first.name, first.detail, report=report)
    return report


def _verify_nodes(results: list[CheckResult], ctx: GenusContext, root: StepNode) -> None:
    """Check every node in one pre-order pass: a node's own checks, then its
    mu1 subtree, then its mu2 subtree."""
    stack = [(root, "root")]
    while stack:
        node, path = stack.pop()
        t = node.t
        if not _run(results, path, _NODE_DOMAIN_CHECKS, (t,)):
            continue
        r, d = t.rank, t.degree
        h = math.gcd(r, d)
        if isinstance(node, BaseStep):
            _run(results, path, _BASE_CHECKS, (node, r, d, h))
            continue
        _run(results, path, _COMPOSITE_CHECKS, (ctx, node, node.sol, r, d, h))
        stack.append((node.mu2, path + ".mu2"))
        stack.append((node.mu1, path + ".mu1"))
