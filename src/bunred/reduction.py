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
from the construction, and nothing is cached.  The det_segments check
compares a node's stored segments with the re-derived ones as integer
(sign, shift) pairs and builds no map to do it.  trace_ok() returns what
verify_trace(trace, strict=False).ok would, but stops at the first failure
and makes no report.  Both make the same pass, _check_trace: one pre-order
walk with an explicit stack (a node's own checks, then its mu1 subtree, then
its mu2 subtree), so its depth is not bounded by the recursion limit, over
module-level tables of plain check functions.  They differ only in the
runner that evaluates a table: verify_trace's records a row per check and
formats a failure's detail only when the check fails; trace_ok's ends the
pass at the first table that does not hold.

trace_ok's memo, a dict the caller creates and passes, maps (genus,
id(node)) to the node: the pass skips a node in the memo, and the memo keeps
the node alive, so its id cannot be reused while the memo lives.  The nodes
a call walks enter the memo only when the whole trace passes, tail checks
included, so a memo never holds a node over an unchecked or failing subtree,
and it holds only results of trace_ok itself, never a value reduce() stored.
A node's checks read only the node, its subtree and the genus, and nodes are
frozen, so a subtree that passed once passes again at the same genus.

reduce() builds the tree with one explicit-stack loop, not by recursion, and
solves and builds each distinct (rank, degree) once: every repeat of a type
in the tree is the same frozen node.  The table of built types is fresh for
each reduce() call unless the caller passes one as `built`; a table belongs
to one genus, and a caller that reduces many types of one genus (the CLI's
sweep) can share one, so a type solved for one case is reused by the next.
A type enters the table only once both of its children are built, so an
error partway through leaves only complete subtrees in it.  reduce() refuses
a tree deeper than MAX_TREE_DEPTH with a DomainError, for a reused subtree
too.  No walker of a tree in this package recurses (the serializer, the
parser, the CLI's text writer and node equality all use explicit stacks);
the bound exists for json.loads, which recurses once per nesting level of a
document and is the only recursive reader of a tree left.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

from .affine import DegreeAffineMap, _fold_det, compose_det
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


@dataclass(frozen=True, eq=False)
class CompositeStep:
    """One window-solution step plus the two recursive child reductions.

    Equality compares every field of every node, as a generated dataclass
    __eq__ would, but walks the two trees with an explicit stack: the
    generated one recurses a few frames per level and fails on trees of a
    few hundred levels.  The hash covers the node's own type and solution.
    """

    t: SheafType
    sol: LemmaSolution
    rkV: int
    rho_affine: int
    hecke_affine: int
    mu1: StepNode
    mu2: StepNode
    det_maps: tuple[DegreeAffineMap, ...]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is not CompositeStep or b.__class__ is not CompositeStep:
                if a != b:
                    return False
                continue
            if (a.t, a.sol, a.rkV, a.rho_affine, a.hecke_affine, a.det_maps) != (
                b.t, b.sol, b.rkV, b.rho_affine, b.hecke_affine, b.det_maps
            ):
                return False
            pairs.append((a.mu2, b.mu2))
            pairs.append((a.mu1, b.mu1))
        return True

    def __hash__(self) -> int:
        return hash((self.t, self.sol))


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


def _node_det_pair(node: StepNode) -> tuple[int, int]:
    """node_composite_det(node) as its (sign, shift) pair, with no map built:
    the same fold, which compose_det wraps."""
    if isinstance(node, BaseStep):
        return 1, node.t.rank * node.twist_degree
    return _fold_det(node.det_maps)


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


# Deepest tree reduce() builds.  Its reason is json.loads, which recurses
# once per nesting level of a document and counts against the recursion
# limit: the trace document of a tree this deep nests 942 levels (the
# document, one object per tree level, and a determinant-map list and object
# below the deepest composite), so it still loads at Python's default
# recursion limit of 1,000 when called from up to about 50 frames deep.  A
# typical tree has about 1.5 levels per decimal digit of the rank, so this
# admits most ranks of up to about 600 digits.
MAX_TREE_DEPTH = 940


def reduce(
    ctx: GenusContext,
    t: SheafType,
    *,
    built: dict[tuple[int, int], StepNode] | None = None,
) -> ReductionTrace:
    """Build the complete reduction certificate for the type t.

    Recursion on r/h: a base step twists degree to 0; otherwise one window
    solution produces the kernel type (r1, d1) and the Hecke target (h1, -h),
    both strictly smaller in the r/h measure.  A tree deeper than
    MAX_TREE_DEPTH is refused with a DomainError.

    built is the table of types already built, (rank, degree) -> node, for
    ctx's genus only; reduce adds the types it builds to it.  None means a
    fresh table for this call.
    """
    require_genus_ge_2(ctx)
    if t.rank < 1:
        raise InvalidType(f"reduction needs rank >= 1, got {t}")
    root = _build_tree(ctx, t, {} if built is None else built)
    return ReductionTrace(
        genus=ctx.genus,
        input=t,
        h=hcf_of_type(t),
        root=root,
        total_affine_dim=node_affine_total(root),
        composite_det=node_composite_det(root),
    )


def _build_tree(
    ctx: GenusContext, t: SheafType, built: dict[tuple[int, int], StepNode]
) -> StepNode:
    """The reduction tree of t, each distinct type solved and built once.

    One explicit-stack pass: a composite type is entered in the order the
    recursive definition visits it (the node, then its mu1 subtree, then its
    mu2 subtree), so solve_lemma is called in that order, once per distinct
    type, and its node is made after both of its children.  Only composite
    children are entered; a base child (r1 = h1, or h1 = h) is made when its
    parent is.  built maps (rank, degree) to its node, so every later
    occurrence of a type, in this tree or in a later one built with the same
    table, is the same frozen node.  A node enters built only after both of
    its children, so a DomainError partway through leaves only complete
    subtrees in it.  Depth is checked against MAX_TREE_DEPTH on the way
    down, and for a composite subtree already in built when it is reused.
    """
    r, d = t.rank, t.degree
    if d % r == 0:
        return BaseStep(t=t, twist_degree=-(d // r))
    # (type, depth, None) enters a composite type at that depth;
    # (type, depth, sol) makes its node once both children are built.
    todo: list = [(t, 1, None)]
    while todo:
        t, depth, sol = todo.pop()
        if sol is None:
            node = built.get((t.rank, t.degree))
            if node is not None:
                if depth + node_depth(node) - 1 > MAX_TREE_DEPTH:
                    raise _too_deep()
                continue
            if depth == MAX_TREE_DEPTH:
                raise _too_deep()
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


def _too_deep() -> DomainError:
    return DomainError(
        "the reduction tree is deeper than the recursion limit of json.loads "
        f"allows: reduce builds at most {MAX_TREE_DEPTH} levels, so that its trace "
        "document can be read back at Python's default recursion limit, and a "
        "typical tree has about 1.5 levels per decimal digit of the rank, so most "
        "ranks of more than about 600 digits are out of range"
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
    # The four segments are compared as integer (sign, shift) pairs; see
    # _det_segments_hold.
    (
        "det_segments",
        lambda ctx, n, s, r, d, h: _det_segments_hold(n, s, h),
        lambda ctx, n, s, r, d, h: "stored determinant segments differ from the re-derived ones",
    ),
)


def _det_segments_hold(n: CompositeStep, s: LemmaSolution, h: int) -> bool:
    """Whether n stores the segments [deg -> h*dF - deg, mu1's composite,
    deg -> deg - h, mu2's composite], compared as integer (sign, shift) pairs
    with no map built.

    The verdict is the one comparing them as maps gives.  The re-derived
    pairs come first, so a child whose segments cannot be folded makes the
    check not evaluable whatever n stores; stored segments that are not a
    tuple of four DegreeAffineMaps differ.
    """
    expected = ((-1, h * s.dF), _node_det_pair(n.mu1), (1, -h), _node_det_pair(n.mu2))
    maps = n.det_maps
    if not isinstance(maps, tuple) or len(maps) != 4:
        return False
    a, b, c, e = maps
    return a.__class__ is b.__class__ is c.__class__ is e.__class__ is DegreeAffineMap and (
        (a.sign, a.shift), (b.sign, b.shift), (c.sign, c.shift), (e.sign, e.shift)
    ) == expected


def _run(results: list[CheckResult], path: str, checks, args: tuple) -> bool:
    """verify_trace's runner: record one result per check of the table,
    evaluated on args; return whether all of them passed.

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
    _check_trace(trace, functools.partial(_run, results), {})
    report = VerificationReport(checks=tuple(results))
    if strict and not report.ok:
        first = report.failures()[0]
        raise CertificateInvalid(first.path, first.name, first.detail, report=report)
    return report


class _CheckFailed(Exception):
    """Raised by _halt_on_failure to end trace_ok's pass."""


def _halt_on_failure(path: str, checks, args: tuple) -> bool:
    """trace_ok's runner: True if every check of the table holds on args,
    else raise _CheckFailed, so it never returns False.  A check that cannot
    be evaluated counts as failed, as in _run."""
    for _, holds, _ in checks:
        try:
            held = holds(*args)
        except Exception:  # noqa: BLE001 - any blowup means "failed"
            held = False
        if not held:
            raise _CheckFailed
    return True


def trace_ok(trace: ReductionTrace, verified: dict[tuple[int, int], StepNode]) -> bool:
    """verify_trace(trace, strict=False).ok, without building the report.

    The same pass as verify_trace's, ended at the first failing check.
    verified is the caller's memo, (genus, id(node)) -> node, of subtrees
    that passed in earlier calls: such a node is not walked again (see the
    module docstring for why that is sound).  The nodes this call walks are
    added to it only when the whole trace passes.
    """
    try:
        walked = _check_trace(trace, _halt_on_failure, verified)
    except _CheckFailed:
        return False
    verified.update(walked)
    return True


def _check_trace(
    trace: ReductionTrace, run, verified: dict[tuple[int, int], StepNode]
) -> dict[tuple[int, int], StepNode]:
    """The verifier's one pass; return the nodes it walked, by (genus, id).

    run(path, checks, args) evaluates one check table and says whether all
    of it held.  The trace's domain checks gate the rest; then come its head
    checks, every node in pre-order (its own checks, then its mu1 subtree,
    then its mu2 subtree; a node's type domain gates its other checks), and
    the tail checks.  A node whose key is in verified is skipped with its
    subtree.
    """
    walked: dict[tuple[int, int], StepNode] = {}
    if not run("trace", _TRACE_DOMAIN_CHECKS, (trace,)):
        return walked
    run("trace", _TRACE_HEAD_CHECKS, (trace,))
    g = trace.genus
    ctx = GenusContext(g)
    stack = [(trace.root, "root")]
    while stack:
        node, path = stack.pop()
        key = (g, id(node))
        if key in verified:
            continue
        walked[key] = node
        t = node.t
        if not run(path, _NODE_DOMAIN_CHECKS, (t,)):
            continue
        r, d = t.rank, t.degree
        h = math.gcd(r, d)
        if isinstance(node, BaseStep):
            run(path, _BASE_CHECKS, (node, r, d, h))
            continue
        run(path, _COMPOSITE_CHECKS, (ctx, node, node.sol, r, d, h))
        stack.append((node.mu2, path + ".mu2"))
        stack.append((node.mu1, path + ".mu1"))
    tail = (
        trace,
        node_affine_total(trace.root),
        (g - 1) * (trace.input.rank**2 - trace.h**2),
        node_composite_det(trace.root),
    )
    run("trace", _TRACE_TAIL_CHECKS, tail)
    return walked
