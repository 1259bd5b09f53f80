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
at degree 0.  The total affine dimension is stored in closed form,
dim Bun(r,d) - dim Bun(h,0) = (g-1)(r^2-h^2).

verify_trace() re-derives every number in the certificate from first
principles and reports each named check as pass/fail; nothing is trusted
from the construction, and nothing is cached: it sums the nodes' affine
dimensions and checks stored == node sum == closed form.  A check computes
what it reads (a node's type, the tail's node sum and composite) inside the
runner, so a value of the wrong kind there fails a check instead of raising.
The det_segments check compares a node's stored segments with the re-derived
ones as integer (sign, shift) pairs and builds no map to do it.  trace_ok()
returns what verify_trace(trace, strict=False).ok would, but stops at the
first failure and makes no report.  Both make the same pass, _check_trace:
one pre-order walk with an explicit stack (a node's own checks, then its mu1
subtree, then its mu2 subtree), so its depth is not bounded by the recursion
limit, over module-level tables of (name, check) pairs.  A check is one
function that returns "" when it holds and its failure detail otherwise, so
it formats the detail only when it fails.  Both runners call each check
once: verify_trace's records a row per check, and trace_ok's ends the pass
at the first check that does not hold.

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

from .affine import DegreeAffineMap, _fold_det
from .diophantine import LemmaSolution, solve_lemma
from .errors import CertificateInvalid, DomainError, InvalidType
from .euler import euler_form
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
    return DegreeAffineMap(*_node_det_pair(node))


def _node_det_pair(node: StepNode) -> tuple[int, int]:
    """node_composite_det(node) as its (sign, shift) pair, with no map built."""
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
    h = hcf_of_type(t)
    return ReductionTrace(
        genus=ctx.genus,
        input=t,
        h=h,
        root=root,
        # dim Bun(r,d) - dim Bun(h,0); the verifier checks it against the node sum
        total_affine_dim=(ctx.genus - 1) * (t.rank**2 - h**2),
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
                DegreeAffineMap(1, -h),
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


# The named checks, in report order, as (name, check).  A check returns ""
# when it holds and its failure detail otherwise, formatted only then.

# Trace-level checks on (trace).
_TRACE_DOMAIN_CHECKS = (
    (
        "genus_domain",
        lambda tr: ""
        if tr.genus >= 2 and tr.genus.__class__ is int
        else f"genus {tr.genus!r} " + ("< 2" if tr.genus < 2 else "is not an int"),
    ),
    ("input_domain", lambda tr: "" if tr.input.rank >= 1 else f"input {tr.input} has rank 0"),
)
_TRACE_HEAD_CHECKS = (
    (
        "input_hcf",
        lambda tr: ""
        if tr.h == hcf_of_type(tr.input)
        else f"stored h={tr.h}, recomputed {math.gcd(tr.input.rank, tr.input.degree)}",
    ),
    (
        "root_type",
        lambda tr: "" if tr.root.t == tr.input else f"root type {tr.root.t} != input {tr.input}",
    ),
)


def _total_affine_dim(tr: ReductionTrace) -> str:
    node_sum = node_affine_total(tr.root)
    closed = (tr.genus - 1) * (tr.input.rank**2 - tr.h**2)
    if tr.total_affine_dim == node_sum == closed:
        return ""
    return f"stored {tr.total_affine_dim}, node sum {node_sum}, (g-1)(r^2-h^2) = {closed}"


def _composite_det(tr: ReductionTrace) -> str:
    recomputed = node_composite_det(tr.root)
    if tr.composite_det == recomputed:
        return ""
    return f"stored {tr.composite_det}, recomputed {recomputed}"


def _det_sends_to_zero(tr: ReductionTrace) -> str:
    """The root's composite must send the input degree to 0; it is folded
    as an integer (sign, shift) pair with no map built."""
    sign, shift = _node_det_pair(tr.root)
    image = sign * tr.input.degree + shift
    return "" if image == 0 else f"composite sends {tr.input.degree} to {image}"


# Trace-level checks on (trace) that end the pass; each derives its values
# from the tree itself, so a tree they cannot be derived from fails it.
_TRACE_TAIL_CHECKS = (
    ("total_affine_dim", _total_affine_dim),
    ("composite_det", _composite_det),
    ("det_sends_to_zero", _det_sends_to_zero),
)


def _node_domain_problem(n: StepNode) -> str:
    """Why the verifier cannot check n (rank 0, no step node, or a rank or
    degree that is not a plain int; a bool is not one), or "" if it can."""
    t = n.t
    if not t.rank >= 1:
        return f"type {t} has rank 0"
    if n.__class__ is not BaseStep and n.__class__ is not CompositeStep:
        return f"node of type {t} is a {n.__class__.__name__}, not a step node"
    if t.rank.__class__ is not int or t.degree.__class__ is not int:
        return f"type {t} has a rank or degree that is not an int"
    return ""


# Checks on (node) of every node; the node's other checks need it to pass.
_NODE_DOMAIN_CHECKS = (("node_type_domain", _node_domain_problem),)

# Checks on (node, r, d, h) of a base step, (r, d) its type and h = hcf(r, d).
_BASE_CHECKS = (
    ("base_rank", lambda n, r, d, h: "" if r == h else f"rank {r} != hcf {h}"),
    (
        "base_twist",
        lambda n, r, d, h: ""
        if d % r == 0 and n.twist_degree == -(d // r)
        else f"twist {n.twist_degree} does not send degree {d} to 0",
    ),
)


def _det_segments(ctx, n, s, r, d, h) -> str:
    """n must store the segments [deg -> h*dF - deg, mu1's composite,
    deg -> deg - h, mu2's composite], compared as integer (sign, shift) pairs
    with no map built.

    The verdict is the one comparing them as maps gives.  The re-derived
    pairs come first, so a child whose segments cannot be folded makes the
    check not evaluable whatever n stores; stored segments that are not a
    tuple of four DegreeAffineMaps differ.
    """
    expected = ((-1, h * s.dF), _node_det_pair(n.mu1), (1, -h), _node_det_pair(n.mu2))
    maps = n.det_maps
    if isinstance(maps, tuple) and len(maps) == 4:
        a, b, c, e = maps
        if a.__class__ is b.__class__ is c.__class__ is e.__class__ is DegreeAffineMap and (
            (a.sign, a.shift), (b.sign, b.shift), (c.sign, c.shift), (e.sign, e.shift)
        ) == expected:
            return ""
    return "stored determinant segments differ from the re-derived ones"


# Checks on (ctx, node, sol, r, d, h) of a composite step, sol its window
# solution, (r, d) its type and h = hcf(r, d).
_COMPOSITE_CHECKS = (
    (
        "euler_equation",
        lambda ctx, n, s, r, d, h: ""
        if (1 - ctx.genus) * s.rF * r + s.rF * d - r * s.dF == h
        else f"(1-g)*{s.rF}*{r} + {s.rF}*{d} - {r}*{s.dF} != {h}",
    ),
    (
        "rank_window",
        lambda ctx, n, s, r, d, h: ""
        if r < h * s.rF < 2 * r
        else f"h*rF = {h * s.rF} outside ({r}, {2 * r})",
    ),
    (
        "reduced_type",
        lambda ctx, n, s, r, d, h: ""
        if s.r1 == h * s.rF - r and s.d1 == h * s.dF - d
        else f"stored (r1,d1)=({s.r1},{s.d1}), expected ({h * s.rF - r},{h * s.dF - d})",
    ),
    (
        "solution_hcf",
        lambda ctx, n, s, r, d, h: ""
        if s.h == h and s.h1 == math.gcd(s.r1, s.d1) and s.h1 % h == 0
        else f"stored h={s.h}, h1={s.h1}; recomputed h={h}, h1={math.gcd(s.r1, s.d1)}",
    ),
    (
        "measure_decrease",
        lambda ctx, n, s, r, d, h: ""
        if s.r1 * h < r * s.h1
        else f"r1/h1 = {s.r1}/{s.h1} not < r/h = {r}/{h}",
    ),
    (
        "hom_bundle_rank",
        lambda ctx, n, s, r, d, h: ""
        if n.rkV == euler_form(ctx, SheafType(s.r1, s.d1), SheafType(s.rF, s.dF))
        else f"stored rkV={n.rkV} is not chi((r1,d1),(rF,dF))",
    ),
    # The graph map goes from Gr_h of V = Hom(universal fibre over (r1,d1), F)
    # to Gr_h of the dual universal fibre W over (h1,0).  Both have weight -1
    # (0 - 1 and -(1)), whatever the types, so of the criterion "equal weights
    # and j <= rk W <= rk V" only the rank chain is left to check.
    (
        "graph_map_precondition",
        lambda ctx, n, s, r, d, h: ""
        if h <= s.h1 <= n.rkV
        else f"j={h}, rkW={s.h1}, rkV={n.rkV} with weights -1/-1 fails j <= rkW <= rkV",
    ),
    # The paper's divisibility condition for the Hecke Grassmannian over
    # (h1, -h): hcf(h1, h) divides h.  That is a tautology, so this check
    # restates the paper and can fail only as "not evaluable" (h1 <= 0, when
    # (h1, -h) is not a sheaf type).
    (
        "hecke_divisibility",
        lambda ctx, n, s, r, d, h: ""
        if h % hcf_of_type(SheafType(s.h1, -h)) == 0
        else f"hcf({s.h1},{h}) does not divide {h}",
    ),
    (
        "dimension_identity",
        lambda ctx, n, s, r, d, h: ""
        if (ctx.genus - 1) * r**2 == (ctx.genus - 1) * s.r1**2 + h * (n.rkV - h)
        else f"(g-1)r^2 = {(ctx.genus - 1) * r**2} != (g-1)r1^2 + h(rkV-h)",
    ),
    (
        "rho_affine",
        lambda ctx, n, s, r, d, h: ""
        if n.rho_affine == h * (n.rkV - s.h1)
        else f"stored {n.rho_affine}, expected {h}*({n.rkV}-{s.h1})",
    ),
    (
        "hecke_affine",
        lambda ctx, n, s, r, d, h: ""
        if n.hecke_affine == h * (s.h1 - h)
        else f"stored {n.hecke_affine}, expected {h}*({s.h1}-{h})",
    ),
    (
        "child_types",
        lambda ctx, n, s, r, d, h: ""
        if n.mu1.t == SheafType(s.r1, s.d1) and n.mu2.t == SheafType(s.h1, -h)
        else f"children are {n.mu1.t}, {n.mu2.t}; expected ({s.r1},{s.d1}), ({s.h1},{-h})",
    ),
    ("det_segments", _det_segments),
)


def _run(results: list[CheckResult], path: str, checks, args: tuple) -> bool:
    """verify_trace's runner: call each (name, check) of the table once on
    args, record its row, the detail it returned as the row's detail, and
    return whether all of them passed.

    A check that cannot even be evaluated (garbage values in a tampered trace)
    counts as failed, never as an exception escaping the verifier.
    """
    all_passed = True
    for name, check in checks:
        try:
            note = check(*args)
        except Exception as exc:  # noqa: BLE001 - any blowup means "failed"
            note = f"not evaluable: {exc}"
        results.append(CheckResult(path, name, not note, note))
        if note:
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
    """trace_ok's runner: call each (name, check) of the table once on args;
    True if every check returned "", else raise _CheckFailed, so it never
    returns False.  A check that cannot be evaluated fails, as in _run."""
    for _, check in checks:
        try:
            if not check(*args):
                continue
        except Exception:  # noqa: BLE001 - any blowup means "failed"
            pass
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

    run(path, checks, args) evaluates one table of (name, check) pairs and
    says whether all of it held.  The trace's domain checks gate the rest; then come its head
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
        if not run(path, _NODE_DOMAIN_CHECKS, (node,)):
            continue
        r, d = node.t.rank, node.t.degree
        h = math.gcd(r, d)
        if isinstance(node, BaseStep):
            run(path, _BASE_CHECKS, (node, r, d, h))
            continue
        run(path, _COMPOSITE_CHECKS, (ctx, node, node.sol, r, d, h))
        stack.append((node.mu2, path + ".mu2"))
        stack.append((node.mu1, path + ".mu1"))
    run("trace", _TRACE_TAIL_CHECKS, (trace,))
    return walked
