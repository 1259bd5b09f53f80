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
returns what verify_trace(trace, strict=False).ok would, but makes no
report.  Every verdict comes from the same pass, _check_trace: one
pre-order walk with an explicit stack (a node's own checks, then its mu1
subtree, then its mu2 subtree), so its depth is not bounded by the
recursion limit, over module-level tables of (name, check) pairs.  A check
is one function that returns "" when it holds and its failure detail
otherwise, so it formats the detail only when it fails.  The pass takes a
runner, which evaluates one table and only reports whether it held; the
pass returns its verdict, ok, with the nodes it walked.  trace_ok's runner
stops a table at the first check that does not hold, and a check that
raises does not hold; the pass itself is whole for trace_ok as for
verify_trace.  The row runner, made by report_rows(trace, row), calls each
check once and makes one row per check with the caller's row(path, name,
detail) as the check returns: verify_trace's rows are CheckResults, and
the CLI's verify command formats its text or JSON lines this way, with no
CheckResult between the check and the output.  There a check that raises
is a failed row, "not evaluable: ...".

Each check states its rule once, on the plain values a node holds, and
the pass takes the genus as an int.  One rule covers every stored sheaf
type and determinant map (root_type, child_types, composite_det and
det_segments): it matches only if its class is exactly SheafType or
DegreeAffineMap and its fields equal the re-derived ones, so an object of
any other class fails the check whatever its __eq__ says.  Stored ints are
compared by value.  Where a rule is about sheaf types (child_types,
hom_bundle_rank, hecke_divisibility), the check makes the validations
(types.check_type, types.hcf) and arithmetic that building SheafType or
calling euler_form would make, in the same order, so it raises the same
exception.  A check builds an object only to format a failing detail.

trace_ok's memo, a dict the caller creates and passes, maps (genus,
id(node)) to the node: the pass skips a node in the memo, and the memo keeps
the node alive, so its id cannot be reused while the memo lives.  The nodes
a call walks enter the memo only when the whole trace passes, tail checks
included, so a memo never holds a node over an unchecked or failing subtree,
and it holds only results of trace_ok itself, never a value reduce() stored.
A node's checks read only the node, its subtree and the genus, and nodes are
frozen, so a subtree that passed once passes again at the same genus.

reduce() builds the tree with one explicit-stack loop, not by recursion,
which every type enters the same way (it is reused, a base step, or solved),
and solves and builds each distinct (rank, degree) once: every repeat of a
type in the tree is the same frozen node.  The table of built types is
fresh for each reduce() call unless the caller passes one as `built`; a
table belongs to one genus, and a caller that reduces many types of one
genus (the CLI's sweep) can share one, so a type solved for one case is
reused by the next.  A composite type enters the table only once both of
its children are built, so an error partway through leaves only complete
subtrees in it.  Nothing bounds the depth of the tree reduce() builds: no
walker of a tree in this package recurses (the serializer, the parser, the
CLI's text writer and node equality all use explicit stacks).  Only a trace
document has a depth ceiling, serialize.MAX_TREE_DEPTH, which dumps and loads
both enforce; its comment gives the reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .affine import DegreeAffineMap, _fold_det
from .diophantine import LemmaSolution, solve_lemma
from .errors import CertificateInvalid, DomainError
from .types import GenusContext, SheafType, check_type, hcf, hcf_of_type, require_genus_ge_2


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


# A PEP 604 union: typing caches Union[...] subscriptions, and that cache would pin
# these classes, so an imported-again bunred could never free its old copy.
StepNode = BaseStep | CompositeStep


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


def reduce(
    ctx: GenusContext,
    t: SheafType,
    *,
    built: dict[tuple[int, int], StepNode] | None = None,
) -> ReductionTrace:
    """Build the complete reduction certificate for the type t.

    Recursion on r/h: a base step twists degree to 0; otherwise one window
    solution produces the kernel type (r1, d1) and the Hecke target (h1, -h),
    both strictly smaller in the r/h measure.  The tree may be of any depth.

    built is the table of types already built, (rank, degree) -> node, for
    ctx's genus only; reduce adds the types it builds to it.  None means a
    fresh table for this call.
    """
    require_genus_ge_2(ctx)
    if t.rank < 1:
        raise DomainError(f"reduction needs rank >= 1, got {t}")
    root = _build_tree(ctx, t, {} if built is None else built)
    h = math.gcd(t.rank, t.degree)
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

    One explicit-stack pass.  Every type (the root, and both children of
    each composite) is entered the same way, as (rank, degree), in
    the order the recursive definition visits it: the node, then its mu1
    subtree, then its mu2 subtree.  An entered type already in built is
    reused; a base type (d % r == 0) is made at once; any other type is
    solved, and its node is made after both of its children.  So solve_lemma
    is called in that order, once per distinct composite type.  built maps
    (rank, degree) to its node, so every later occurrence of a type, in this
    tree or in a later one built with the same table, is the same frozen
    node.  A composite enters built only after both of its children, so an
    error partway through leaves only complete subtrees in it.
    """
    # (rank, degree) enters a type; (type, sol), whose type is a SheafType,
    # makes its composite node once both children are built.
    root = t.rank, t.degree
    todo: list = [root]
    while todo:
        item = todo.pop()
        if item[0].__class__ is SheafType:
            t, sol = item
            h = sol.h
            mu1 = built[sol.r1, sol.d1]
            mu2 = built[sol.h1, -h]
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
            continue
        r, d = item
        if item in built:
            continue
        if d % r == 0:
            built[r, d] = BaseStep(t=SheafType(r, d), twist_degree=-(d // r))
            continue
        t = SheafType(r, d)
        sol = solve_lemma(ctx, t)
        todo.append((t, sol))
        todo.append((sol.h1, -sol.h))
        todo.append((sol.r1, sol.d1))
    return built[root]


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
        lambda tr: "" if tr.root.t.__class__ is tr.input.__class__ is SheafType
        and tr.root.t == tr.input else f"root type {tr.root.t} != input {tr.input}",
    ),
)


def _total_affine_dim(tr: ReductionTrace) -> str:
    node_sum = node_affine_total(tr.root)
    closed = (tr.genus - 1) * (tr.input.rank**2 - tr.h**2)
    if tr.total_affine_dim == node_sum == closed:
        return ""
    return f"stored {tr.total_affine_dim}, node sum {node_sum}, (g-1)(r^2-h^2) = {closed}"


def _composite_det(tr: ReductionTrace) -> str:
    sign, shift = _node_det_pair(tr.root)
    m = tr.composite_det
    if m.__class__ is DegreeAffineMap and (m.sign, m.shift) == (sign, shift):
        return ""
    return f"stored {m}, recomputed {DegreeAffineMap(sign, shift)}"


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


def _det_segments(g, n, s, r, d, h) -> str:
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


def _hom_bundle_rank(g, n, s, r, d, h) -> str:
    """rkV = chi((r1,d1),(rF,dF)), with euler_form's arithmetic."""
    rk_v, r1, d1 = n.rkV, s.r1, s.d1
    check_type(r1, d1)
    rF, dF = s.rF, s.dF
    check_type(rF, dF)
    if rk_v == (1 - g) * r1 * rF + r1 * dF - rF * d1:
        return ""
    return f"stored rkV={rk_v} is not chi((r1,d1),(rF,dF))"


def _hecke_divisibility(g, n, s, r, d, h) -> str:
    """The paper's divisibility condition for the Hecke Grassmannian over
    (h1, -h): hcf(h1, h) divides h.  That is a tautology, so this check
    restates the paper and can fail only as "not evaluable" (h1 <= 0, when
    (h1, -h) is not a sheaf type)."""
    h1 = s.h1
    check_type(h1, -h)
    return "" if h % hcf(h1, -h) == 0 else f"hcf({h1},{h}) does not divide {h}"


def _is_type(t, rank, degree):
    """Whether t is the sheaf type (rank, degree): of class exactly SheafType
    with those fields.  (rank, degree) must be a sheaf type, or the check is
    not evaluable."""
    check_type(rank, degree)
    return t.__class__ is SheafType and (t.rank, t.degree) == (rank, degree)


def _child_types(g, n, s, r, d, h) -> str:
    if _is_type(n.mu1.t, s.r1, s.d1) and _is_type(n.mu2.t, s.h1, -h):
        return ""
    return f"children are {n.mu1.t}, {n.mu2.t}; expected ({s.r1},{s.d1}), ({s.h1},{-h})"


# Checks on (g, node, sol, r, d, h) of a composite step, g the genus, sol its
# window solution, (r, d) its type and h = hcf(r, d).
_COMPOSITE_CHECKS = (
    (
        "euler_equation",
        lambda g, n, s, r, d, h: ""
        if (1 - g) * s.rF * r + s.rF * d - r * s.dF == h
        else f"(1-g)*{s.rF}*{r} + {s.rF}*{d} - {r}*{s.dF} != {h}",
    ),
    (
        "rank_window",
        lambda g, n, s, r, d, h: ""
        if r < h * s.rF < 2 * r
        else f"h*rF = {h * s.rF} outside ({r}, {2 * r})",
    ),
    (
        "reduced_type",
        lambda g, n, s, r, d, h: ""
        if s.r1 == h * s.rF - r and s.d1 == h * s.dF - d
        else f"stored (r1,d1)=({s.r1},{s.d1}), expected ({h * s.rF - r},{h * s.dF - d})",
    ),
    (
        "solution_hcf",
        lambda g, n, s, r, d, h: ""
        if s.h == h and s.h1 == math.gcd(s.r1, s.d1) and s.h1 % h == 0
        else f"stored h={s.h}, h1={s.h1}; recomputed h={h}, h1={math.gcd(s.r1, s.d1)}",
    ),
    (
        "measure_decrease",
        lambda g, n, s, r, d, h: ""
        if s.r1 * h < r * s.h1
        else f"r1/h1 = {s.r1}/{s.h1} not < r/h = {r}/{h}",
    ),
    ("hom_bundle_rank", _hom_bundle_rank),
    # The graph map goes from Gr_h of V = Hom(universal fibre over (r1,d1), F)
    # to Gr_h of the dual universal fibre W over (h1,0).  Both have weight -1
    # (0 - 1 and -(1)), whatever the types, so of the criterion "equal weights
    # and j <= rk W <= rk V" only the rank chain is left to check.
    (
        "graph_map_precondition",
        lambda g, n, s, r, d, h: ""
        if h <= s.h1 <= n.rkV
        else f"j={h}, rkW={s.h1}, rkV={n.rkV} with weights -1/-1 fails j <= rkW <= rkV",
    ),
    ("hecke_divisibility", _hecke_divisibility),
    (
        "dimension_identity",
        lambda g, n, s, r, d, h: ""
        if (g - 1) * r**2 == (g - 1) * s.r1**2 + h * (n.rkV - h)
        else f"(g-1)r^2 = {(g - 1) * r**2} != (g-1)r1^2 + h(rkV-h)",
    ),
    (
        "rho_affine",
        lambda g, n, s, r, d, h: ""
        if n.rho_affine == h * (n.rkV - s.h1)
        else f"stored {n.rho_affine}, expected {h}*({n.rkV}-{s.h1})",
    ),
    (
        "hecke_affine",
        lambda g, n, s, r, d, h: ""
        if n.hecke_affine == h * (s.h1 - h)
        else f"stored {n.hecke_affine}, expected {h}*({s.h1}-{h})",
    ),
    ("child_types", _child_types),
    ("det_segments", _det_segments),
)


def _check_result(path: str, name: str, detail: str) -> CheckResult:
    return CheckResult(path, name, not detail, detail)


def report_rows(trace: ReductionTrace, row) -> tuple[list, bool]:
    """The verifier's one pass over trace, as (rows, ok): row(path, name,
    detail) is called as each check returns, detail "" when it holds; rows
    holds what it returned, in report order, and ok is the pass's verdict.

    A check that cannot even be evaluated (garbage values in a tampered trace)
    counts as failed, with detail "not evaluable: ...", never as an exception
    escaping the verifier.
    """
    rows: list = []

    def run(path: str, checks, args: tuple) -> bool:
        held = True
        for name, check in checks:
            try:
                note = check(*args)
            except Exception as exc:  # noqa: BLE001 - any blowup means "failed"
                note = f"not evaluable: {exc}"
            rows.append(row(path, name, note))
            held = held and not note
        return held

    return rows, _check_trace(trace, run, {})[1]


def verify_trace(trace: ReductionTrace, *, strict: bool = True) -> VerificationReport:
    """Re-check every invariant of a reduction certificate from scratch.

    Returns a report listing each named check with pass/fail.  With
    strict=True (the default) a CertificateInvalid carrying the first failing
    check's node path and name is raised instead of returning a failing
    report.
    """
    rows, ok = report_rows(trace, _check_result)
    report = VerificationReport(checks=tuple(rows))
    if strict and not ok:
        first = report.failures()[0]
        raise CertificateInvalid(first.path, first.name, first.detail, report=report)
    return report


def _holds(path: str, checks, args: tuple) -> bool:
    """trace_ok's runner: whether every (name, check) of the table returns ""
    on args, stopping at the first that does not; a check that raises does
    not hold."""
    try:
        for _, check in checks:
            if check(*args):
                return False
    except Exception:  # noqa: BLE001 - any blowup means "failed"
        return False
    return True


def trace_ok(trace: ReductionTrace, verified: dict[tuple[int, int], StepNode]) -> bool:
    """verify_trace(trace, strict=False).ok, without building the report.

    The whole of verify_trace's pass, with a runner that only says whether
    each table held, so a failing trace is walked as far as verify_trace
    walks it.  verified is the caller's memo, (genus, id(node)) -> node, of
    subtrees that passed in earlier calls: such a node is not walked again
    (see the module docstring for why that is sound).  The nodes this call
    walks are added to it only when the whole trace passes.
    """
    walked, ok = _check_trace(trace, _holds, verified)
    if ok:
        verified.update(walked)
    return ok


def _check_trace(
    trace: ReductionTrace, run, verified: dict[tuple[int, int], StepNode]
) -> tuple[dict[tuple[int, int], StepNode], bool]:
    """The verifier's one pass, as (walked, ok): walked holds the nodes it
    walked, by (genus, id), and ok whether every table it ran held.

    run(path, checks, args) evaluates one table of (name, check) pairs and
    says whether all of it held.  The trace's domain checks gate the rest; then come its head
    checks, every node in pre-order (its own checks, then its mu1 subtree,
    then its mu2 subtree; a node's type domain gates its other checks), and
    the tail checks.  A node whose key is in verified is skipped with its
    subtree.
    """
    walked: dict[tuple[int, int], StepNode] = {}
    if not run("trace", _TRACE_DOMAIN_CHECKS, (trace,)):
        return walked, False
    ok = run("trace", _TRACE_HEAD_CHECKS, (trace,))
    g = trace.genus
    stack = [(trace.root, "root")]
    while stack:
        node, path = stack.pop()
        key = (g, id(node))
        if key in verified:
            continue
        walked[key] = node
        if not run(path, _NODE_DOMAIN_CHECKS, (node,)):
            ok = False
            continue
        r, d = node.t.rank, node.t.degree
        h = math.gcd(r, d)
        if isinstance(node, BaseStep):
            ok = run(path, _BASE_CHECKS, (node, r, d, h)) and ok
            continue
        ok = run(path, _COMPOSITE_CHECKS, (g, node, node.sol, r, d, h)) and ok
        stack.append((node.mu2, path + ".mu2"))
        stack.append((node.mu1, path + ".mu1"))
    return walked, run("trace", _TRACE_TAIL_CHECKS, (trace,)) and ok
