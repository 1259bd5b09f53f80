"""Recursive birational-reduction certificates and their independent verifier.

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
from the construction.  A check's failure detail is formatted only when the
check fails, so a passing certificate costs no string formatting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .affine import DegreeAffineMap, compose_det
from .diophantine import LemmaSolution, solve_lemma
from .errors import CertificateInvalid, InvalidType
from .euler import euler_form
from .grassmann import check_gr_rational, hecke_det_shift
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
    if isinstance(node, BaseStep):
        return 0
    return (
        node.rho_affine
        + node.hecke_affine
        + node_affine_total(node.mu1)
        + node_affine_total(node.mu2)
    )


def node_depth(node: StepNode) -> int:
    if isinstance(node, BaseStep):
        return 1
    return 1 + max(node_depth(node.mu1), node_depth(node.mu2))


def reduce(ctx: GenusContext, t: SheafType) -> ReductionTrace:
    """Build the complete reduction certificate for the type t.

    Recursion on r/h: a base step twists degree to 0; otherwise one window
    solution produces the kernel type (r1, d1) and the Hecke target (h1, -h),
    both strictly smaller in the r/h measure.
    """
    require_genus_ge_2(ctx)
    if t.rank < 1:
        raise InvalidType(f"reduction needs rank >= 1, got {t}")
    root = _reduce_node(ctx, t)
    return ReductionTrace(
        genus=ctx.genus,
        input=t,
        h=hcf_of_type(t),
        root=root,
        total_affine_dim=node_affine_total(root),
        composite_det=node_composite_det(root),
    )


def _reduce_node(ctx: GenusContext, t: SheafType) -> StepNode:
    h = hcf_of_type(t)
    if t.rank == h:
        return BaseStep(t=t, twist_degree=-(t.degree // t.rank))
    sol = solve_lemma(ctx, t)
    t1 = SheafType(sol.r1, sol.d1)
    t_f = SheafType(sol.rF, sol.dF)
    rk_v = euler_form(ctx, t1, t_f)
    mu1 = _reduce_node(ctx, t1)
    mu2 = _reduce_node(ctx, SheafType(sol.h1, -h))
    det_maps = (
        DegreeAffineMap(-1, h * sol.dF),
        node_composite_det(mu1),
        hecke_det_shift(h),
        node_composite_det(mu2),
    )
    return CompositeStep(
        t=t,
        sol=sol,
        rkV=rk_v,
        rho_affine=h * (rk_v - sol.h1),
        hecke_affine=h * (sol.h1 - h),
        mu1=mu1,
        mu2=mu2,
        det_maps=det_maps,
    )


# --------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class CheckResult:
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


def _check(results: list[CheckResult], path: str, name: str, predicate, detail) -> bool:
    """Record one named check.  detail() formats the failure note and runs only
    when the check fails.

    A check that cannot even be evaluated (garbage values in a tampered trace)
    counts as failed, never as an exception escaping the verifier.
    """
    try:
        passed = bool(predicate())
        note = "" if passed else detail()
    except Exception as exc:  # noqa: BLE001 - any blowup means "failed"
        passed = False
        note = f"not evaluable: {exc}"
    results.append(CheckResult(path=path, name=name, passed=passed, detail=note))
    return passed


def verify_trace(trace: ReductionTrace, *, strict: bool = True) -> VerificationReport:
    """Re-check every invariant of a reduction certificate from scratch.

    Returns a report listing each named check with pass/fail.  With
    strict=True (the default) a CertificateInvalid carrying the first failing
    check's node path and name is raised instead of returning a failing
    report.
    """
    results: list[CheckResult] = []
    g = trace.genus

    domain_ok = _check(results, "trace", "genus_domain", lambda: g >= 2, lambda: f"genus {g} < 2")
    domain_ok &= _check(
        results,
        "trace",
        "input_domain",
        lambda: trace.input.rank >= 1,
        lambda: f"input {trace.input} has rank 0",
    )
    if domain_ok:
        _check(
            results,
            "trace",
            "input_hcf",
            lambda: trace.h == hcf_of_type(trace.input),
            lambda: f"stored h={trace.h}, "
            f"recomputed {math.gcd(trace.input.rank, trace.input.degree)}",
        )
        _check(
            results,
            "trace",
            "root_type",
            lambda: trace.root.t == trace.input,
            lambda: f"root type {trace.root.t} != input {trace.input}",
        )
        _verify_node(results, g, trace.root, "root")

        node_total = node_affine_total(trace.root)
        expected_total = (g - 1) * (trace.input.rank**2 - trace.h**2)
        _check(
            results,
            "trace",
            "total_affine_dim",
            lambda: trace.total_affine_dim == node_total == expected_total,
            lambda: f"stored {trace.total_affine_dim}, node sum {node_total}, "
            f"(g-1)(r^2-h^2) = {expected_total}",
        )
        recomputed = node_composite_det(trace.root)
        _check(
            results,
            "trace",
            "composite_det",
            lambda: trace.composite_det == recomputed,
            lambda: f"stored {trace.composite_det}, recomputed {recomputed}",
        )
        _check(
            results,
            "trace",
            "det_sends_to_zero",
            lambda: recomputed.apply(trace.input.degree) == 0,
            lambda: f"composite sends {trace.input.degree} to "
            f"{recomputed.apply(trace.input.degree)}",
        )

    report = VerificationReport(checks=tuple(results))
    if strict and not report.ok:
        first = report.failures()[0]
        raise CertificateInvalid(first.path, first.name, first.detail, report=report)
    return report


def _verify_node(results: list[CheckResult], g: int, node: StepNode, path: str) -> None:
    t = node.t
    if not _check(
        results, path, "node_type_domain", lambda: t.rank >= 1, lambda: f"type {t} has rank 0"
    ):
        return
    r, d = t.rank, t.degree
    h = math.gcd(r, d)

    if isinstance(node, BaseStep):
        _check(results, path, "base_rank", lambda: r == h, lambda: f"rank {r} != hcf {h}")
        _check(
            results,
            path,
            "base_twist",
            lambda: d % r == 0 and node.twist_degree == -(d // r),
            lambda: f"twist {node.twist_degree} does not send degree {d} to 0",
        )
        return

    sol = node.sol
    _check(
        results,
        path,
        "euler_equation",
        lambda: (1 - g) * sol.rF * r + sol.rF * d - r * sol.dF == h,
        lambda: f"(1-g)*{sol.rF}*{r} + {sol.rF}*{d} - {r}*{sol.dF} != {h}",
    )
    _check(
        results,
        path,
        "rank_window",
        lambda: r < h * sol.rF < 2 * r,
        lambda: f"h*rF = {h * sol.rF} outside ({r}, {2 * r})",
    )
    _check(
        results,
        path,
        "reduced_type",
        lambda: sol.r1 == h * sol.rF - r and sol.d1 == h * sol.dF - d,
        lambda: f"stored (r1,d1)=({sol.r1},{sol.d1}), "
        f"expected ({h * sol.rF - r},{h * sol.dF - d})",
    )
    _check(
        results,
        path,
        "solution_hcf",
        lambda: sol.h == h and sol.h1 == math.gcd(sol.r1, sol.d1) and sol.h1 % h == 0,
        lambda: f"stored h={sol.h}, h1={sol.h1}; "
        f"recomputed h={h}, h1={math.gcd(sol.r1, sol.d1)}",
    )
    _check(
        results,
        path,
        "measure_decrease",
        lambda: sol.r1 * h < r * sol.h1,
        lambda: f"r1/h1 = {sol.r1}/{sol.h1} not < r/h = {r}/{h}",
    )
    _check(
        results,
        path,
        "hom_bundle_rank",
        lambda: node.rkV
        == euler_form(GenusContext(g), SheafType(sol.r1, sol.d1), SheafType(sol.rF, sol.dF)),
        lambda: f"stored rkV={node.rkV} is not chi((r1,d1),(rF,dF))",
    )
    # The graph map goes from Gr_h of V = Hom(universal fibre over (r1,d1), F)
    # to Gr_h of the dual universal fibre W over (h1,0).  Both have weight -1
    # (0 - 1 and -(1)), whatever the types, so of the criterion "equal weights
    # and j <= rk W <= rk V" only the rank chain is left to check.
    _check(
        results,
        path,
        "graph_map_precondition",
        lambda: h <= sol.h1 <= node.rkV,
        lambda: f"j={h}, rkW={sol.h1}, rkV={node.rkV} with weights -1/-1 fails j <= rkW <= rkV",
    )
    # The paper's divisibility condition for the Hecke Grassmannian over
    # (h1, -h): hcf(h1, h) divides h.  That is a tautology, so this check
    # restates the paper and can fail only as "not evaluable" (h1 <= 0, when
    # (h1, -h) is not a sheaf type).
    _check(
        results,
        path,
        "hecke_divisibility",
        lambda: check_gr_rational(h, SheafType(sol.h1, -h)),
        lambda: f"hcf({sol.h1},{h}) does not divide {h}",
    )
    _check(
        results,
        path,
        "dimension_identity",
        lambda: (g - 1) * r**2 == (g - 1) * sol.r1**2 + h * (node.rkV - h),
        lambda: f"(g-1)r^2 = {(g - 1) * r**2} != (g-1)r1^2 + h(rkV-h)",
    )
    _check(
        results,
        path,
        "rho_affine",
        lambda: node.rho_affine == h * (node.rkV - sol.h1),
        lambda: f"stored {node.rho_affine}, expected {h}*({node.rkV}-{sol.h1})",
    )
    _check(
        results,
        path,
        "hecke_affine",
        lambda: node.hecke_affine == h * (sol.h1 - h),
        lambda: f"stored {node.hecke_affine}, expected {h}*({sol.h1}-{h})",
    )
    _check(
        results,
        path,
        "child_types",
        lambda: node.mu1.t == SheafType(sol.r1, sol.d1)
        and node.mu2.t == SheafType(sol.h1, -h),
        lambda: f"children are {node.mu1.t}, {node.mu2.t}; "
        f"expected ({sol.r1},{sol.d1}), ({sol.h1},{-h})",
    )
    _check(
        results,
        path,
        "det_segments",
        lambda: node.det_maps
        == (
            DegreeAffineMap(-1, h * sol.dF),
            node_composite_det(node.mu1),
            hecke_det_shift(h),
            node_composite_det(node.mu2),
        ),
        lambda: "stored determinant segments differ from the re-derived ones",
    )

    _verify_node(results, g, node.mu1, f"{path}.mu1")
    _verify_node(results, g, node.mu2, f"{path}.mu2")
