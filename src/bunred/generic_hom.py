"""Generic Hom/Ext dimension prediction and its closed-form contradiction scan.

For a general pair of bundles of types t1, t2 on a curve of genus >= 2 with
chi(t1, t2) >= 0, the Hom dimension equals chi(t1, t2) and Ext^1 vanishes;
with chi >= 1 the generic morphism is surjective, injective, or injective
with torsionfree cokernel according to the rank comparison.  Only the
chi >= 0 case is predicted; nothing is invented for chi < 0.

The scan exhausts the arithmetic that makes the prediction work: any
kernel/cokernel splitting t1 = tK + t, t2 = t + tQ compatible with stability
(the strict slope chain) forces chi(tK, tQ) > 0, contradicting the excess
identity m - chi(t1, t2) = -chi(tK, tQ) for minimal m.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DomainError, HypothesisNotMet, TheoremContradicted
from .euler import euler_form
from .types import GenusContext, SheafType, require_genus_ge_2


class MorphismKind(enum.Enum):
    SURJECTIVE = "surjective"
    INJECTIVE = "injective"
    INJECTIVE_TORSIONFREE_COKERNEL = "injective with torsionfree cokernel"


@dataclass(frozen=True)
class GenericHomReport:
    hom_dim: int
    ext_dim: int
    covered: bool


@dataclass(frozen=True)
class SplittingScanReport:
    examined: int
    violations: int


def generic_hom(ctx: GenusContext, t1: SheafType, t2: SheafType) -> GenericHomReport:
    """Predict (dim Hom, dim Ext^1) for a general pair of bundles of the given types.

    covered=False when chi(t1, t2) < 0: no prediction is made there.
    """
    require_genus_ge_2(ctx)
    if t1.rank < 1 or t2.rank < 1:
        raise DomainError(f"no prediction for rank-zero types: {t1}, {t2}")
    chi = euler_form(ctx, t1, t2)
    if chi < 0:
        return GenericHomReport(0, 0, False)
    return GenericHomReport(chi, 0, True)


def generic_morphism_kind(ctx: GenusContext, t1: SheafType, t2: SheafType) -> MorphismKind:
    """Kind of a general morphism between general bundles, by rank comparison.

    Requires chi(t1, t2) >= 1 so that a nonzero morphism exists generically.
    """
    require_genus_ge_2(ctx)
    if t1.rank < 1 or t2.rank < 1:
        raise DomainError(f"morphism kind needs positive ranks, got {t1}, {t2}")
    chi = euler_form(ctx, t1, t2)
    if chi < 1:
        raise HypothesisNotMet(f"chi({t1},{t2}) = {chi} < 1")
    if t1.rank > t2.rank:
        return MorphismKind.SURJECTIVE
    if t1.rank == t2.rank:
        return MorphismKind.INJECTIVE
    return MorphismKind.INJECTIVE_TORSIONFREE_COKERNEL


def no_bad_splitting_scan(
    ctx: GenusContext, t1: SheafType, t2: SheafType, degree_bound: int
) -> SplittingScanReport:
    """Check that every stability-compatible kernel/cokernel splitting has
    chi(tK, tQ) > 0.

    Splittings are t1 = tK + t, t2 = t + tQ with rK = r1 - r >= 1,
    rQ = r2 - r >= 0, every degree bounded by b = degree_bound in absolute
    value, and the strict slope chain dK/rK < d1/r1 < d/r < d2/r2 (< dQ/rQ
    when rQ >= 1).  Cross-multiplied, dK/rK < d1/r1 is the same inequality
    as d1/r1 < d/r, and d2/r2 < dQ/rQ the same as d/r < d2/r2, which for
    rQ = 0 already forces dQ >= 1 (a nonzero torsion tQ).  The three degree
    bounds on d, dK = d1 - d and dQ = d2 - d give a window that does not
    depend on r,

        L = max(-b, d1 - b, d2 - b),    H = min(b, d1 + b, d2 + b),

    so the splittings are exactly 1 <= r <= min(r1 - 1, r2) with d in

        [L, H] clipped to floor(d1*r/r1) < d < ceil(d2*r/r2).

    An empty window (L > H) leaves no splitting, and the scan returns before
    the middle-rank loop.  A non-empty one bounds that loop by b, not by the
    ranks' values:
      1. L <= H forces |d1| <= 2b and |d2| <= 2b;
      2. chi(t1, t2) >= 0 is (g-1)*r1*r2 <= r1*d2 - r2*d1 <= 2b*(r1 + r2);
      3. dividing by max(r1, r2), (g-1)*min(r1, r2) <= 4b, so there are
         at most floor(4b/(g-1)) middle ranks.

    Each splitting is also checked against the cross-multiplied chain
    consequence chi(tK,tQ)*r1*r2 > chi(t1,t2)*rK*rQ.

    Both tests are affine in d for a fixed r:

        chi(tK, tQ) = (1-g)*rK*rQ + rK*d2 - rQ*d1 + (rQ - rK)*d,

    and the chain test compares that with a constant.  An affine function
    that is positive at both ends of an interval is positive on all of it,
    so evaluating the two tests at the interval's two ends decides every
    splitting in it: the cost is two Euler-form evaluations per middle rank,
    not one per splitting, and `examined` still counts every splitting.  The
    argument's one assumption is that euler_form is affine in d; a fault
    that is not (one that fails only inside an interval) would escape.

    A violation raises TheoremContradicted naming the first failing
    splitting in (r, d) order: an interval whose end fails is walked degree
    by degree.  The enumerated inequality is a theorem, so a hit means the
    scan itself is buggy.
    """
    require_genus_ge_2(ctx)
    if t1.rank < 1 or t2.rank < 1:
        raise DomainError(f"scan needs positive ranks, got {t1}, {t2}")
    if degree_bound < 0:
        raise DomainError(f"degree bound must be >= 0, got {degree_bound}")
    chi_12 = euler_form(ctx, t1, t2)
    if chi_12 < 0:
        raise HypothesisNotMet(f"chi({t1},{t2}) = {chi_12} < 0")

    (r1, d1), (r2, d2) = (t1.rank, t1.degree), (t2.rank, t2.degree)

    def fault(r: int, d: int) -> str | None:
        """What fails for the splitting with middle type (r, d): chi(tK, tQ)
        <= 0 or the chain inequality; None when both hold."""
        rk, dk, rq, dq = r1 - r, d1 - d, r2 - r, d2 - d
        chi_kq = euler_form(ctx, SheafType(rk, dk), SheafType(rq, dq))
        if chi_kq <= 0:
            return (
                f"chi(({rk},{dk}),({rq},{dq})) = {chi_kq} <= 0 for a "
                f"slope-compatible splitting of {t1}, {t2}"
            )
        if not chi_kq * r1 * r2 > chi_12 * rk * rq:
            return f"chain inequality failed for splitting ({rk},{dk}), ({rq},{dq})"
        return None

    b = degree_bound
    L, H = max(-b, d1 - b, d2 - b), min(b, d1 + b, d2 + b)
    if L > H:
        return SplittingScanReport(0, 0)
    examined = 0
    for r in range(1, min(r1 - 1, r2) + 1):
        lo = max(d1 * r // r1 + 1, L)
        hi = min(-(-d2 * r // r2) - 1, H)
        if lo > hi:
            continue
        examined += hi - lo + 1
        if fault(r, lo) or fault(r, hi):
            # name the first failing splitting, as a per-degree loop would
            for d in range(lo, hi + 1):
                if message := fault(r, d):
                    raise TheoremContradicted(message)
    return SplittingScanReport(examined, 0)
