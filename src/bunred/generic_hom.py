"""Generic Hom/Ext dimension prediction and its brute-force contradiction scan.

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

from .errors import (
    HypothesisNotMet,
    InvalidArgument,
    InvalidType,
    NotCovered,
    TheoremContradicted,
)
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
        raise NotCovered(f"no prediction for rank-zero types: {t1}, {t2}")
    chi = euler_form(ctx, t1, t2)
    if chi < 0:
        return GenericHomReport(hom_dim=0, ext_dim=0, covered=False)
    return GenericHomReport(hom_dim=chi, ext_dim=0, covered=True)


def generic_morphism_kind(ctx: GenusContext, t1: SheafType, t2: SheafType) -> MorphismKind:
    """Kind of a general morphism between general bundles, by rank comparison.

    Requires chi(t1, t2) >= 1 so that a nonzero morphism exists generically.
    """
    require_genus_ge_2(ctx)
    if t1.rank < 1 or t2.rank < 1:
        raise InvalidType(f"morphism kind needs positive ranks, got {t1}, {t2}")
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
    """Enumerate all stability-compatible kernel/cokernel splittings and assert
    chi(tK, tQ) > 0 for every one.

    Splittings are t1 = tK + t, t2 = t + tQ with rK = r1 - r >= 1,
    rQ = r2 - r >= 0, every degree bounded by b = degree_bound in absolute
    value, and the strict slope chain dK/rK < d1/r1 < d/r < d2/r2 (< dQ/rQ
    when rQ >= 1).  Cross-multiplied, dK/rK < d1/r1 is the same inequality
    as d1/r1 < d/r, and d2/r2 < dQ/rQ the same as d/r < d2/r2, which for
    rQ = 0 already forces dQ >= 1 (a nonzero torsion tQ).  So the splittings
    are exactly 1 <= r <= min(r1 - 1, r2) with d in the closed-form interval

        max(floor(d1*r/r1) + 1, -b, d1 - b, d2 - b)
            <= d <= min(ceil(d2*r/r2) - 1, b, d1 + b, d2 + b),

    and the cost is the number of splittings, not the size of the bound.
    Each splitting is also checked against the cross-multiplied chain
    consequence chi(tK,tQ)*r1*r2 > chi(t1,t2)*rK*rQ.

    A violation raises TheoremContradicted: the enumerated inequality is a
    theorem, so a hit means the scan itself is buggy.
    """
    require_genus_ge_2(ctx)
    if t1.rank < 1 or t2.rank < 1:
        raise InvalidType(f"scan needs positive ranks, got {t1}, {t2}")
    if degree_bound < 0:
        raise InvalidArgument(f"degree bound must be >= 0, got {degree_bound}")
    chi_12 = euler_form(ctx, t1, t2)
    if chi_12 < 0:
        raise HypothesisNotMet(f"chi({t1},{t2}) = {chi_12} < 0")

    r1, d1 = t1.rank, t1.degree
    r2, d2 = t2.rank, t2.degree
    b = degree_bound
    examined = 0
    for r in range(1, min(r1 - 1, r2) + 1):
        lo = max(d1 * r // r1 + 1, -b, d1 - b, d2 - b)
        hi = min(-(-d2 * r // r2) - 1, b, d1 + b, d2 + b)
        rk, rq = r1 - r, r2 - r
        for d in range(lo, hi + 1):
            dk, dq = d1 - d, d2 - d
            examined += 1
            chi_kq = euler_form(ctx, SheafType(rk, dk), SheafType(rq, dq))
            if chi_kq <= 0:
                raise TheoremContradicted(
                    f"chi(({rk},{dk}),({rq},{dq})) = {chi_kq} <= 0 for a "
                    f"slope-compatible splitting of {t1}, {t2}"
                )
            if not chi_kq * r1 * r2 > chi_12 * rk * rq:
                raise TheoremContradicted(
                    f"chain inequality failed for splitting ({rk},{dk}), ({rq},{dq})"
                )
    return SplittingScanReport(examined=examined, violations=0)
