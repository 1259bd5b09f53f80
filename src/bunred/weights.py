"""Integer weight algebra for vector bundles over moduli stacks.

The weight of a bundle over a moduli stack is the integer w by which a scalar
automorphism lambda of a moduli point acts (as lambda^w) on the fibre.  Only
the weight and rank bookkeeping is modelled here:

  * the fibre of the universal bundle at a fixed curve point has weight 1,
  * dualizing negates the weight,
  * Hom(src, dst) has weight dst.weight - src.weight,
  * constant (fixed) bundles have weight 0.

The module also computes the minimal possible rank of a weight-(+-1) bundle,
which is hcf(rank, degree): the fibre of the universal bundle (rank r) and a
twisted global-sections bundle of rank r*(1 - g + ell) + d are both of weight
1, and the minimal rank divides every weight-1 rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import BaseMismatch, InternalInvariantViolation, InvalidArgument, InvalidType
from .types import GenusContext, SheafType, hcf_of_type, require_genus_ge_2


@dataclass(frozen=True)
class WeightedBundleDescriptor:
    """Symbolic record of a vector bundle over the moduli stack of type `base`."""

    name: str
    base: SheafType
    rank: int
    weight: int

    def __post_init__(self):
        if self.rank < 0:
            raise InvalidArgument(f"bundle rank must be >= 0, got {self.rank}")


def universal_fiber(base: SheafType) -> WeightedBundleDescriptor:
    """Fibre of the universal bundle at a fixed curve point: rank = base rank, weight 1."""
    return WeightedBundleDescriptor("univ_fiber", base, base.rank, 1)


def fixed_bundle(name: str, base: SheafType, rank: int) -> WeightedBundleDescriptor:
    """A fixed vector bundle on the curve, constant over the stack: weight 0."""
    return WeightedBundleDescriptor(name, base, rank, 0)


def weight_of_dual(v: WeightedBundleDescriptor) -> WeightedBundleDescriptor:
    """Dual bundle: same base and rank, negated weight."""
    return replace(v, name=f"{v.name}^dual", weight=-v.weight)


def weight_of_hom(
    src: WeightedBundleDescriptor, dst: WeightedBundleDescriptor
) -> WeightedBundleDescriptor:
    """Fibrewise Hom bundle: rank is the product, weight the difference dst - src."""
    if src.base != dst.base:
        raise BaseMismatch(
            f"Hom needs a common base stack, got {src.base} and {dst.base}"
        )
    return WeightedBundleDescriptor(
        f"Hom({src.name},{dst.name})",
        src.base,
        src.rank * dst.rank,
        dst.weight - src.weight,
    )


def minimal_rank_divisor(
    ctx: GenusContext, t: SheafType, scan_width: int = 50
) -> tuple[int, tuple[int, int]]:
    """Minimal rank h = hcf(r, d) of a weight-1 bundle, with its two witness ranks.

    The witnesses are r (fibre of the universal bundle) and r*(1 - g + ell) + d
    for the smallest ell making that value >= 1 (the numerical stand-in for a
    sufficiently ample twist).  The hcf of the witness ranks over ell in
    [ell_min, ell_min + scan_width] is checked to equal h exactly.
    """
    if t.rank < 1:
        raise InvalidType(f"minimal rank needs rank >= 1, got {t}")
    require_genus_ge_2(ctx)
    g, r, d = ctx.genus, t.rank, t.degree
    h = hcf_of_type(t)
    # smallest ell with r*(1 - g + ell) + d >= 1
    ell_min = (g - 1) + -((d - 1) // r)
    first_witness = r * (1 - g + ell_min) + d
    acc = r
    for ell in range(ell_min, ell_min + scan_width + 1):
        w = r * (1 - g + ell) + d
        if w < 1:
            raise InternalInvariantViolation(f"witness rank {w} < 1 at ell={ell}")
        if math.gcd(r, w) % h != 0:
            raise InternalInvariantViolation(
                f"hcf({r}, {w}) = {math.gcd(r, w)} is not a multiple of h = {h}"
            )
        acc = math.gcd(acc, w)
    if acc != h:
        raise InternalInvariantViolation(
            f"hcf over scanned witness ranks is {acc}, expected {h}"
        )
    return h, (r, first_witness)
