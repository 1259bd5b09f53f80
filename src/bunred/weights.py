"""Minimal rank of a weight-1 bundle over the moduli stack of bundles.

The weight of a bundle over a moduli stack is the integer w by which a scalar
automorphism lambda of a moduli point acts (as lambda^w) on the fibre.  The
fibre of the universal bundle (rank r) and a twisted global-sections bundle
of rank r*(1 - g + ell) + d both have weight 1, and the minimal rank of a
weight-(+-1) bundle is hcf(rank, degree), which divides every weight-1 rank.
"""

from __future__ import annotations

import math

from .errors import InternalInvariantViolation, InvalidType
from .types import GenusContext, SheafType, hcf_of_type, require_genus_ge_2

# The witness scan checks the twists ell_min .. ell_min + WITNESS_SCAN_WIDTH.
WITNESS_SCAN_WIDTH = 50


def minimal_rank_divisor(ctx: GenusContext, t: SheafType) -> tuple[int, tuple[int, int]]:
    """Minimal rank h = hcf(r, d) of a weight-1 bundle, with its two witness ranks.

    The witnesses are r (fibre of the universal bundle) and r*(1 - g + ell) + d
    for the smallest ell making that value >= 1 (the numerical stand-in for a
    sufficiently ample twist).  The hcf of the witness ranks over ell in
    [ell_min, ell_min + WITNESS_SCAN_WIDTH] is checked to equal h exactly.
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
    for ell in range(ell_min, ell_min + WITNESS_SCAN_WIDTH + 1):
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
