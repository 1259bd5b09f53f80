"""Minimal rank of a weight-1 bundle over the moduli stack of bundles.

The weight of a bundle over a moduli stack is the integer w by which a scalar
automorphism lambda of a moduli point acts (as lambda^w) on the fibre.  The
fibre of the universal bundle (rank r) and a twisted global-sections bundle
of rank r*(1 - g + ell) + d both have weight 1, and the minimal rank of a
weight-(+-1) bundle is hcf(rank, degree), which divides every weight-1 rank.
Every such twisted rank is congruent to d modulo r, so its hcf with r is
hcf(r, d) for every ell: the pair of witnesses gives h in closed form, with
no scan over twists.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .types import GenusContext, SheafType, require_genus_ge_2


def minimal_rank_divisor(ctx: GenusContext, t: SheafType) -> tuple[int, tuple[int, int]]:
    """Minimal rank h = hcf(r, d) of a weight-1 bundle, with its two witness ranks.

    The witnesses are r (fibre of the universal bundle) and r*(1 - g + ell) + d
    for the smallest ell making that value >= 1 (the numerical stand-in for a
    sufficiently ample twist).  That value is the least positive integer
    congruent to d modulo r, (d - 1) mod r + 1, whatever the genus.
    """
    if t.rank < 1:
        raise DomainError(f"minimal rank needs rank >= 1, got {t}")
    require_genus_ge_2(ctx)
    r = t.rank
    return math.gcd(r, t.degree), (r, (t.degree - 1) % r + 1)
