"""The bilinear Euler form on sheaf types and the stack dimensions it yields.

chi(t1, t2) = (1-g)*r1*r2 + r1*d2 - r2*d1 computes Hom-minus-Ext dimensions
by Riemann-Roch. The form is exposed with no positivity or genus->=-2
assumptions; callers enforce theorem hypotheses themselves.
"""

from __future__ import annotations

from .types import GenusContext, SheafType


def euler_form(ctx: GenusContext, t1: SheafType, t2: SheafType) -> int:
    """chi(t1, t2) = (1-g)*r1*r2 + r1*d2 - r2*d1."""
    g = ctx.genus
    return (1 - g) * t1.rank * t2.rank + t1.rank * t2.degree - t2.rank * t1.degree


def bun_stack_dim(ctx: GenusContext, t: SheafType) -> int:
    """Dimension -chi(t, t) = (g-1)*rank^2 of the moduli stack of bundles of type t.

    Independent of the degree.
    """
    return -euler_form(ctx, t, t)

