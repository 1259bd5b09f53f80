"""Dimension and determinant bookkeeping for Grassmannian bundles over stacks.

Covers the two Grassmannian-bundle descriptions of the quasiparabolic stack
(the Hecke correspondence) and the determinant-degree shift it induces.  The
verifier in `reduction` checks the numerical preconditions of the two
birational-linearity criteria itself.
"""

from __future__ import annotations

import enum

from .affine import DegreeAffineMap
from .errors import InvalidArgument
from .euler import bun_stack_dim
from .types import GenusContext, SheafType, require_genus_ge_2


class HeckeRoute(enum.Enum):
    """The two Grassmannian-bundle descriptions of the quasiparabolic stack."""

    HECKE1 = 1  # over the degree-d side: Grassmannian of the dual universal fibre
    HECKE2 = 2  # over the degree-(d-m) side: Grassmannian of the universal fibre


def parabolic_dim(
    ctx: GenusContext, r: int, d: int, m: int, route: HeckeRoute
) -> int:
    """Dimension of the stack of rank-r degree-d bundles with a length-m
    quasiparabolic structure at a fixed point, computed along either
    Grassmannian-bundle description.  The two routes agree exactly.
    """
    require_genus_ge_2(ctx)
    if not 1 <= m <= r:
        raise InvalidArgument(f"need 1 <= m <= r, got m={m}, r={r}")
    fiber = m * (r - m)
    if route is HeckeRoute.HECKE1:
        return bun_stack_dim(ctx, SheafType(r, d)) + fiber
    return bun_stack_dim(ctx, SheafType(r, d - m)) + fiber


def hecke_det_shift(m: int) -> DegreeAffineMap:
    """Determinant-degree shift deg -> deg - m from the degree-d side of the
    Hecke correspondence to the degree-(d-m) side."""
    if m < 1:
        raise InvalidArgument(f"multiplicity must be >= 1, got {m}")
    return DegreeAffineMap(1, -m)

