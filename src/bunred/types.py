"""Exact integer domain types: sheaf types, genus context, basic arithmetic.

All arithmetic in this package is on Python integers (arbitrary precision),
so nothing overflows.  Two size ceilings remain.  A trace document holds a
tree of at most `serialize.MAX_TREE_DEPTH` levels, whose comment gives the
reason: `serialize.dumps` refuses a deeper tree with a DomainError and
`serialize.loads` with a ParseError; `reduce`, the verifier and text output
take any depth.
Python's int-to-str limit (`sys.get_int_max_str_digits`, 4,300 digits by
default) makes `serialize.dumps` raise a DomainError on a longer integer, and
`serialize.loads` reports one as a ParseError; the CLI reports either as an
error (exit 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class SheafType:
    """Numerical type (rank, degree) of a coherent sheaf on the curve."""

    rank: int
    degree: int

    def __post_init__(self):
        check_type(self.rank, self.degree)

    def __str__(self) -> str:
        return f"({self.rank},{self.degree})"


def check_type(rank: int, degree: int) -> None:
    """Raise the DomainError SheafType(rank, degree) raises, if it raises one."""
    if rank < 0:
        raise DomainError(f"rank must be >= 0, got {rank}")
    if rank == 0 and degree < 0:
        raise DomainError(
            f"rank-zero types are torsion and need degree >= 0, got degree {degree}"
        )


@dataclass(frozen=True)
class GenusContext:
    """Genus of the fixed smooth projective curve.

    Euler-form arithmetic is defined for any genus >= 0; the reduction and
    generic-Hom operations additionally require genus >= 2 and check it via
    require_genus_ge_2.
    """

    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise DomainError(f"genus must be >= 0, got {self.genus}")


def require_genus_ge_2(ctx: GenusContext) -> None:
    if ctx.genus < 2:
        raise DomainError(f"genus must be >= 2, got {ctx.genus}")


def add_types(a: SheafType, b: SheafType) -> SheafType:
    """Componentwise sum of two sheaf types."""
    return SheafType(a.rank + b.rank, a.degree + b.degree)


def hcf_of_type(t: SheafType) -> int:
    """hcf(t.rank, t.degree)."""
    return hcf(t.rank, t.degree)


def hcf(rank: int, degree: int) -> int:
    """Positive highest common factor of rank and degree.

    Convention: hcf(r, d) = hcf(r, -d) > 0, and hcf(r, 0) = r. Requires
    rank >= 1.
    """
    if rank < 1:
        raise DomainError(f"hcf needs rank >= 1, got ({rank},{degree})")
    return math.gcd(rank, degree)
