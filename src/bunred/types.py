"""Exact integer domain types: sheaf types, genus context, basic arithmetic.

All arithmetic in this package is on Python integers (arbitrary precision),
so nothing overflows.  Two size ceilings remain.  `reduce` builds no tree
deeper than `reduction.max_tree_depth()`, the recursion limit less 60 levels
(940 at the default limit of 1,000), and the tree has about 1.5 levels per
decimal digit of the rank, so most ranks of more than about 600 digits are
refused with a DomainError that names the limit.  `reduce` itself does not
recurse; the bound leaves room for the serializer and the CLI's text writer,
which recurse once per level, when called from up to about 50 frames deep.
(`verify_trace` walks the tree with an explicit stack and has no ceiling.)
Python's int-to-str limit (`sys.get_int_max_str_digits`, 4,300 digits by
default) makes `serialize.dumps` raise ValueError on a longer integer, and
`serialize.loads` reports one as a ParseError; the CLI reports either as an
error (exit 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidArgument, InvalidType


@dataclass(frozen=True)
class SheafType:
    """Numerical type (rank, degree) of a coherent sheaf on the curve."""

    rank: int
    degree: int

    def __post_init__(self):
        if self.rank < 0:
            raise InvalidType(f"rank must be >= 0, got {self.rank}")
        if self.rank == 0 and self.degree < 0:
            raise InvalidType(
                f"rank-zero types are torsion and need degree >= 0, got degree {self.degree}"
            )

    def __str__(self) -> str:
        return f"({self.rank},{self.degree})"


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
            raise InvalidArgument(f"genus must be >= 0, got {self.genus}")


def require_genus_ge_2(ctx: GenusContext) -> None:
    if ctx.genus < 2:
        raise DomainError(f"genus must be >= 2, got {ctx.genus}")


def add_types(a: SheafType, b: SheafType) -> SheafType:
    """Componentwise sum of two sheaf types."""
    return SheafType(a.rank + b.rank, a.degree + b.degree)


def hcf_of_type(t: SheafType) -> int:
    """Positive highest common factor of rank and degree.

    Convention: hcf(r, d) = hcf(r, -d) > 0, and hcf(r, 0) = r. Requires
    rank >= 1.
    """
    if t.rank < 1:
        raise InvalidType(f"hcf needs rank >= 1, got {t}")
    return math.gcd(t.rank, t.degree)
