"""Invertible affine maps deg -> sign*deg + shift on determinant degrees."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidArgument


@dataclass(frozen=True)
class DegreeAffineMap:
    """Action deg -> sign*deg + shift with sign in {+1, -1}; always invertible."""

    sign: int
    shift: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InvalidArgument(f"sign must be +1 or -1, got {self.sign}")

    def apply(self, degree: int) -> int:
        return self.sign * degree + self.shift

    def then(self, nxt: DegreeAffineMap) -> DegreeAffineMap:
        """Composite 'self first, then nxt': (s2,c2) o (s1,c1) = (s2*s1, s2*c1 + c2)."""
        return DegreeAffineMap(nxt.sign * self.sign, nxt.sign * self.shift + nxt.shift)

    def describe(self) -> str:
        s = "deg" if self.sign == 1 else "-deg"
        if self.shift > 0:
            return f"{s} + {self.shift}"
        if self.shift < 0:
            return f"{s} - {-self.shift}"
        return s


IDENTITY_MAP = DegreeAffineMap(1, 0)


def compose_det(maps: Iterable[DegreeAffineMap]) -> DegreeAffineMap:
    """Left-to-right composition; the first map in the sequence acts first."""
    out = IDENTITY_MAP
    for m in maps:
        out = out.then(m)
    return out
