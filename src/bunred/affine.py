"""Invertible affine maps deg -> sign*deg + shift on determinant degrees,
and their left-to-right fold as an integer (sign, shift) pair."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError


@dataclass(frozen=True)
class DegreeAffineMap:
    """Action deg -> sign*deg + shift with sign in {+1, -1}; always invertible."""

    sign: int
    shift: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {self.sign}")

    def apply(self, degree: int) -> int:
        return self.sign * degree + self.shift

    def describe(self) -> str:
        s = "deg" if self.sign == 1 else "-deg"
        if self.shift > 0:
            return f"{s} + {self.shift}"
        if self.shift < 0:
            return f"{s} - {-self.shift}"
        return s


def _fold_det(maps: Iterable[DegreeAffineMap]) -> tuple[int, int]:
    """(sign, shift) of the left-to-right composition of maps, the first map
    acting first, folded as plain integers with no map built.

    (s1,c1) followed by (s2,c2) is (s2*s1, s2*c1 + c2).
    """
    sign, shift = 1, 0
    for m in maps:
        sign, shift = m.sign * sign, m.sign * shift + m.shift
    return sign, shift
