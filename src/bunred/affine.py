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

    def describe(self) -> str:
        s = "deg" if self.sign == 1 else "-deg"
        if self.shift > 0:
            return f"{s} + {self.shift}"
        if self.shift < 0:
            return f"{s} - {-self.shift}"
        return s


def compose_det(maps: Iterable[DegreeAffineMap]) -> DegreeAffineMap:
    """Left-to-right composition; the first map in the sequence acts first."""
    return DegreeAffineMap(*_fold_det(maps))


def _fold_det(maps: Iterable[DegreeAffineMap]) -> tuple[int, int]:
    """compose_det's (sign, shift), folded as plain integers with no map built.

    (s1,c1) followed by (s2,c2) is (s2*s1, s2*c1 + c2).
    """
    sign, shift = 1, 0
    for m in maps:
        sign, shift = m.sign * sign, m.sign * shift + m.shift
    return sign, shift
