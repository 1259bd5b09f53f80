import random

import pytest

from bunred import (
    DomainError,
    SheafType,
    add_types,
    hcf_of_type,
)


def test_add_examples():
    assert add_types(SheafType(1, -3), SheafType(2, 4)) == SheafType(3, 1)
    assert add_types(SheafType(0, 0), SheafType(2, 1)) == SheafType(2, 1)
    assert add_types(SheafType(1, -3), SheafType(3, -2)) == SheafType(4, -5)


def test_type_invariants():
    with pytest.raises(DomainError, match="rank must be >= 0, got -1"):
        SheafType(-1, 0)
    with pytest.raises(
        DomainError, match="rank-zero types are torsion and need degree >= 0, got degree -2"
    ):
        SheafType(0, -2)
    SheafType(0, 0)
    SheafType(0, 5)


def test_hcf_examples():
    assert hcf_of_type(SheafType(2, 1)) == 1
    assert hcf_of_type(SheafType(2, -6)) == 2
    assert hcf_of_type(SheafType(4, 0)) == 4
    with pytest.raises(DomainError, match=r"hcf needs rank >= 1, got \(0,3\)"):
        hcf_of_type(SheafType(0, 3))


def test_hcf_sign_convention():
    for r, d in [(6, 4), (6, -4), (9, 15), (9, -15)]:
        assert hcf_of_type(SheafType(r, d)) == hcf_of_type(SheafType(r, -d)) > 0


def _random_type(rng, max_rank=20, max_deg=40):
    r = rng.randint(0, max_rank)
    d = rng.randint(0, max_deg) if r == 0 else rng.randint(-max_deg, max_deg)
    return SheafType(r, d)


def test_add_is_commutative_monoid():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (_random_type(rng) for _ in range(3))
        assert add_types(a, b) == add_types(b, a)
        assert add_types(add_types(a, b), c) == add_types(a, add_types(b, c))
        assert add_types(a, SheafType(0, 0)) == a


def test_hcf_divides_and_scales():
    rng = random.Random(8)
    for _ in range(300):
        t = _random_type(rng)
        if t.rank == 0:
            continue
        h = hcf_of_type(t)
        assert t.rank % h == 0 and t.degree % h == 0
        n = rng.randint(1, 6)
        assert hcf_of_type(SheafType(n * t.rank, n * t.degree)) == n * h
