import pytest

from bunred import (
    DomainError,
    GenusContext,
    HeckeRoute,
    SheafType,
    bun_stack_dim,
    parabolic_dim,
)

G2 = GenusContext(2)


def test_parabolic_dim_examples():
    assert parabolic_dim(G2, 2, 0, 1, HeckeRoute.HECKE1) == 5
    assert parabolic_dim(G2, 2, 0, 1, HeckeRoute.HECKE2) == 5
    assert parabolic_dim(GenusContext(3), 3, 1, 2, HeckeRoute.HECKE1) == 20
    assert parabolic_dim(GenusContext(3), 3, 1, 2, HeckeRoute.HECKE2) == 20
    assert parabolic_dim(G2, 1, 5, 1, HeckeRoute.HECKE1) == 1


def test_parabolic_dim_domain():
    with pytest.raises(DomainError, match="need 1 <= m <= r, got m=3, r=2"):
        parabolic_dim(G2, 2, 0, 3, HeckeRoute.HECKE1)
    with pytest.raises(DomainError, match="need 1 <= m <= r, got m=0, r=2"):
        parabolic_dim(G2, 2, 0, 0, HeckeRoute.HECKE2)
    with pytest.raises(DomainError):
        parabolic_dim(GenusContext(1), 2, 0, 1, HeckeRoute.HECKE1)


def test_hecke_routes_agree_on_grid():
    for g in range(2, 5):
        ctx = GenusContext(g)
        for r in range(1, 11):
            for m in range(1, r + 1):
                for d in range(-5, 6):
                    d1 = parabolic_dim(ctx, r, d, m, HeckeRoute.HECKE1)
                    d2 = parabolic_dim(ctx, r, d, m, HeckeRoute.HECKE2)
                    assert d1 == d2 == bun_stack_dim(ctx, SheafType(r, d)) + m * (r - m)

