import random

import pytest

from bunred import (
    DomainError,
    GenusContext,
    HeckeRoute,
    InvalidArgument,
    InvalidType,
    SheafType,
    bun_stack_dim,
    check_gr_rational,
    check_map_precondition,
    hecke_det_shift,
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
    with pytest.raises(InvalidArgument):
        parabolic_dim(G2, 2, 0, 3, HeckeRoute.HECKE1)
    with pytest.raises(InvalidArgument):
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


def test_hecke_det_shift_examples():
    assert hecke_det_shift(1).apply(0) == -1
    assert hecke_det_shift(2).apply(5) == 3
    with pytest.raises(InvalidArgument):
        hecke_det_shift(0)


def test_check_map_precondition():
    assert check_map_precondition(1, 1, 4, -1, -1)
    assert check_map_precondition(2, 2, 8, -1, -1)
    assert not check_map_precondition(3, 2, 8, -1, -1)
    assert not check_map_precondition(1, 1, 4, -1, 1)
    assert not check_map_precondition(1, 5, 4, -1, -1)


def test_check_gr_rational():
    assert check_gr_rational(2, SheafType(2, -2))
    assert not check_gr_rational(1, SheafType(2, -6))
    assert check_gr_rational(0, SheafType(7, 3))
    with pytest.raises(InvalidType):
        check_gr_rational(1, SheafType(0, 2))


def test_graph_map_affine_dim_nonnegative():
    rng = random.Random(21)
    hits = 0
    for _ in range(500):
        j = rng.randint(0, 6)
        rk_w = rng.randint(0, 8)
        rk_v = rng.randint(0, 12)
        w = rng.choice([-1, 1])
        if check_map_precondition(j, rk_w, rk_v, w, w):
            assert j * (rk_v - rk_w) >= 0
            hits += 1
    assert hits > 50
