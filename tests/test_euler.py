import math
import random

from bunred import (
    GenusContext,
    SheafType,
    add_types,
    bun_stack_dim,
    euler_form,
)

G2 = GenusContext(2)


def test_euler_form_examples():
    assert euler_form(G2, SheafType(3, -2), SheafType(2, 1)) == 1
    assert euler_form(G2, SheafType(2, 1), SheafType(2, 1)) == -4
    for g in range(0, 5):
        assert euler_form(GenusContext(g), SheafType(0, 0), SheafType(4, -7)) == 0


def test_bun_stack_dim_examples():
    assert bun_stack_dim(G2, SheafType(2, 1)) == 4
    assert bun_stack_dim(GenusContext(3), SheafType(3, 1)) == 18
    for d in range(0, 6):
        assert bun_stack_dim(G2, SheafType(0, d)) == 0


def _random_type(rng):
    r = rng.randint(0, 12)
    d = rng.randint(0, 20) if r == 0 else rng.randint(-20, 20)
    return SheafType(r, d)


def test_biadditivity():
    rng = random.Random(11)
    for _ in range(400):
        g = GenusContext(rng.randint(0, 6))
        a, b, c = (_random_type(rng) for _ in range(3))
        assert euler_form(g, add_types(a, b), c) == euler_form(g, a, c) + euler_form(g, b, c)
        assert euler_form(g, a, add_types(b, c)) == euler_form(g, a, b) + euler_form(g, a, c)


def test_degree_independence_of_stack_dim():
    for g in range(0, 5):
        ctx = GenusContext(g)
        for r in range(0, 8):
            dims = {bun_stack_dim(ctx, SheafType(r, d)) for d in range(-6, 7) if r or d >= 0}
            assert len(dims) == 1
            assert dims.pop() == (g - 1) * r * r


def test_key_reduction_identity():
    # Every integer solution of (1-g)*rF*r + rF*d - r*dF = h with positive
    # reduced rank satisfies h*chi(t1, tF) = (g-1)(r^2 - r1^2) + h^2 for
    # t1 = h*tF - t, windowed or not.  Enumerated directly, independent of
    # the solver.
    found = 0
    for g in range(2, 5):
        ctx = GenusContext(g)
        for r in range(2, 13):
            for d in range(-8, 9):
                h = math.gcd(r, d)
                if r == h:
                    continue
                m = r // h
                for r_f in range(m + 1, 4 * m + 1):
                    num = (1 - g) * r_f * r + r_f * d - h
                    if num % r != 0:
                        continue
                    d_f = num // r
                    r1, d1 = h * r_f - r, h * d_f - d
                    chi = euler_form(ctx, SheafType(r1, d1), SheafType(r_f, d_f))
                    assert h * chi == (g - 1) * (r * r - r1 * r1) + h * h
                    found += 1
    assert found > 900
