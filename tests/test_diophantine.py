import math
import random

import pytest

from bunred import (
    BaseCaseReached,
    DomainError,
    GenusContext,
    LemmaSolution,
    SheafType,
    TheoremContradicted,
    euler_form,
    solve_lemma,
    solve_lemma_bruteforce,
)
from bunred import diophantine

G2 = GenusContext(2)


def test_golden_solutions():
    # frozen from the brute-force window scan
    assert solve_lemma(G2, SheafType(2, 1)) == LemmaSolution(3, -2, 1, -3, 1, 1)
    assert solve_lemma(G2, SheafType(4, 2)) == LemmaSolution(3, -2, 2, -6, 2, 2)
    assert solve_lemma(GenusContext(3), SheafType(3, 1)) == LemmaSolution(4, -7, 1, -8, 1, 1)
    assert solve_lemma(GenusContext(4), SheafType(5, 3)) == LemmaSolution(7, -17, 2, -20, 1, 2)
    assert solve_lemma(G2, SheafType(6, 4)) == LemmaSolution(5, -2, 4, -8, 2, 4)


def test_oracle_agrees_on_grid():
    for g in range(2, 4):
        ctx = GenusContext(g)
        for r in range(1, 16):
            for d in range(-15, 16):
                if math.gcd(r, d) == r:
                    continue
                assert solve_lemma(ctx, SheafType(r, d)) == solve_lemma_bruteforce(
                    ctx, SheafType(r, d)
                )


def test_solution_is_euler_form_solution():
    # the defining equation is exactly chi(tF, t) = h
    for g in range(2, 5):
        ctx = GenusContext(g)
        for (r, d) in [(2, 1), (5, 3), (9, -6), (12, 8), (7, 0)]:
            if math.gcd(r, d) == r:
                continue
            sol = solve_lemma(ctx, SheafType(r, d))
            assert euler_form(ctx, SheafType(sol.rF, sol.dF), SheafType(r, d)) == sol.h


def test_base_case_signal():
    with pytest.raises(BaseCaseReached):
        solve_lemma(G2, SheafType(3, 0))
    with pytest.raises(BaseCaseReached):
        solve_lemma(G2, SheafType(2, -2))
    with pytest.raises(BaseCaseReached):
        solve_lemma_bruteforce(G2, SheafType(1, 7))


def test_domain_errors():
    with pytest.raises(DomainError, match=r"reduction step needs rank >= 1, got \(0,3\)"):
        solve_lemma(G2, SheafType(0, 3))
    with pytest.raises(DomainError):
        solve_lemma(GenusContext(1), SheafType(2, 1))


def test_oracle_reports_a_window_without_a_unique_solution(monkeypatch):
    # a wrong hcf (1 instead of 2 for (4,2)) leaves the window (4, 8) with no
    # integral dF: the oracle refuses rather than pick a solution
    monkeypatch.setattr(diophantine, "_check_preconditions", lambda ctx, t: 1)
    with pytest.raises(
        TheoremContradicted, match=r"window scan for \(4,2\) found 0 solutions, expected exactly 1"
    ):
        solve_lemma_bruteforce(G2, SheafType(4, 2))


def test_measure_strictly_decreases_on_grid():
    for g in range(2, 4):
        ctx = GenusContext(g)
        for r in range(1, 13):
            for d in range(-12, 13):
                if math.gcd(r, d) == r:
                    continue
                sol = solve_lemma(ctx, SheafType(r, d))
                assert sol.r1 * sol.h < r * sol.h1  # r1/h1 < r/h
                assert sol.h1 % sol.h == 0 and 0 < sol.r1 < r


@pytest.mark.parametrize("digits", [300, 1000])
def test_big_solutions_satisfy_equation_and_window(digits):
    rng = random.Random(f"solve-lemma/{digits}")
    for g in (2, 3, 10**digits + 1):
        rank = rng.randrange(10 ** (digits - 1), 10**digits)
        degree = rng.randrange(-rank, rank)
        h = math.gcd(rank, degree)
        sol = solve_lemma(GenusContext(g), SheafType(rank, degree))
        assert (1 - g) * sol.rF * rank + sol.rF * degree - rank * sol.dF == h
        assert rank < h * sol.rF < 2 * rank


def test_solver_equals_oracle_on_big_types():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # r = h*m and d = h*k with gcd(m, k) = 1, so hcf(r, d) = h and the window
    # the oracle scans has m - 1 entries
    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        g=st.integers(2, 10**6),
        h=st.integers(10**49, 10**600 - 1),
        m=st.integers(2, 10**4),
        k=st.integers(-(10**600), 10**600),
    )
    def check(g, h, m, k):
        hypothesis.assume(math.gcd(m, k) == 1)
        ctx, t = GenusContext(g), SheafType(h * m, h * k)
        assert solve_lemma(ctx, t) == solve_lemma_bruteforce(ctx, t)

    check()


def test_big_solutions_satisfy_the_lemma():
    """The five facts of the window lemma, on ranks of 1-600 digits, where the
    oracle cannot scan the window: solve_lemma re-checks none of them."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # a rank of `digits` digits and a degree in (-rank, rank)
    types = st.integers(1, 600).flatmap(
        lambda digits: st.integers(10 ** (digits - 1), 10**digits - 1).flatmap(
            lambda r: st.tuples(st.just(r), st.integers(1 - r, r - 1))
        )
    )
    big_rank = 10**599 + 10**300 + 7

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(g=st.integers(2, 10**6), rd=types)
    @hypothesis.example(g=10**299 + 3, rd=(big_rank, -(10**450) - 1))
    def check(g, rd):
        r, d = rd
        h = math.gcd(r, d)
        hypothesis.assume(h < r)
        sol = solve_lemma(GenusContext(g), SheafType(r, d))
        # the equation chi((rF, dF), (r, d)) = h, and the window
        assert (1 - g) * sol.rF * r + sol.rF * d - r * sol.dF == h
        assert r < h * sol.rF < 2 * r
        # the reduced type
        assert (sol.r1, sol.d1) == (h * sol.rF - r, h * sol.dF - d)
        # h1 = hcf(r1, d1), a multiple of h
        assert sol.h == h and sol.h1 == math.gcd(sol.r1, sol.d1) and sol.h1 % h == 0
        # the measure: r1/h1 < r/h
        assert sol.r1 * h < r * sol.h1

    check()
