import math
import random

import pytest

from bunred import (
    DomainError,
    GenericHomReport,
    GenusContext,
    HypothesisNotMet,
    InvalidSplitting,
    MorphismKind,
    NotCovered,
    SheafType,
    euler_form,
    excess_identity,
    generic_hom,
    generic_morphism_kind,
    no_bad_splitting_scan,
    scale_type,
    solve_lemma,
)

G2 = GenusContext(2)


def test_generic_hom_examples():
    assert generic_hom(G2, SheafType(3, -2), SheafType(2, 1)) == GenericHomReport(1, 0, True)
    assert generic_hom(G2, SheafType(1, 0), SheafType(1, 1)) == GenericHomReport(0, 0, True)
    assert generic_hom(G2, SheafType(1, 1), SheafType(1, 0)).covered is False


def test_generic_hom_domain():
    with pytest.raises(NotCovered):
        generic_hom(G2, SheafType(0, 2), SheafType(1, 1))
    with pytest.raises(DomainError):
        generic_hom(GenusContext(1), SheafType(1, 0), SheafType(1, 1))


def test_generic_hom_consistency():
    rng = random.Random(31)
    for _ in range(300):
        ctx = GenusContext(rng.randint(2, 5))
        t1 = SheafType(rng.randint(1, 8), rng.randint(-15, 15))
        t2 = SheafType(rng.randint(1, 8), rng.randint(-15, 15))
        rep = generic_hom(ctx, t1, t2)
        if rep.covered:
            assert rep.hom_dim - rep.ext_dim == euler_form(ctx, t1, t2)
            assert rep.ext_dim == 0


def test_morphism_kind_examples():
    assert generic_morphism_kind(G2, SheafType(3, -2), SheafType(2, 1)) is MorphismKind.SURJECTIVE
    assert (
        generic_morphism_kind(G2, SheafType(1, -3), SheafType(3, -2))
        is MorphismKind.INJECTIVE_TORSIONFREE_COKERNEL
    )
    assert generic_morphism_kind(G2, SheafType(2, -3), SheafType(2, 1)) is MorphismKind.INJECTIVE
    with pytest.raises(HypothesisNotMet):
        generic_morphism_kind(G2, SheafType(2, 0), SheafType(2, 1))


def test_reduction_types_are_covered_and_surjective():
    # For every window solution: chi(tF, t) = h >= 0 gives hom dim h, and the
    # h-fold direct sum of tF maps onto t generically (rank h*rF > r).
    for g in range(2, 4):
        ctx = GenusContext(g)
        for r in range(1, 11):
            for d in range(-10, 11):
                if math.gcd(r, d) == r:
                    continue
                t = SheafType(r, d)
                sol = solve_lemma(ctx, t)
                t_f = SheafType(sol.rF, sol.dF)
                rep = generic_hom(ctx, t_f, t)
                assert rep.covered and rep.hom_dim == sol.h
                assert (
                    generic_morphism_kind(ctx, scale_type(sol.h, t_f), t)
                    is MorphismKind.SURJECTIVE
                )
                if sol.h == 1:
                    assert generic_morphism_kind(ctx, t_f, t) is MorphismKind.SURJECTIVE


def test_excess_identity():
    t1, t2 = SheafType(2, -1), SheafType(2, 1)
    t_k, t_q = SheafType(1, -1), SheafType(1, 1)
    m = euler_form(G2, t1, t2) - euler_form(G2, t_k, t_q)
    assert excess_identity(G2, t1, t2, t_k, t_q, m)
    assert not excess_identity(G2, t1, t2, t_k, t_q, m + 1)


def test_excess_identity_zero_splitting():
    # the trivial splitting needs t1 == t2; both sides vanish at m = chi
    t = SheafType(3, -2)
    m = euler_form(G2, t, t)
    assert excess_identity(G2, t, t, SheafType(0, 0), SheafType(0, 0), m)


def test_excess_identity_rejects_inconsistent_splitting():
    with pytest.raises(InvalidSplitting):
        excess_identity(G2, SheafType(2, 0), SheafType(2, 0), SheafType(1, 0), SheafType(1, 1), 0)


def test_scan_examples():
    rep = no_bad_splitting_scan(G2, SheafType(3, -2), SheafType(2, 1), 20)
    assert rep.violations == 0 and rep.examined > 0
    rep = no_bad_splitting_scan(G2, SheafType(2, 0), SheafType(2, 4), 20)
    assert rep.violations == 0
    rep = no_bad_splitting_scan(G2, SheafType(3, -2), SheafType(2, 1), 0)
    assert rep.examined == 0 and rep.violations == 0
    # r = r2 leaves a torsion cokernel: the one splitting is tK = (1,-1), tQ = (0,1)
    assert no_bad_splitting_scan(G2, SheafType(2, -1), SheafType(1, 1), 5).examined == 1


def test_scan_hypothesis():
    with pytest.raises(HypothesisNotMet):
        no_bad_splitting_scan(G2, SheafType(1, 1), SheafType(1, 0), 10)


def test_scan_randomized():
    rng = random.Random(41)
    done = 0
    while done < 60:
        ctx = GenusContext(rng.randint(2, 4))
        t1 = SheafType(rng.randint(1, 5), rng.randint(-10, 10))
        t2 = SheafType(rng.randint(1, 5), rng.randint(-10, 10))
        if euler_form(ctx, t1, t2) < 0:
            continue
        assert no_bad_splitting_scan(ctx, t1, t2, 15).violations == 0
        done += 1


def _scan_reference(t1, t2, bound):
    """Count of the splittings kept by the direct filter loop over every degree
    in [-bound, bound]: the reference for the scan's closed-form interval."""
    r1, d1 = t1.rank, t1.degree
    r2, d2 = t2.rank, t2.degree
    examined = 0
    for r in range(1, min(r1, r2) + 1):
        for d in range(-bound, bound + 1):
            rk, dk = r1 - r, d1 - d
            rq, dq = r2 - r, d2 - d
            if (rk, dk) == (0, 0) or (rq, dq) == (0, 0):
                continue
            if rk < 1:
                continue
            if rq == 0 and dq < 1:
                continue
            if abs(dk) > bound or abs(dq) > bound:
                continue
            if not dk * r1 < d1 * rk:
                continue
            if not d1 * r < d * r1:
                continue
            if not d * r2 < d2 * r:
                continue
            if rq >= 1 and not d2 * rq < dq * r2:
                continue
            examined += 1
    return examined


def test_scan_matches_filter_loop_on_grid():
    # covers bound 0, r1 = 1 (no kernel rank left) and r2 < r1 (rank-zero tQ)
    cases = examined = 0
    for g in (2, 3):
        ctx = GenusContext(g)
        for r1 in range(1, 6):
            for r2 in range(1, 6):
                for d1 in range(-6, 7):
                    for d2 in range(-6, 7):
                        t1, t2 = SheafType(r1, d1), SheafType(r2, d2)
                        if euler_form(ctx, t1, t2) < 0:
                            continue
                        for bound in (0, 2, 7, 15):
                            rep = no_bad_splitting_scan(ctx, t1, t2, bound)
                            assert rep.examined == _scan_reference(t1, t2, bound), (g, t1, t2, bound)
                            cases += 1
                            examined += rep.examined
    assert cases > 5000 and examined > 5000


def test_scan_cost_does_not_grow_with_bound():
    # the slope chain confines d to a short interval, so the cost follows the
    # 48 splittings, not the 4*10^5 + 1 degrees within the bound
    rep = no_bad_splitting_scan(G2, SheafType(5, -12), SheafType(5, 12), 2 * 10**5)
    assert rep.examined == 48 and rep.violations == 0
