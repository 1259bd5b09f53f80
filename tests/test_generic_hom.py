import importlib
import math
import random

import pytest
from test_cli import _run_module

from bunred import (
    DomainError,
    GenericHomReport,
    GenusContext,
    HypothesisNotMet,
    MorphismKind,
    SheafType,
    TheoremContradicted,
    euler_form,
    generic_hom,
    generic_morphism_kind,
    no_bad_splitting_scan,
    solve_lemma,
)

# the module itself: the package re-exports the function generic_hom under
# the module's name, so `import bunred.generic_hom as m` binds the function
GH = importlib.import_module("bunred.generic_hom")
G2 = GenusContext(2)


def test_generic_hom_examples():
    assert generic_hom(G2, SheafType(3, -2), SheafType(2, 1)) == GenericHomReport(1, 0, True)
    assert generic_hom(G2, SheafType(1, 0), SheafType(1, 1)) == GenericHomReport(0, 0, True)
    assert generic_hom(G2, SheafType(1, 1), SheafType(1, 0)).covered is False


def test_generic_hom_domain():
    with pytest.raises(DomainError, match=r"no prediction for rank-zero types: \(0,2\), \(1,1\)"):
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


def test_morphism_kind_refuses_rank_zero():
    with pytest.raises(
        DomainError, match=r"morphism kind needs positive ranks, got \(0,1\), \(2,1\)"
    ):
        generic_morphism_kind(G2, SheafType(0, 1), SheafType(2, 1))


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
                    generic_morphism_kind(ctx, SheafType(sol.h * sol.rF, sol.h * sol.dF), t)
                    is MorphismKind.SURJECTIVE
                )
                if sol.h == 1:
                    assert generic_morphism_kind(ctx, t_f, t) is MorphismKind.SURJECTIVE


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


def test_scan_domain():
    with pytest.raises(DomainError, match=r"scan needs positive ranks, got \(0,1\), \(1,0\)"):
        no_bad_splitting_scan(G2, SheafType(0, 1), SheafType(1, 0), 10)
    with pytest.raises(DomainError, match="degree bound must be >= 0, got -1"):
        no_bad_splitting_scan(G2, SheafType(3, -2), SheafType(2, 1), -1)


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
    # the slope chain confines d to one interval per middle rank, and each
    # interval costs two evaluations at its ends: the cost follows the 4
    # middle ranks, not the 48 splittings or the 4*10^5 + 1 degrees within
    # the bound
    rep = no_bad_splitting_scan(G2, SheafType(5, -12), SheafType(5, 12), 2 * 10**5)
    assert rep.examined == 48 and rep.violations == 0


def _scan_each_degree(ctx, t1, t2, bound):
    """The scan as one test per splitting: every degree of every middle
    rank's interval is evaluated, in order.  The reference for the scan's
    two evaluations per rank; it calls the module's euler_form, so a patched
    one reaches both."""
    chi_12 = GH.euler_form(ctx, t1, t2)
    r1, d1 = t1.rank, t1.degree
    r2, d2 = t2.rank, t2.degree
    b = bound
    examined = 0
    for r in range(1, min(r1 - 1, r2) + 1):
        lo = max(d1 * r // r1 + 1, -b, d1 - b, d2 - b)
        hi = min(-(-d2 * r // r2) - 1, b, d1 + b, d2 + b)
        rk, rq = r1 - r, r2 - r
        for d in range(lo, hi + 1):
            dk, dq = d1 - d, d2 - d
            examined += 1
            chi_kq = GH.euler_form(ctx, SheafType(rk, dk), SheafType(rq, dq))
            if chi_kq <= 0:
                raise TheoremContradicted(
                    f"chi(({rk},{dk}),({rq},{dq})) = {chi_kq} <= 0 for a "
                    f"slope-compatible splitting of {t1}, {t2}"
                )
            if not chi_kq * r1 * r2 > chi_12 * rk * rq:
                raise TheoremContradicted(
                    f"chain inequality failed for splitting ({rk},{dk}), ({rq},{dq})"
                )
    return examined


def _random_pairs(rng, count):
    """`count` (ctx, t1, t2) with genus 2..6, ranks 1..40, |degree| <= 200
    and chi(t1, t2) >= 0."""
    pairs = []
    while len(pairs) < count:
        ctx = GenusContext(rng.randint(2, 6))
        t1 = SheafType(rng.randint(1, 40), rng.randint(-200, 200))
        t2 = SheafType(rng.randint(1, 40), rng.randint(-200, 200))
        if euler_form(ctx, t1, t2) >= 0:
            pairs.append((ctx, t1, t2))
    return pairs


def test_scan_counts_every_degree_on_big_bounds():
    total = 0
    for ctx, t1, t2 in _random_pairs(random.Random(2201), 40):
        for bound in (0, 5, 20, 2000, 10**6):
            rep = no_bad_splitting_scan(ctx, t1, t2, bound)
            assert rep.examined == _scan_each_degree(ctx, t1, t2, bound), (ctx, t1, t2, bound)
            total += rep.examined
    assert total > 10**4


def test_scan_evaluates_two_ends_per_middle_rank(monkeypatch):
    calls = []
    real = GH.euler_form

    def counted(ctx, a, b):
        calls.append((a, b))
        return real(ctx, a, b)

    monkeypatch.setattr(GH, "euler_form", counted)
    rep = no_bad_splitting_scan(G2, SheafType(60, 7), SheafType(59, 300), 10**5)
    assert rep.examined == 8793 and rep.violations == 0
    # chi(t1, t2), then the two ends of each of the 59 middle ranks' intervals
    assert len(calls) <= 1 + 2 * 59 == 119
    for ctx, t1, t2 in _random_pairs(random.Random(2202), 30):
        calls.clear()
        no_bad_splitting_scan(ctx, t1, t2, 10**6)
        assert len(calls) <= 1 + 2 * min(t1.rank - 1, t2.rank), (ctx, t1, t2)


# (5,-12), (5,12) in genus 2: chi = 95, and middle rank 2 (kernel and
# cokernel rank 3) has the interval -4 <= d <= 4, in which the chain test
# needs chi(tK, tQ) >= 35.  Each fault is affine in d, holds below d = 1
# and fails from d = 1 on, so the first failing splitting is inside the
# interval, where neither end names it.
FAULTS = {
    "chi": (
        lambda d: 35 * (1 - d),
        "chi((3,-13),(3,11)) = 0 <= 0 for a slope-compatible splitting of (5,-12), (5,12)",
    ),
    "chain": (
        lambda d: 35 - d,
        "chain inequality failed for splitting (3,-13), (3,11)",
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_scan_names_the_first_failing_splitting(fault, monkeypatch):
    value, message = FAULTS[fault]
    t1, t2 = SheafType(5, -12), SheafType(5, 12)
    real = GH.euler_form

    def faulty(ctx, a, b):
        # value(d) on the splittings of middle rank 2, d the middle degree
        if (a.rank, b.rank) == (3, 3):
            return value(t1.degree - a.degree)
        return real(ctx, a, b)

    monkeypatch.setattr(GH, "euler_form", faulty)
    with pytest.raises(TheoremContradicted) as each_degree:
        _scan_each_degree(G2, t1, t2, 20)
    with pytest.raises(TheoremContradicted) as scan:
        no_bad_splitting_scan(G2, t1, t2, 20)
    assert str(scan.value) == str(each_degree.value) == message


def test_scan_of_an_empty_window_exits_at_once_on_13_digit_ranks():
    # |d1| = |d2| = 10^12 > 2 * 20, so no degree is within 20 of d, d1 and d2
    # at once; a loop over the 10^12 middle ranks would never end in time
    big = 10**12
    proc = _run_module("scan-splittings", "-g", "2", "--t1", f"{big},{-big}",
                       "--t2", f"{big},{big}", "--bound", "20", timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        f"scan(({big},{-big}), ({big},{big}); g=2, bound=20): "
        "0 splittings examined, 0 violations\n"
    )


def _big_rank_pairs(rng, count):
    """`count` (ctx, t1, t2, bound) with genus 2..6, ranks up to 10^6 (of
    1 to 7 digits alike), bound 0..2,000 and chi(t1, t2) >= 0.  Half the
    draws keep both degrees within 2 * bound + 1, so empty and non-empty
    windows both occur."""
    pairs = []
    while len(pairs) < count:
        ctx = GenusContext(rng.randint(2, 6))
        bound = rng.randint(0, 2000)
        top = rng.choice((2 * bound + 1, 10**6))
        t1, t2 = (
            SheafType(rng.randint(1, 10 ** rng.randint(0, 6)), rng.randint(-top, top))
            for _ in range(2)
        )
        if euler_form(ctx, t1, t2) >= 0:
            pairs.append((ctx, t1, t2, bound))
    return pairs


def test_scan_calls_are_bounded_by_the_degree_bound(monkeypatch):
    # an empty window makes one call, for chi(t1, t2); chi >= 0 and a
    # non-empty window give (g-1)*min(r1, r2) <= 4b, so at most
    # floor(4b/(g-1)) middle ranks have an interval to evaluate
    calls = []
    real = GH.euler_form

    def counted(ctx, a, b):
        calls.append((a, b))
        return real(ctx, a, b)

    monkeypatch.setattr(GH, "euler_form", counted)
    empty_windows = [
        (G2, SheafType(10**5, -(10**5)), SheafType(10**5, 10**5), 20),
        (G2, SheafType(5, -12), SheafType(5, 12), 5),  # |d1| = 12 > 2 * 5
        (GenusContext(3), SheafType(10**6, 3), SheafType(7, 10**6), 2000),
        (GenusContext(4), SheafType(2, -1), SheafType(10**6, 3 * 10**6), 0),
    ]
    empty = clipped = examined = 0
    for ctx, t1, t2, b in empty_windows + _big_rank_pairs(random.Random(3101), 400):
        calls.clear()
        rep = no_bad_splitting_scan(ctx, t1, t2, b)
        assert rep.violations == 0
        ranks = min(t1.rank - 1, t2.rank)
        by_bound = 4 * b // (ctx.genus - 1)
        assert len(calls) <= 1 + 2 * min(ranks, by_bound), (ctx, t1, t2, b)
        if max(-b, t1.degree - b, t2.degree - b) > min(b, t1.degree + b, t2.degree + b):
            assert (calls, rep.examined) == ([(t1, t2)], 0), (ctx, t1, t2, b)
            empty += 1
        clipped += by_bound < ranks
        examined += rep.examined
    assert empty > 100 and clipped > 10 and examined > 10**5
