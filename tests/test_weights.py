import math

import pytest

from bunred import (
    BaseMismatch,
    DomainError,
    GenusContext,
    InvalidType,
    SheafType,
    WeightedBundleDescriptor,
    fixed_bundle,
    minimal_rank_divisor,
    universal_fiber,
    weight_of_dual,
    weight_of_hom,
)

G2 = GenusContext(2)
BASE = SheafType(2, 1)


def test_dual_weights():
    univ = universal_fiber(BASE)
    assert univ.weight == 1 and univ.rank == 2
    assert weight_of_dual(univ).weight == -1
    assert weight_of_dual(fixed_bundle("F", BASE, 3)).weight == 0


def test_dual_is_involution_on_weights():
    for w in range(-3, 4):
        v = WeightedBundleDescriptor("V", BASE, 5, w)
        dd = weight_of_dual(weight_of_dual(v))
        assert dd.weight == w and dd.rank == 5 and dd.base == BASE


def test_hom_weights():
    univ = universal_fiber(BASE)
    f = fixed_bundle("F", BASE, 3)
    assert weight_of_hom(f, univ).weight == 1
    assert weight_of_hom(univ, f).weight == -1
    assert weight_of_hom(univ, univ).weight == 0
    assert weight_of_hom(f, univ).rank == 6


def test_hom_antisymmetry():
    for w_src in range(-2, 3):
        for w_dst in range(-2, 3):
            a = WeightedBundleDescriptor("A", BASE, 2, w_src)
            b = WeightedBundleDescriptor("B", BASE, 3, w_dst)
            assert weight_of_hom(a, b).weight == -weight_of_hom(b, a).weight


def test_hom_base_mismatch():
    with pytest.raises(BaseMismatch):
        weight_of_hom(universal_fiber(BASE), fixed_bundle("F", SheafType(3, 1), 2))


def test_reduction_bundles_have_weight_minus_one():
    # the two bundles compared by the graph-map step of the reduction
    t1 = SheafType(1, -3)
    hom_v = weight_of_hom(universal_fiber(t1), fixed_bundle("F", t1, 3))
    dual_w = weight_of_dual(universal_fiber(SheafType(1, 0)))
    assert hom_v.weight == dual_w.weight == -1


def test_minimal_rank_divisor_examples():
    assert minimal_rank_divisor(G2, SheafType(2, 1)) == (1, (2, 1))
    assert minimal_rank_divisor(G2, SheafType(4, 2)) == (2, (4, 2))
    assert minimal_rank_divisor(G2, SheafType(1, 0)) == (1, (1, 1))


def test_minimal_rank_divisor_domain():
    with pytest.raises(InvalidType):
        minimal_rank_divisor(G2, SheafType(0, 3))
    with pytest.raises(DomainError):
        minimal_rank_divisor(GenusContext(1), SheafType(2, 1))


def test_witness_scan_matches_direct_hcf():
    # oracle: accumulate the gcd over the ell window by hand
    for g in range(2, 5):
        ctx = GenusContext(g)
        for r in range(1, 13):
            for d in range(-12, 13):
                h_expected = math.gcd(r, d)
                got_h, (w1, w2) = minimal_rank_divisor(ctx, SheafType(r, d))
                assert got_h == h_expected and w1 == r and w2 >= 1
                ell = (g - 1) + -((d - 1) // r)
                assert r * (1 - g + ell) + d == w2
                acc = r
                for k in range(ell, ell + 51):
                    acc = math.gcd(acc, r * (1 - g + k) + d)
                assert acc == h_expected
