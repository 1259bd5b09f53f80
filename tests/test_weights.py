import math

import pytest

from bunred import DomainError, GenusContext, SheafType, minimal_rank_divisor

G2 = GenusContext(2)


def test_minimal_rank_divisor_examples():
    assert minimal_rank_divisor(G2, SheafType(2, 1)) == (1, (2, 1))
    assert minimal_rank_divisor(G2, SheafType(4, 2)) == (2, (4, 2))
    assert minimal_rank_divisor(G2, SheafType(1, 0)) == (1, (1, 1))


def test_minimal_rank_divisor_domain():
    with pytest.raises(DomainError, match=r"minimal rank needs rank >= 1, got \(0,3\)"):
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
