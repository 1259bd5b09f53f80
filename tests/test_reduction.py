import math
from dataclasses import replace

import pytest

from bunred import (
    BaseStep,
    CertificateInvalid,
    CompositeStep,
    DegreeAffineMap,
    DomainError,
    GenusContext,
    InvalidType,
    LemmaSolution,
    SheafType,
    compose_det,
    node_affine_total,
    node_depth,
    reduce,
    verify_trace,
)

G2 = GenusContext(2)


def test_golden_trace_rank2_degree1():
    tr = reduce(G2, SheafType(2, 1))
    root = tr.root
    assert isinstance(root, CompositeStep)
    assert root.sol == LemmaSolution(rF=3, dF=-2, r1=1, d1=-3, h=1, h1=1)
    assert root.rkV == 4
    assert root.rho_affine == 3 and root.hecke_affine == 0
    assert root.mu1 == BaseStep(SheafType(1, -3), twist_degree=3)
    assert root.mu2 == BaseStep(SheafType(1, -1), twist_degree=1)
    assert root.det_maps == (
        DegreeAffineMap(-1, -2),
        DegreeAffineMap(1, 3),
        DegreeAffineMap(1, -1),
        DegreeAffineMap(1, 1),
    )
    assert tr.total_affine_dim == 3
    assert tr.composite_det == DegreeAffineMap(-1, 1)
    assert tr.composite_det.apply(1) == 0
    assert verify_trace(tr).ok


def test_golden_trace_rank4_degree2():
    tr = reduce(G2, SheafType(4, 2))
    root = tr.root
    assert root.sol == LemmaSolution(rF=3, dF=-2, r1=2, d1=-6, h=2, h1=2)
    assert root.rkV == 8
    assert root.rho_affine == 12 and root.hecke_affine == 0
    assert root.mu1 == BaseStep(SheafType(2, -6), twist_degree=3)
    assert root.mu2 == BaseStep(SheafType(2, -2), twist_degree=1)
    assert tr.total_affine_dim == 12
    assert tr.composite_det.apply(2) == 0
    assert verify_trace(tr).ok


def test_golden_trace_base_case():
    tr = reduce(G2, SheafType(3, 0))
    assert tr.root == BaseStep(SheafType(3, 0), twist_degree=0)
    assert tr.total_affine_dim == 0
    assert tr.composite_det == DegreeAffineMap(1, 0)
    assert verify_trace(tr).ok


def test_golden_trace_genus3():
    tr = reduce(GenusContext(3), SheafType(3, 1))
    assert tr.root.sol.rF == 4 and tr.root.sol.dF == -7
    assert tr.root.rkV == 17
    assert tr.total_affine_dim == 16
    assert verify_trace(tr).ok


def test_reduce_domain_errors():
    with pytest.raises(DomainError):
        reduce(GenusContext(1), SheafType(2, 1))
    with pytest.raises(InvalidType):
        reduce(G2, SheafType(0, 3))


def test_compose_det_examples():
    maps = [
        DegreeAffineMap(-1, -2),
        DegreeAffineMap(1, 3),
        DegreeAffineMap(1, -1),
        DegreeAffineMap(1, 1),
    ]
    assert compose_det(maps) == DegreeAffineMap(-1, 1)
    assert compose_det([]) == DegreeAffineMap(1, 0)
    m = DegreeAffineMap(-1, 7)
    assert compose_det([m, m]) == DegreeAffineMap(1, 0)  # a reflection is an involution


def _perturbed(trace, **root_fields):
    return replace(trace, root=replace(trace.root, **root_fields))


def test_perturbed_dF_fails_euler_equation():
    tr = reduce(G2, SheafType(2, 1))
    bad = _perturbed(tr, sol=replace(tr.root.sol, dF=-1))
    report = verify_trace(bad, strict=False)
    assert "euler_equation" in report.failed_names()
    with pytest.raises(CertificateInvalid) as exc:
        verify_trace(bad)
    assert exc.value.check == "euler_equation" and exc.value.path == "root"


def test_perturbed_rkv_fails_hom_bundle_rank():
    tr = reduce(G2, SheafType(2, 1))
    for delta in (-1, 1):
        bad = _perturbed(tr, rkV=tr.root.rkV + delta)
        report = verify_trace(bad, strict=False)
        assert "hom_bundle_rank" in report.failed_names()
        with pytest.raises(CertificateInvalid) as exc:
            verify_trace(bad)
        assert exc.value.check == "hom_bundle_rank"


def test_perturbed_total_fails_affine_check():
    tr = reduce(G2, SheafType(2, 1))
    bad = replace(tr, total_affine_dim=4)
    report = verify_trace(bad, strict=False)
    assert report.failed_names() == {"total_affine_dim"}


def test_perturbed_det_shift_fails_det_segments():
    tr = reduce(G2, SheafType(2, 1))
    maps = list(tr.root.det_maps)
    maps[2] = DegreeAffineMap(maps[2].sign, maps[2].shift + 1)
    bad = _perturbed(tr, det_maps=tuple(maps))
    report = verify_trace(bad, strict=False)
    assert "det_segments" in report.failed_names()


def test_trace_invariants_on_grid():
    for g in range(2, 4):
        ctx = GenusContext(g)
        for r in range(1, 11):
            for d in range(-10, 11):
                t = SheafType(r, d)
                tr = reduce(ctx, t)
                h = math.gcd(r, d)
                assert tr.h == h
                assert tr.total_affine_dim == (g - 1) * (r * r - h * h)
                assert tr.composite_det.sign in (1, -1)
                assert tr.composite_det.apply(d) == 0
                assert node_depth(tr.root) <= r
                assert node_affine_total(tr.root) == tr.total_affine_dim
                assert _target(tr.root) == SheafType(h, 0)


def _target(node):
    # final stack of the composite chain: base steps twist to degree 0,
    # composite steps end where their second child ends
    if isinstance(node, BaseStep):
        return SheafType(node.t.rank, node.t.degree + node.t.rank * node.twist_degree)
    return _target(node.mu2)


def test_second_child_reduces_hecke_target():
    tr = reduce(G2, SheafType(6, 4))
    root = tr.root
    assert root.mu2.t == SheafType(root.sol.h1, -root.sol.h)
    assert math.gcd(root.sol.h1, root.sol.h) == root.sol.h
    rep = verify_trace(tr)
    assert rep.ok
    # every graph-map precondition along the tree passed
    names = {(c.path, c.name) for c in rep.checks if c.name == "graph_map_precondition"}
    assert all(c.passed for c in rep.checks if c.name == "graph_map_precondition")
    assert len(names) >= 1
