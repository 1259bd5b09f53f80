"""Verifier behaviour on traces broken away from the root node."""

from dataclasses import replace

import pytest

from bunred import (
    BaseStep,
    CertificateInvalid,
    CompositeStep,
    DegreeAffineMap,
    DomainError,
    GenusContext,
    LemmaSolution,
    ReductionTrace,
    SheafType,
    node_affine_total,
    node_depth,
    reduce,
    verify_trace,
)

G2 = GenusContext(2)


def test_child_node_failure_reports_child_path():
    tr = reduce(G2, SheafType(2, 1))
    bad_mu1 = replace(tr.root.mu1, twist_degree=9)
    bad = replace(tr, root=replace(tr.root, mu1=bad_mu1))
    report = verify_trace(bad, strict=False)
    failing = {(c.path, c.name) for c in report.checks if not c.passed}
    # the child's own twist check fails, and so does the parent's stored
    # determinant segment for that child (checked first, top-down)
    assert ("root.mu1", "base_twist") in failing
    assert ("root", "det_segments") in failing
    with pytest.raises(CertificateInvalid) as exc:
        verify_trace(bad)
    assert exc.value.path == "root" and exc.value.check == "det_segments"


def test_swapped_child_fails_child_types():
    tr = reduce(G2, SheafType(2, 1))
    wrong_child = BaseStep(SheafType(1, -2), twist_degree=2)
    bad = replace(tr, root=replace(tr.root, mu2=wrong_child))
    report = verify_trace(bad, strict=False)
    assert "child_types" in report.failed_names()


def test_deep_tree_paths_are_dotted():
    # (6,4) at genus 2 reduces through a second composite level
    tr = reduce(G2, SheafType(6, 4))
    report = verify_trace(tr)
    paths = {c.path for c in report.checks}
    assert "root" in paths
    assert any(p.startswith("root.mu") for p in paths)


def test_exception_carries_report():
    tr = reduce(G2, SheafType(2, 1))
    bad = replace(tr, total_affine_dim=99)
    with pytest.raises(CertificateInvalid) as exc:
        verify_trace(bad)
    assert exc.value.report is not None
    assert not exc.value.report.ok
    assert exc.value.check == "total_affine_dim"


def test_low_genus_trace_fails_domain_check():
    tr = reduce(G2, SheafType(2, 1))
    bad = replace(tr, genus=1)
    report = verify_trace(bad, strict=False)
    assert "genus_domain" in report.failed_names()


def test_garbage_values_never_crash_verifier():
    tr = reduce(G2, SheafType(2, 1))
    garbage_sol = LemmaSolution(rF=-3, dF=2, r1=-1, d1=0, h=0, h1=-1)
    bad = replace(tr, root=replace(tr.root, sol=garbage_sol))
    report = verify_trace(bad, strict=False)
    assert not report.ok


def test_deep_chain_fails_without_recursion_error():
    # 5,000 composite nodes, each the mu1 child of the next: far deeper than
    # the recursion limit, and wrong at every level
    base = BaseStep(SheafType(1, 0), twist_degree=0)
    node = base
    for _ in range(5000):
        node = CompositeStep(
            t=SheafType(1, 0),
            sol=LemmaSolution(rF=1, dF=0, r1=1, d1=0, h=1, h1=1),
            rkV=1,
            rho_affine=1,
            hecke_affine=0,
            mu1=node,
            mu2=base,
            det_maps=(),
        )
    trace = ReductionTrace(
        genus=2,
        input=SheafType(1, 0),
        h=1,
        root=node,
        total_affine_dim=0,
        composite_det=DegreeAffineMap(1, 0),
    )
    assert node_depth(node) == 5001
    assert node_affine_total(node) == 5000
    # every path is kept, so the report holds ~100 MB of path strings
    report = verify_trace(trace, strict=False)
    failed = [(c.path, c.name) for c in report.failures()]
    assert failed[0] == ("root", "euler_equation")
    assert ("root" + ".mu1" * 4999, "euler_equation") in failed
    assert report.checks[-3].detail == "stored 0, node sum 5000, (g-1)(r^2-h^2) = 0"


def test_all_checks_listed_with_pass_fail():
    tr = reduce(G2, SheafType(4, 2))
    report = verify_trace(tr)
    assert report.ok
    names = {c.name for c in report.checks}
    assert {
        "euler_equation", "rank_window", "reduced_type", "solution_hcf",
        "measure_decrease", "hom_bundle_rank", "graph_map_precondition",
        "hecke_divisibility", "dimension_identity", "rho_affine",
        "hecke_affine", "child_types", "det_segments", "base_rank",
        "base_twist", "total_affine_dim", "composite_det",
        "det_sends_to_zero", "input_hcf", "root_type",
    } <= names


def test_subtree_targets():
    tr = reduce(G2, SheafType(6, 4))
    root = tr.root

    def target(node):
        if isinstance(node, BaseStep):
            return SheafType(node.t.rank, node.t.degree + node.t.rank * node.twist_degree)
        return target(node.mu2)

    assert target(root.mu1) == SheafType(root.sol.h1, 0)
    assert target(root) == SheafType(tr.h, 0)


def test_affine_map_validates_sign():
    with pytest.raises(DomainError, match=r"sign must be \+1 or -1, got 2"):
        DegreeAffineMap(2, 0)
    with pytest.raises(DomainError, match=r"sign must be \+1 or -1, got 0"):
        DegreeAffineMap(0, 5)


def test_genus_context_validates():
    with pytest.raises(DomainError, match="genus must be >= 0, got -1"):
        GenusContext(-1)
    GenusContext(0)
