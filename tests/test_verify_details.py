"""Exact failure reports of the verifier: one corruption per named check.

Each case corrupts one field of the genus-2 certificate for (2,1) and pins
the (path, name, detail) triple the verifier reports for the check it breaks.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from bunred import (
    BaseStep,
    DegreeAffineMap,
    GenusContext,
    SheafType,
    reduce,
    trace_ok,
    verify_trace,
)

TRACE = reduce(GenusContext(2), SheafType(2, 1))
ROOT = TRACE.root


def _root(**fields):
    return replace(TRACE, root=replace(ROOT, **fields))


def _sol(**fields):
    return _root(sol=replace(ROOT.sol, **fields))


def _segment_shifted(i):
    maps = list(ROOT.det_maps)
    maps[i] = DegreeAffineMap(maps[i].sign, maps[i].shift + 1)
    return _root(det_maps=tuple(maps))


CASES = [
    (replace(TRACE, genus=1), ("trace", "genus_domain", "genus 1 < 2")),
    (
        replace(TRACE, input=SheafType(0, 1)),
        ("trace", "input_domain", "input (0,1) has rank 0"),
    ),
    (replace(TRACE, h=2), ("trace", "input_hcf", "stored h=2, recomputed 1")),
    (
        replace(TRACE, input=SheafType(2, 3)),
        ("trace", "root_type", "root type (2,1) != input (2,3)"),
    ),
    (
        replace(TRACE, total_affine_dim=4),
        ("trace", "total_affine_dim", "stored 4, node sum 3, (g-1)(r^2-h^2) = 3"),
    ),
    (
        replace(TRACE, composite_det=DegreeAffineMap(-1, 2)),
        (
            "trace",
            "composite_det",
            "stored DegreeAffineMap(sign=-1, shift=2), "
            "recomputed DegreeAffineMap(sign=-1, shift=1)",
        ),
    ),
    (_segment_shifted(3), ("trace", "det_sends_to_zero", "composite sends 1 to 1")),
    (
        _root(mu2=BaseStep(SheafType(0, 1), 0)),
        ("root.mu2", "node_type_domain", "type (0,1) has rank 0"),
    ),
    (_root(mu1=BaseStep(SheafType(2, 1), 0)), ("root.mu1", "base_rank", "rank 2 != hcf 1")),
    (
        _root(mu1=replace(ROOT.mu1, twist_degree=9)),
        ("root.mu1", "base_twist", "twist 9 does not send degree -3 to 0"),
    ),
    (_sol(dF=-1), ("root", "euler_equation", "(1-g)*3*2 + 3*1 - 2*-1 != 1")),
    (_sol(rF=5), ("root", "rank_window", "h*rF = 5 outside (2, 4)")),
    (_sol(r1=2), ("root", "reduced_type", "stored (r1,d1)=(2,-3), expected (1,-3)")),
    (
        _sol(h1=2),
        ("root", "solution_hcf", "stored h=1, h1=2; recomputed h=1, h1=1"),
    ),
    (_sol(r1=5), ("root", "measure_decrease", "r1/h1 = 5/1 not < r/h = 2/1")),
    (_root(rkV=5), ("root", "hom_bundle_rank", "stored rkV=5 is not chi((r1,d1),(rF,dF))")),
    (
        _root(rkV=0),
        (
            "root",
            "graph_map_precondition",
            "j=1, rkW=1, rkV=0 with weights -1/-1 fails j <= rkW <= rkV",
        ),
    ),
    # hcf(h1, h) always divides h, so this check can only fail by not being
    # evaluable: a Hecke target of rank 0 and degree -1 is not a sheaf type.
    (
        _sol(h1=0),
        (
            "root",
            "hecke_divisibility",
            "not evaluable: rank-zero types are torsion and need degree >= 0, got degree -1",
        ),
    ),
    (_root(rkV=5), ("root", "dimension_identity", "(g-1)r^2 = 4 != (g-1)r1^2 + h(rkV-h)")),
    (_root(rho_affine=2), ("root", "rho_affine", "stored 2, expected 1*(4-1)")),
    (_root(hecke_affine=1), ("root", "hecke_affine", "stored 1, expected 1*(1-1)")),
    (
        _root(mu2=BaseStep(SheafType(1, -2), 2)),
        ("root", "child_types", "children are (1,-3), (1,-2); expected (1,-3), (1,-1)"),
    ),
    (
        _segment_shifted(2),
        ("root", "det_segments", "stored determinant segments differ from the re-derived ones"),
    ),
    (_sol(rF=-1), ("root", "hom_bundle_rank", "not evaluable: rank must be >= 0, got -1")),
]


@pytest.mark.parametrize(
    "trace,expected", CASES, ids=[f"{name}-{i}" for i, (_, (_, name, _)) in enumerate(CASES)]
)
def test_failure_detail_is_pinned(trace, expected):
    report = verify_trace(trace, strict=False)
    assert expected in [(c.path, c.name, c.detail) for c in report.failures()]


def test_every_named_check_has_a_pinned_failure():
    report = verify_trace(reduce(GenusContext(2), SheafType(6, 4)))
    names = {c.name for c in report.checks} | {"genus_domain", "input_domain", "node_type_domain"}
    assert names == {name for _, (_, name, _) in CASES}


def test_passing_checks_format_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(SheafType, "__str__", lambda t: calls.append(t) or "?")
    report = verify_trace(reduce(GenusContext(3), SheafType(12, 8)))
    assert report.ok and len(report.checks) > 40
    assert all(c.detail == "" for c in report.checks)
    assert calls == []


def _root_h1(trace, h1):
    return replace(trace, root=replace(trace.root, sol=replace(trace.root.sol, h1=h1)))


HECKE_TRACES = [
    TRACE,
    reduce(GenusContext(2), SheafType(6, 4)),
    reduce(GenusContext(3), SheafType(9, 6)),
]


@pytest.mark.parametrize("h1", [1, 2, 3, 4, 6, 9, 10**40 + 1])
def test_hecke_divisibility_passes_for_every_positive_h1(h1):
    # hcf(h1, h) divides h for every h1 >= 1, however wrong h1 is elsewhere
    for trace in HECKE_TRACES:
        report = verify_trace(_root_h1(trace, h1), strict=False)
        assert "hecke_divisibility" not in report.failed_names()


@pytest.mark.parametrize("h1", [0, -1, -6])
def test_hecke_divisibility_fails_only_as_not_evaluable(h1):
    for trace in HECKE_TRACES:
        report = verify_trace(_root_h1(trace, h1), strict=False)
        hecke = [c for c in report.failures() if c.name == "hecke_divisibility"]
        assert [c.path for c in hecke] == ["root"]
        assert hecke[0].detail.startswith("not evaluable: ")


DEEP = reduce(GenusContext(2), SheafType(12, 7))
MU1_MAPS = DEEP.root.mu1.det_maps
DIFFER = "stored determinant segments differ from the re-derived ones"


def _not_evaluable(kind):
    return f"not evaluable: '{kind}' object has no attribute 'sign'"


@pytest.mark.parametrize(
    "det_maps,root_detail",
    [
        (list(MU1_MAPS), None),
        (MU1_MAPS[:3], DIFFER),
        (MU1_MAPS + (MU1_MAPS[0],), DIFFER),
        ((*MU1_MAPS[:3], (MU1_MAPS[3].sign, MU1_MAPS[3].shift)), _not_evaluable("tuple")),
        ((*MU1_MAPS[:3], SimpleNamespace(sign=MU1_MAPS[3].sign, shift=MU1_MAPS[3].shift)), None),
        ((MU1_MAPS[0], 7, *MU1_MAPS[2:]), _not_evaluable("int")),
        ((*MU1_MAPS[:3], None), _not_evaluable("NoneType")),
    ],
    ids=["list", "three", "five", "pair", "lookalike", "int", "none"],
)
def test_det_maps_that_are_not_a_tuple_of_four_maps_differ(det_maps, root_detail):
    """Stored segments that are not a tuple of four DegreeAffineMaps differ
    from the re-derived ones, even where a pair or a look-alike object holds
    the same values.  The parent folds them into its own expected segments:
    a list or a look-alike folds to the same map, so the parent passes; a
    wrong count folds to another map; a non-map cannot be folded, so the
    parent's check is not evaluable."""
    trace = replace(DEEP, root=replace(DEEP.root, mu1=replace(DEEP.root.mu1, det_maps=det_maps)))
    failures = [(c.path, c.name, c.detail) for c in verify_trace(trace, strict=False).failures()]
    expected = [("root.mu1", "det_segments", DIFFER)]
    if root_detail is not None:
        expected.insert(0, ("root", "det_segments", root_detail))
    assert failures == expected
    assert not trace_ok(trace, {})
