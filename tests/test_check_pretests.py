"""Four checks, each stated once on plain values, decide what their rules decide.

child_types, hom_bundle_rank, hecke_divisibility and composite_det state
their rules on the plain values a node holds, where the rules are about
sheaf types and determinant maps.  The rules' expressions through
SheafType, euler_form and DegreeAffineMap are kept here as oracles, which
receive the genus as an int, as the checks do.  Each live check is called
through the verifier's own pass, and on the same arguments it must return
the same str as its oracle, or raise an exception of the same class with
the same text, on:

- every certificate of the grid genus 2..3, rank <= 6, |degree| <= 6 and
  every +-1 change of one of its integers;
- the tamperings of test_verify_details (CASES and WRONG_KIND);
- in-memory values of the wrong kind in the window solution, in a child's
  type and in the stored composite.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest
from test_check_contract import _grid, _int_paths
from test_verify_details import CASES, WRONG_KIND

from bunred import DegreeAffineMap, GenusContext, ParseError, SheafType, reduce
from bunred import reduction, trace_from_dict, trace_to_dict
from bunred.euler import euler_form
from bunred.reduction import node_composite_det
from bunred.types import hcf_of_type


def _oracle_hom_bundle_rank(g, n, s, r, d, h):
    return (
        ""
        if n.rkV == euler_form(GenusContext(g), SheafType(s.r1, s.d1), SheafType(s.rF, s.dF))
        else f"stored rkV={n.rkV} is not chi((r1,d1),(rF,dF))"
    )


def _oracle_hecke_divisibility(g, n, s, r, d, h):
    return (
        ""
        if h % hcf_of_type(SheafType(s.h1, -h)) == 0
        else f"hcf({s.h1},{h}) does not divide {h}"
    )


def _oracle_child_types(g, n, s, r, d, h):
    return (
        ""
        if n.mu1.t == SheafType(s.r1, s.d1) and n.mu2.t == SheafType(s.h1, -h)
        else f"children are {n.mu1.t}, {n.mu2.t}; expected ({s.r1},{s.d1}), ({s.h1},{-h})"
    )


def _oracle_composite_det(tr):
    recomputed = node_composite_det(tr.root)
    if tr.composite_det == recomputed:
        return ""
    return f"stored {tr.composite_det}, recomputed {recomputed}"


ORACLES = {
    "child_types": _oracle_child_types,
    "hom_bundle_rank": _oracle_hom_bundle_rank,
    "hecke_divisibility": _oracle_hecke_divisibility,
    "composite_det": _oracle_composite_det,
}


def _outcome(check, args):
    """(str, value) for a returned value, (class, text) for a raised one."""
    try:
        return str, check(*args)
    except Exception as exc:  # noqa: BLE001 - the verifier counts it failed
        return exc.__class__, str(exc)


def _compare(trace, seen):
    """Run the verifier's pass on trace, and at each of the four checks
    assert that the live check and its oracle agree.  Add (name, kind) to
    seen for each comparison, kind "pass", "fail" or "raise"."""

    def run(path, checks, args):
        held = True
        for name, check in checks:
            live = _outcome(check, args)
            if name in ORACLES:
                assert live == _outcome(ORACLES[name], args), (path, name)
                kind = "raise" if live[0] is not str else "fail" if live[1] else "pass"
                seen.add((name, kind))
            held = held and live == (str, "")
        return held

    reduction._check_trace(trace, run, {})


@pytest.mark.parametrize("g", [2, 3])
def test_pretests_agree_with_the_oracles_on_every_single_integer_edit(g):
    seen = set()
    edits = 0
    for trace in _grid(g):
        _compare(trace, seen)
        doc = trace_to_dict(trace)
        for path in _int_paths(doc):
            cursor = doc
            for key in path[:-1]:
                cursor = cursor[key]
            for delta in (-1, 1):
                cursor[path[-1]] += delta
                try:
                    bad = trace_from_dict(doc)
                except ParseError:
                    continue
                finally:
                    cursor[path[-1]] -= delta
                _compare(bad, seen)
                edits += 1
    assert edits > 2000
    assert {name for name, kind in seen if kind == "pass"} == set(ORACLES)
    assert {name for name, kind in seen if kind == "fail"} == set(ORACLES) - {
        "hecke_divisibility"
    }


def test_pretests_agree_with_the_oracles_on_the_pinned_tamperings():
    seen = set()
    for trace, _ in CASES + WRONG_KIND:
        _compare(trace, seen)
    assert {name for name, kind in seen if kind == "raise"} == set(ORACLES)


class _Int(int):
    """An int subclass: equal to an int, but not of class int."""


TRACES = [
    reduce(GenusContext(g), SheafType(r, d)) for g, r, d in [(2, 2, 1), (2, 12, 7), (3, 9, 6)]
]
WRONG_KINDS = [True, 2.0, None, "x", 0, -1, _Int(1)]


def _sol_edits(trace):
    """The trace with the root's rkV, and each field of its window solution
    that the checks read, set to each wrong kind and to its own value as
    a float and as an int subclass."""
    root = trace.root
    for value in WRONG_KINDS + [float(root.rkV), _Int(root.rkV)]:
        yield replace(trace, root=replace(root, rkV=value))
    for field in ("r1", "d1", "rF", "dF", "h1"):
        own = getattr(root.sol, field)
        for value in WRONG_KINDS + [float(own), _Int(own)]:
            yield replace(trace, root=replace(root, sol=replace(root.sol, **{field: value})))


def _child_edits(trace):
    """The trace with each of the root's children replaced by None, and with
    its type replaced by something that is not a SheafType of plain ints,
    equal or not."""
    root = trace.root
    for child in ("mu1", "mu2"):
        yield replace(trace, root=replace(root, **{child: None}))
        node = getattr(root, child)
        r, d = node.t.rank, node.t.degree
        for t in [
            SheafType(2.5, 1),
            SheafType(float(r), d),
            SheafType(r, float(d)),
            SheafType(True, d) if r == 1 else SheafType(_Int(r), d),
            SimpleNamespace(rank=r, degree=d),
            (r, d),
            None,
        ]:
            yield replace(trace, root=replace(root, **{child: replace(node, t=t)}))


class _SubMap(DegreeAffineMap):
    """A DegreeAffineMap subclass: not of class DegreeAffineMap."""


def _composite_edits(trace):
    """The trace with a stored composite, or the root's last segment, of a
    kind other than a DegreeAffineMap of plain ints."""
    m = trace.composite_det
    for stored in [
        DegreeAffineMap(float(m.sign), m.shift),
        DegreeAffineMap(m.sign, float(m.shift)),
        DegreeAffineMap(m.sign, _Int(m.shift)),
        DegreeAffineMap(m.sign, m.shift + 1),
        _SubMap(m.sign, m.shift),
        SimpleNamespace(sign=m.sign, shift=m.shift),
        (m.sign, m.shift),
        None,
    ]:
        yield replace(trace, composite_det=stored)
    maps = trace.root.det_maps
    last = maps[3]
    for segment in [
        SimpleNamespace(sign=last.sign, shift=float(last.shift)),
        SimpleNamespace(sign=2, shift=last.shift),
        SimpleNamespace(sign="x", shift=last.shift),
        None,
    ]:
        root = replace(trace.root, det_maps=(*maps[:3], segment))
        yield replace(trace, root=root)


@pytest.mark.parametrize("edits", [_sol_edits, _child_edits, _composite_edits])
def test_pretests_agree_with_the_oracles_on_values_of_the_wrong_kind(edits):
    seen = set()
    for trace in TRACES:
        for bad in edits(trace):
            _compare(bad, seen)
    assert {kind for _, kind in seen} == {"pass", "fail", "raise"}
