"""Exhaustive single-field corruption of serialized certificates.

Every integer field in a trace document is forced by (genus, input): the
window solution is unique, children and twists are determined, dimensions are
closed-form.  So corrupting any single field by +-1 must either make the
document unparseable or make verification fail.

The one exception is the top-level genus of a trace whose root is a base
step: such a certificate (a pure twist) is valid for every genus >= 2, so
changing the genus yields a different but genuinely valid certificate.

The ok-only verifier, trace_ok, must give verify_trace's verdict on every
such document, and its memo of passed subtrees must never let a corrupted
node through.
"""

from dataclasses import replace

import pytest

from bunred import (
    BaseStep,
    CompositeStep,
    DegreeAffineMap,
    GenusContext,
    ParseError,
    SheafType,
    compose_det,
    reduce,
    trace_from_dict,
    trace_ok,
    trace_to_dict,
    verify_trace,
)


def _int_paths(doc, prefix=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _int_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _int_paths(value, prefix + (i,))
    elif isinstance(doc, int) and not isinstance(doc, bool):
        yield prefix


def _with_delta(doc, path, delta):
    import copy

    out = copy.deepcopy(doc)
    cursor = out
    for key in path[:-1]:
        cursor = cursor[key]
    cursor[path[-1]] += delta
    return out


TRACES = [
    (GenusContext(2), SheafType(2, 1)),
    (GenusContext(2), SheafType(4, 2)),
    (GenusContext(3), SheafType(3, 1)),
    (GenusContext(2), SheafType(6, 4)),
    (GenusContext(2), SheafType(3, 0)),
]


@pytest.mark.parametrize("ctx,t", TRACES, ids=lambda v: str(v))
def test_every_field_corruption_is_caught(ctx, t):
    trace = reduce(ctx, t)
    doc = trace_to_dict(trace)
    base_only = isinstance(trace.root, BaseStep)
    corrupted_fields = 0
    for path in _int_paths(doc):
        if path == ("version",):
            continue  # version bumps are rejected at parse; not a tamper case
        for delta in (-1, 1):
            if path == ("genus",) and base_only and doc["genus"] + delta >= 2:
                continue  # a twist certificate is valid at every genus >= 2
            bad_doc = _with_delta(doc, path, delta)
            try:
                bad = trace_from_dict(bad_doc)
            except ParseError:
                corrupted_fields += 1
                continue  # structurally unrepresentable: also caught
            report = verify_trace(bad, strict=False)
            assert not report.ok, f"corrupting {path} by {delta} went undetected"
            assert not trace_ok(bad, {})
            corrupted_fields += 1
    assert corrupted_fields >= 10


@pytest.mark.parametrize("g", [2, 3])
def test_ok_only_verdict_equals_the_report_on_a_grid(g):
    """Every +-1 change of one integer of every g, r <= 6, |d| <= 6 document."""
    compared = passed = 0
    for r in range(1, 7):
        for d in range(-6, 7):
            trace = reduce(GenusContext(g), SheafType(r, d))
            assert trace_ok(trace, {})
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
                        bad = None
                    finally:
                        cursor[path[-1]] -= delta
                    if bad is None:
                        continue
                    ok = verify_trace(bad, strict=False).ok
                    assert trace_ok(bad, {}) == ok, (r, d, path, delta)
                    compared += 1
                    passed += ok
    # the valid ones are the genus changes of twist certificates (r | d)
    assert compared > 2000 and 0 < passed < 100


def _path_to_a_bottom_composite(trace):
    """Root to a composite node whose children are base steps, taking the
    first composite child at each level."""
    path = [trace.root]
    while True:
        below = [c for c in (path[-1].mu1, path[-1].mu2) if isinstance(c, CompositeStep)]
        if not below:
            return path
        path.append(below[0])


def _with_node(trace, path, node):
    """trace with path[-1] replaced by node; the nodes off the path are shared."""
    for parent, child in zip(path[-2::-1], path[:0:-1]):
        node = replace(parent, **{"mu1" if parent.mu1 is child else "mu2": node})
    return replace(trace, root=node)


def test_memo_never_passes_a_parent_of_a_failed_node():
    ctx = GenusContext(2)
    trace = reduce(ctx, SheafType(12, 7))
    path = _path_to_a_bottom_composite(trace)
    assert len(path) >= 3
    # rkV is read by no check of the parent, so only the node itself fails
    bad = _with_node(trace, path, replace(path[-1], rkV=path[-1].rkV + 1))
    verified = {}
    assert not verify_trace(bad, strict=False).ok
    assert not trace_ok(bad, verified)

    # a second trace rooted at the tampered node's parent, every stored
    # total right: the parent passed its own checks in the first call
    parent = _path_to_a_bottom_composite(bad)[-2]
    assert parent.t == path[-2].t and parent is not path[-2]
    second = replace(reduce(ctx, parent.t), root=parent)
    assert not verify_trace(second, strict=False).ok
    assert not trace_ok(second, verified)

    # once the untampered trace has passed, the subtrees it shares with the
    # tampered one are in the memo; the tampered one still fails
    assert trace_ok(trace, verified)
    assert any((2, id(child)) in verified for child in (bad.root.mu1, bad.root.mu2))
    assert not trace_ok(bad, verified)
    assert not trace_ok(second, verified)


def test_memo_is_kept_per_genus():
    verified = {}
    for t in (SheafType(12, 7), SheafType(3, 0)):  # a composite tree, a twist
        trace = reduce(GenusContext(2), t)
        assert trace_ok(trace, verified)
        other = replace(trace, genus=3)
        assert trace_ok(other, verified) == verify_trace(other, strict=False).ok

    # A genus-3 tree over a kernel subtree built at genus 2 and a Hecke
    # subtree built at genus 12.  Their affine dimensions are off by
    # -(9^2 - 3^2) and +9 (3^2 - 1^2), which cancel, so every check of the
    # root and of the trace holds: only the subtrees' own checks, at genus 3,
    # fail.  Both passed at their own genus first.
    trace = reduce(GenusContext(3), SheafType(10, -1))
    root = trace.root
    assert (root.mu1.t, root.mu2.t) == (SheafType(9, -39), SheafType(3, -1))
    mu1 = reduce(GenusContext(2), root.mu1.t)
    mu2 = reduce(GenusContext(12), root.mu2.t)
    assert trace_ok(mu1, verified) and trace_ok(mu2, verified)
    maps = (root.det_maps[0], mu1.composite_det, root.det_maps[2], mu2.composite_det)
    mixed = replace(
        trace,
        root=replace(root, mu1=mu1.root, mu2=mu2.root, det_maps=maps),
        composite_det=compose_det(maps),
    )
    report = verify_trace(mixed, strict=False)
    assert report.failed_names() == {"euler_equation", "hom_bundle_rank", "dimension_identity"}
    assert all(c.path.startswith(("root.mu1", "root.mu2")) for c in report.failures())
    assert not trace_ok(mixed, verified)


DET_DETAIL = "stored determinant segments differ from the re-derived ones"


@pytest.mark.parametrize("segment", range(4))
@pytest.mark.parametrize("deeper", [False, True], ids=["root", "deeper"])
def test_negated_segment_sign_fails_det_segments(segment, deeper):
    """A segment whose sign is negated and shift kept.

    The +-1 changes above cannot make one: they turn a sign into 0 or 2,
    which loads refuses, so the sign is flipped on the frozen tree.
    """
    trace = reduce(GenusContext(2), SheafType(12, 7))
    path = _path_to_a_bottom_composite(trace)
    where = "root.mu1.mu1.mu2"
    if not deeper:
        path, where = path[:1], "root"
    node = path[-1]
    assert node.t == (SheafType(4, -2) if deeper else trace.input)
    maps = list(node.det_maps)
    maps[segment] = DegreeAffineMap(-maps[segment].sign, maps[segment].shift)
    bad = _with_node(trace, path, replace(node, det_maps=tuple(maps)))

    failures = [(c.path, c.name, c.detail) for c in verify_trace(bad, strict=False).failures()]
    assert (where, "det_segments", DET_DETAIL) in failures
    assert not trace_ok(bad, {})
    verified = {}
    assert trace_ok(trace, verified)  # warms the memo with every untampered node
    assert not trace_ok(bad, verified)
