"""Property tests of reduce, the trace document and the verifier on ranks of
up to about 100 digits."""

import json
import math
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bunred import (  # noqa: E402
    CompositeStep,
    GenusContext,
    ParseError,
    SheafType,
    dumps,
    loads,
    node_depth,
    reduce,
    trace_from_dict,
    trace_ok,
    trace_to_dict,
    verify_trace,
)
from bunred.reduction import MAX_TREE_DEPTH  # noqa: E402

genera = st.integers(2, 6)


@st.composite
def types(draw):
    """(rank, degree) with a rank of 1 to 100 digits, the number of digits
    drawn first so that big ranks are as likely as small ones."""
    digits = draw(st.integers(1, 100))
    r = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
    return r, draw(st.integers(-(10**digits), 10**digits))


@settings(max_examples=40, deadline=None)
@given(genera, types())
def test_total_affine_dimension(g, t):
    r, d = t
    h = math.gcd(r, d)
    assert reduce(GenusContext(g), SheafType(r, d)).total_affine_dim == (g - 1) * (r * r - h * h)


@settings(max_examples=40, deadline=None)
@given(genera, types())
def test_composite_det_sends_degree_to_zero(g, t):
    r, d = t
    assert reduce(GenusContext(g), SheafType(r, d)).composite_det.apply(d) == 0


@settings(max_examples=40, deadline=None)
@given(genera, types())
def test_depth_is_at_most_rank_and_bound(g, t):
    r, d = t
    assert node_depth(reduce(GenusContext(g), SheafType(r, d)).root) <= min(r, MAX_TREE_DEPTH)


@settings(max_examples=25, deadline=None)
@given(genera, types())
def test_round_trip_is_byte_stable(g, t):
    r, d = t
    text = dumps(reduce(GenusContext(g), SheafType(r, d)))
    assert dumps(loads(text)) == text


@settings(max_examples=25, deadline=None)
@given(genera, types(), st.sampled_from((None, True, False)))
def test_dumps_matches_stdlib(g, t, valid):
    r, d = t
    trace = reduce(GenusContext(g), SheafType(r, d))
    doc = trace_to_dict(trace)
    if valid is not None:
        doc["valid"] = valid
    assert dumps(trace, valid=valid) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _int_fields(doc):
    """Where the document holds an integer, as (container, key) pairs."""
    fields, todo = [], [doc]
    while todo:
        obj = todo.pop()
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            if isinstance(value, (dict, list)):
                todo.append(value)
            elif isinstance(value, int) and not isinstance(value, bool) and key != "version":
                fields.append((obj, key))
    return fields


def _sharing(bad, good):
    """bad with each subtree equal to one of good's replaced by good's node,
    so that only the nodes over a changed field are new objects."""
    pool, todo = {}, [good.root]
    while todo:
        node = todo.pop()
        pool.setdefault(node, node)
        if isinstance(node, CompositeStep):
            todo += [node.mu1, node.mu2]
    # post-order, so that a node is rebuilt over its children's replacements
    new, todo = {}, [bad.root]
    while todo:
        node = todo[-1]
        children = (node.mu1, node.mu2) if isinstance(node, CompositeStep) else ()
        missing = [c for c in children if id(c) not in new]
        if missing:
            todo += missing
            continue
        todo.pop()
        rebuilt = node
        if children:
            rebuilt = replace(node, mu1=new[id(node.mu1)], mu2=new[id(node.mu2)])
        new[id(node)] = pool.get(rebuilt, rebuilt)
    return replace(bad, root=new[id(bad.root)])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 40), st.data())
def test_ok_only_verdict_and_memo_on_one_changed_field(g, digits, data):
    r = data.draw(st.integers(10 ** (digits - 1), 10**digits - 1))
    d = data.draw(st.integers(-r, r))
    good = reduce(GenusContext(g), SheafType(r, d))
    doc = trace_to_dict(good)
    fields = _int_fields(doc)
    obj, key = fields[data.draw(st.integers(0, len(fields) - 1))]
    obj[key] += data.draw(st.sampled_from((-1, 1)))
    try:
        bad = trace_from_dict(doc)
    except ParseError:
        return  # not representable: caught before verification
    ok = verify_trace(bad, strict=False).ok
    fresh = {}
    assert trace_ok(bad, fresh) == ok
    assert ok or not fresh
    memo = {}
    assert trace_ok(good, memo)
    before = dict(memo)
    assert trace_ok(_sharing(bad, good), memo) == ok
    assert ok or memo == before
