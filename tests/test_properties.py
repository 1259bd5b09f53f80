"""Property tests of reduce and the trace document on ranks of up to about
100 digits."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bunred import GenusContext, SheafType, dumps, loads, node_depth, reduce  # noqa: E402
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
