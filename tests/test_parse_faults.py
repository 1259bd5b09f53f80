"""Golden pin of which fault the parser reports when a node has two.

test_parse_golden edits one field per document, so it does not pin the
order in which a node's fields are read.  Here every composite node, base
node and determinant map of the trace documents of the grid genus 2..3,
rank <= 6, |degree| <= 6 is edited twice over: for each ordered pair of its
keys, the first is set to "0" and the second deleted; and each key alone is
set to true.  The ordered list of outcomes (`str(exc)` of the ParseError, or
"ok" when the document parses) is hashed.  The digest was recorded from the
reader that ran the checked reads on every field.

The other tests read documents whose objects are a dict subclass and whose
integers are an int subclass, which parse to the plain document's trace,
and documents with a bool where an integer belongs, which are refused.
"""

import hashlib

import pytest
from test_parse_golden import _objects, _outcome

from bunred import GenusContext, ParseError, SheafType, reduce, trace_from_dict, trace_to_dict

EDITS = 27136
DIGEST = "cfa7f32863d81bb98ead4861ab6ed0b5335c26ae49de899dd8b3d5b352d3223b"


def _edits(obj):
    """Each edit of obj as ({key: value}, [deleted keys])."""
    keys = sorted(obj)
    for a in keys:
        yield {a: True}, []
        for b in keys:
            if b != a:
                yield {a: "0"}, [b]


def test_two_faults_in_a_node_are_pinned():
    digest = hashlib.sha256()
    edits = 0
    for g in (2, 3):
        ctx = GenusContext(g)
        for r in range(1, 7):
            for d in range(-6, 7):
                doc = trace_to_dict(reduce(ctx, SheafType(r, d)))
                # the nodes and determinant maps, in pre-order with sorted keys
                for obj in list(_objects(doc["root"])):
                    saved = dict(obj)
                    for sets, deletes in _edits(obj):
                        obj.update(sets)
                        for key in deletes:
                            del obj[key]
                        digest.update(f"{_outcome(doc)}\n".encode())
                        obj.clear()
                        obj.update(saved)
                        edits += 1
    assert (edits, digest.hexdigest()) == (EDITS, DIGEST)


class _Dict(dict):
    pass


class _Int(int):
    pass


def _subclassed(value):
    """value with each object a _Dict and each integer (not bool) an _Int."""
    if isinstance(value, dict):
        return _Dict((k, _subclassed(v)) for k, v in value.items())
    if isinstance(value, list):
        return [_subclassed(v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return _Int(value)
    return value


@pytest.mark.parametrize("g,r,d", [(2, 2, 1), (2, 12, 5), (3, 6, 4), (4, 9, -6)])
def test_subclassed_objects_and_integers_parse_to_the_same_trace(g, r, d):
    trace = reduce(GenusContext(g), SheafType(r, d))
    doc = _subclassed(trace_to_dict(trace))
    assert isinstance(doc["root"], _Dict) and isinstance(doc["root"]["rF"], _Int)
    assert trace_from_dict(doc) == trace


@pytest.mark.parametrize(
    "path,location",
    [
        (("root", "rF"), "$.root.rF"),
        (("root", "hecke_affine"), "$.root.hecke_affine"),
        (("root", "det_maps", 0, "sign"), "$.root.det_maps[0].sign"),
        (("root", "det_maps", 0, "shift"), "$.root.det_maps[0].shift"),
        (("root", "mu1", "rank"), "$.root.mu1.rank"),
        (("root", "mu1", "twist_degree"), "$.root.mu1.twist_degree"),
        (("root", "mu2", "rkV"), "$.root.mu2.rkV"),
    ],
)
@pytest.mark.parametrize("subclassed", [False, True], ids=["plain", "subclassed"])
def test_a_bool_is_not_an_integer(path, location, subclassed):
    doc = trace_to_dict(reduce(GenusContext(2), SheafType(12, 5)))
    if subclassed:
        doc = _subclassed(doc)
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = True
    with pytest.raises(ParseError) as exc:
        trace_from_dict(doc)
    assert str(exc.value) == f"{location}: expected an integer, got True"
