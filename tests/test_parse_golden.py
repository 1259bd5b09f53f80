"""Golden pin of the parser's error messages.

Every object of the trace documents of the grid genus 2..3, rank <= 6,
|degree| <= 6 (the document itself, `input`, `composite_det`, every node and
every determinant map) is edited once per key in three ways: the key is
deleted, its value is set to a string, and its value is set to a list.  Each
edited document is parsed with trace_from_dict, and the ordered list of
outcomes (`str(exc)` of the ParseError, or "ok" when it parses) is hashed.

The digest was first recorded from the recursive parser, so any change to
which error is reported first, or to its location or text, shows here.  It
was recorded again once a field error of `input` or of a base node stopped
being wrapped in a second ParseError at the same location: exactly 3,024
outcomes changed, each only by losing its duplicated leading location.
"""

import hashlib

from bunred import GenusContext, ParseError, SheafType, reduce, trace_from_dict, trace_to_dict

EDITS = 17100
DIGEST = "990ab3db0138bef2735e8f2e2b25300e6df4a39c79e4be125bd90610aaa890b4"

_MISSING = object()


def _objects(doc):
    """Every object of the document, in pre-order with sorted keys."""
    stack = [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            yield value
            members = [value[key] for key in sorted(value)]
        else:
            members = value
        stack.extend(m for m in reversed(members) if isinstance(m, (dict, list)))


def _outcome(doc):
    try:
        trace_from_dict(doc)
    except ParseError as exc:
        return str(exc)
    return "ok"


def test_parse_errors_are_pinned():
    digest = hashlib.sha256()
    edits = 0
    for g in (2, 3):
        ctx = GenusContext(g)
        for r in range(1, 7):
            for d in range(-6, 7):
                doc = trace_to_dict(reduce(ctx, SheafType(r, d)))
                for obj in list(_objects(doc)):
                    for key in sorted(obj):
                        value = obj[key]
                        for edit in (_MISSING, "0", [1]):
                            if edit is _MISSING:
                                del obj[key]
                            else:
                                obj[key] = edit
                            digest.update(f"{_outcome(doc)}\n".encode())
                            obj[key] = value
                            edits += 1
    assert (edits, digest.hexdigest()) == (EDITS, DIGEST)
