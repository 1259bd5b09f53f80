"""Lossless JSON serialization of reduction traces.

Document schema (version 1):

    { "version": 1, "genus": g, "input": {"rank": r, "degree": d}, "h": h,
      "total_affine_dim": n, "composite_det": {"sign": s, "shift": c},
      "root": node }

    node = { "kind": "base", "rank": r, "degree": d, "twist_degree": e }
         | { "kind": "composite", "rF": .., "dF": .., "r1": .., "d1": ..,
             "h1": .., "rkV": .., "rho_affine": .., "hecke_affine": ..,
             "det_maps": [ {"sign": s, "shift": c}, ... ],
             "mu1": node, "mu2": node }

Composite nodes do not store their own (rank, degree); it is derived
top-down (the root's type is the input, a mu1 child has type (r1, d1), a mu2
child has type (h1, -hcf(parent))).  Parsing checks the shape and that these
types are sheaf types; a document with otherwise tampered numbers parses
fine and is rejected later by verify_trace.

dumps writes the document text straight from the tree, in one explicit-stack
pass: each node becomes a few pieces in the schema's sorted key order, and
the indentation of each level is one shared string.  Its bytes equal
``json.dumps(trace_to_dict(trace), indent=2, sort_keys=True) + "\\n"`` (plus a
"valid" verdict when asked for), so output is deterministic and
re-serialization is byte-stable.  trace_to_dict builds the same document as
objects, for callers that edit it.  Emitted integers are plain JSON numbers;
consumers limited to 64-bit integers must keep inputs small enough that every
field fits, which holds for any desk-scale genus/rank/degree.  Documents are
read as UTF-8 only, from bytes and files alike.

A document is the one place a tree's depth is bounded: dumps refuses a tree
deeper than MAX_TREE_DEPTH with a DomainError and loads with a ParseError.
The comment at MAX_TREE_DEPTH gives the reason.  reduce, the verifier and
text output take trees of any depth.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any

from .affine import DegreeAffineMap
from .diophantine import LemmaSolution
from .errors import BunredError, DomainError, ParseError
from .reduction import BaseStep, CompositeStep, ReductionTrace, StepNode, node_depth
from .types import SheafType

SCHEMA_VERSION = 1


def trace_to_dict(trace: ReductionTrace) -> dict[str, Any]:
    """The trace as a document: one fresh object per node occurrence, made
    with an explicit stack, so no depth meets the recursion limit."""
    doc: dict[str, Any] = {
        "version": SCHEMA_VERSION,
        "genus": trace.genus,
        "input": {"rank": trace.input.rank, "degree": trace.input.degree},
        "h": trace.h,
        "total_affine_dim": trace.total_affine_dim,
        "composite_det": _map_to_dict(trace.composite_det),
    }
    # (node, the object its document goes in, under which key); mu1 is popped
    # first, so every object keeps the key order of the schema
    todo: list[tuple[StepNode, dict[str, Any], str]] = [(trace.root, doc, "root")]
    while todo:
        node, parent, key = todo.pop()
        if isinstance(node, BaseStep):
            parent[key] = {
                "kind": "base",
                "rank": node.t.rank,
                "degree": node.t.degree,
                "twist_degree": node.twist_degree,
            }
            continue
        sol = node.sol
        parent[key] = out = {
            "kind": "composite",
            "rF": sol.rF,
            "dF": sol.dF,
            "r1": sol.r1,
            "d1": sol.d1,
            "h1": sol.h1,
            "rkV": node.rkV,
            "rho_affine": node.rho_affine,
            "hecke_affine": node.hecke_affine,
            "det_maps": [_map_to_dict(m) for m in node.det_maps],
        }
        todo.append((node.mu2, out, "mu2"))
        todo.append((node.mu1, out, "mu1"))
    return doc


def _map_to_dict(m: DegreeAffineMap) -> dict[str, int]:
    return {"sign": m.sign, "shift": m.shift}


def _need(doc: Any, key: str, loc: str) -> Any:
    if not isinstance(doc, dict):
        raise ParseError(loc, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise ParseError(loc, f"missing key '{key}'")
    return doc[key]


def _need_int(doc: Any, key: str, loc: str) -> int:
    v = _need(doc, key, loc)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"{loc}.{key}", f"expected an integer, got {v!r}")
    return v


def _construct(make, a: int, b: int, loc: str, lead: str = "") -> Any:
    """make(a, b), for a constructor that checks its fields (SheafType,
    DegreeAffineMap), or a ParseError at loc: lead, then why.  The caller
    reads the fields first, so their own errors are not wrapped."""
    try:
        return make(a, b)
    except BunredError as exc:
        raise ParseError(loc, f"{lead}{exc}") from exc


def _map_from_dict(doc: Any, loc: str) -> DegreeAffineMap:
    return _construct(
        DegreeAffineMap, _need_int(doc, "sign", loc), _need_int(doc, "shift", loc), loc
    )


def trace_from_dict(doc: Any) -> ReductionTrace:
    loc = "$"
    version = _need_int(doc, "version", loc)
    if version != SCHEMA_VERSION:
        raise ParseError(f"{loc}.version", f"unsupported version {version}")
    genus = _need_int(doc, "genus", loc)
    input_doc = _need(doc, "input", loc)
    t = _construct(
        SheafType,
        _need_int(input_doc, "rank", f"{loc}.input"),
        _need_int(input_doc, "degree", f"{loc}.input"),
        f"{loc}.input",
    )
    root = _node_from_dict(doc, "root", t, loc)
    return ReductionTrace(
        genus=genus,
        input=t,
        h=_need_int(doc, "h", loc),
        root=root,
        total_affine_dim=_need_int(doc, "total_affine_dim", loc),
        composite_det=_map_from_dict(_need(doc, "composite_det", loc), f"{loc}.composite_det"),
    )


def _node_from_dict(parent: Any, key: str, t: SheafType, loc: str) -> StepNode:
    """The tree whose document is parent[key], its root of type t; loc is
    the location of parent.

    One loop, no recursion.  The document is read in pre-order (a node's own
    fields, then its mu1 subtree, then its mu2 subtree), and a node's mu2 is
    looked up only once its mu1 subtree has been read, so the first fault
    reported is the one a depth-first reading meets first.  Nodes are made
    in post-order, each composite from the two nodes last made.
    """
    made: list[StepNode] = []
    # Popped from the end: (parent, key, type, loc) reads the node at
    # parent[key]; a dict holds the own fields of a composite node, which is
    # made once both of its children are.
    todo: list[Any] = [(parent, key, t, loc)]
    while todo:
        item = todo.pop()
        if item.__class__ is dict:
            mu2 = made.pop()
            mu1 = made.pop()
            made.append(CompositeStep(mu1=mu1, mu2=mu2, **item))
            continue
        parent, key, t, loc = item
        doc = _need(parent, key, loc)
        loc = f"{loc}.{key}"
        kind = _need(doc, "kind", loc)
        if kind == "base":
            own = _construct(
                SheafType, _need_int(doc, "rank", loc), _need_int(doc, "degree", loc), loc
            )
            made.append(BaseStep(t=own, twist_degree=_need_int(doc, "twist_degree", loc)))
            continue
        if kind != "composite":
            raise ParseError(f"{loc}.kind", f"expected 'base' or 'composite', got {kind!r}")

        sol = LemmaSolution(
            rF=_need_int(doc, "rF", loc),
            dF=_need_int(doc, "dF", loc),
            r1=_need_int(doc, "r1", loc),
            d1=_need_int(doc, "d1", loc),
            h=math.gcd(t.rank, t.degree),
            h1=_need_int(doc, "h1", loc),
        )
        maps_doc = _need(doc, "det_maps", loc)
        if not isinstance(maps_doc, list):
            raise ParseError(f"{loc}.det_maps", "expected a list")
        det_maps = tuple(
            _map_from_dict(m, f"{loc}.det_maps[{i}]") for i, m in enumerate(maps_doc)
        )
        t1 = _construct(SheafType, sol.r1, sol.d1, loc, "child types are not representable: ")
        t2 = _construct(SheafType, sol.h1, -sol.h, loc, "child types are not representable: ")
        todo.append(
            {
                "t": t,
                "sol": sol,
                "rkV": _need_int(doc, "rkV", loc),
                "rho_affine": _need_int(doc, "rho_affine", loc),
                "hecke_affine": _need_int(doc, "hecke_affine", loc),
                "det_maps": det_maps,
            }
        )
        todo.append((doc, "mu2", t2, loc))
        todo.append((doc, "mu1", t1, loc))
    return made[0]


def int_limit_error() -> DomainError:
    """The error for a result with an integer longer than Python's int-to-str
    limit, which no writer can print."""
    return DomainError(
        f"a result has an integer of more than {sys.get_int_max_str_digits()} "
        "digits, the int-to-str limit (sys.get_int_max_str_digits())"
    )


# Deepest tree a trace document holds, read and written alike: dumps refuses
# a deeper tree with a DomainError and loads with a ParseError, so how deep a
# document may be does not depend on the interpreter.  Its reason is
# json.loads, which recurses once per nesting level of a document: about
# 1,000 levels on Python 3.10 and 3.11 (the recursion limit, shared with the
# caller's frames), 1,500 on 3.12 and 10,000 on 3.13.  The document of a tree
# this deep nests 942 levels (the document, one object per tree level, and a
# determinant-map list and object below the deepest composite), so on 3.10
# and 3.11 it still loads at the default recursion limit of 1,000 when called
# from up to about 50 frames deep.  A tree has about 1.5 levels per decimal
# digit of the rank for a random degree and about 3.3 with degree -1, so this
# admits most ranks of up to about 600 digits, but only about 280 with
# degree -1.
MAX_TREE_DEPTH = 940


def dumps(trace: ReductionTrace, *, valid: bool | None = None) -> str:
    """The trace's document: sorted keys, two-space indent, trailing newline.

    The bytes equal ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` for
    ``doc = trace_to_dict(trace)``, with ``doc["valid"] = valid`` when valid
    is given, so re-serialization is byte-stable.  Every field must be a
    plain int (not a bool), as reduce and loads make them.  The text is written
    straight from the tree, one explicit-stack pass in pre-order, so no depth
    meets the recursion limit and no document object is built.  An integer
    longer than the int-to-str limit raises a DomainError (int_limit_error),
    and so does a tree deeper than MAX_TREE_DEPTH, checked at each node's
    own level (the root's is 1).
    """
    m, t = trace.composite_det, trace.input
    # breaks[k]: a line break and k levels of indent, one string shared by
    # every line at that level and written as a part of its own
    breaks = ["\n", "\n  "]
    try:
        parts = [
            f'{{\n  "composite_det": {{\n    "shift": {m.shift},\n    "sign": {m.sign}\n  }},'
            f'\n  "genus": {trace.genus},\n  "h": {trace.h},'
            f'\n  "input": {{\n    "degree": {t.degree},\n    "rank": {t.rank}\n  }},'
            '\n  "root": '
        ]
        # Popped from the end: a list holds parts written as they are, a pair
        # (node, k) writes the node whose key is at indent level k.
        todo: list[Any] = [(trace.root, 1)]
        while todo:
            item = todo.pop()
            if item.__class__ is list:
                parts += item
                continue
            node, k = item
            if k > MAX_TREE_DEPTH:
                raise DomainError(
                    "the reduction tree is deeper than the recursion limit of json.loads "
                    f"allows: a trace document holds at most {MAX_TREE_DEPTH} levels, about "
                    "600 digits of rank for a random degree and 280 for degree -1"
                )
            while len(breaks) < k + 4:
                breaks.append(breaks[-1] + "  ")
            ind = breaks[k + 1]
            if isinstance(node, BaseStep):
                parts += (
                    "{", ind, f'"degree": {node.t.degree},', ind, '"kind": "base",',
                    ind, f'"rank": {node.t.rank},', ind, f'"twist_degree": {node.twist_degree}',
                    breaks[k], "}",
                )
                continue
            sol = node.sol
            parts += ("{", ind, f'"d1": {sol.d1},', ind, f'"dF": {sol.dF},', ind, '"det_maps": ')
            if node.det_maps:
                map_ind, field_ind = breaks[k + 2], breaks[k + 3]
                sep = "["
                for dm in node.det_maps:
                    parts += (
                        sep, map_ind, "{", field_ind, f'"shift": {dm.shift},',
                        field_ind, f'"sign": {dm.sign}', map_ind, "}",
                    )
                    sep = ","
                parts += (ind, "],")
            else:
                parts.append("[],")
            parts += (
                ind, f'"h1": {sol.h1},', ind, f'"hecke_affine": {node.hecke_affine},',
                ind, '"kind": "composite",', ind, '"mu1": ',
            )
            todo.append([
                ",", ind, f'"r1": {sol.r1},', ind, f'"rF": {sol.rF},',
                ind, f'"rho_affine": {node.rho_affine},', ind, f'"rkV": {node.rkV}',
                breaks[k], "}",
            ])
            todo.append((node.mu2, k + 1))
            todo.append([",", ind, '"mu2": '])
            todo.append((node.mu1, k + 1))
        parts.append(f',\n  "total_affine_dim": {trace.total_affine_dim},')
    except ValueError:
        # from formatting an integer longer than the int-to-str limit
        raise int_limit_error() from None
    if valid is not None:
        parts.append('\n  "valid": true,' if valid else '\n  "valid": false,')
    parts.append(f'\n  "version": {SCHEMA_VERSION}\n}}\n')
    return "".join(parts)


def loads(text: str | bytes) -> ReductionTrace:
    """The trace of a document; bytes are read as UTF-8, as load reads files.

    A tree deeper than MAX_TREE_DEPTH is refused as a ParseError, so loads
    reads the trees dumps writes and no deeper ones (see MAX_TREE_DEPTH).
    Two limits remain, both from json.loads: on Python 3.10 and 3.11 a
    document of nearly MAX_TREE_DEPTH levels loads only from a shallow
    stack, and nesting under keys the schema never reads is bounded only by
    what json.loads reads.
    """
    if isinstance(text, (bytes, bytearray)):
        text = _utf8(text)
    try:
        trace = trace_from_dict(json.loads(text))
        if node_depth(trace.root) > MAX_TREE_DEPTH:
            raise RecursionError
    except json.JSONDecodeError as exc:
        raise ParseError(f"$ (offset {exc.pos})", exc.msg) from exc
    except RecursionError:
        # from json.loads, the one reader that recurses (in C, once per
        # nesting level), or from a tree deeper than dumps writes: one error
        # for a document nested too deeply to read or to hold
        raise ParseError("$", "document nested too deeply") from None
    except ValueError:
        # from json.loads (trace_from_dict raises only ParseError): an integer
        # longer than Python's int-to-str limit
        raise ParseError(
            "$", f"integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None
    return trace


def _utf8(data: bytes | bytearray) -> str:
    """The document's bytes read as UTF-8, or a ParseError at the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            "$", f"the text is not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None


def dump(trace: ReductionTrace, path: str) -> None:
    """Write the trace's document to path; a trace dumps refuses leaves the
    file as it was."""
    text = dumps(trace)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load(path: str) -> ReductionTrace:
    with open(path, "rb") as f:
        data = f.read()
    # decoded here, not in loads: bench/tracer.py's loads hook counts a str
    return loads(_utf8(data))
