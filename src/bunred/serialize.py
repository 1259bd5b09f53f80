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
child has type (h1, -hcf(parent))).  Parsing is purely syntactic: a document
with tampered numbers parses fine and is rejected later by verify_trace.
Output is deterministic (sorted keys, two-space indent, trailing newline), so
re-serialization is byte-stable.  Emitted integers are plain JSON numbers;
consumers limited to 64-bit integers must keep inputs small enough that every
field fits, which holds for any desk-scale genus/rank/degree.
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .affine import DegreeAffineMap
from .diophantine import LemmaSolution
from .errors import BunredError, DomainError, ParseError
from .reduction import BaseStep, CompositeStep, ReductionTrace, StepNode
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


def _map_from_dict(doc: Any, loc: str) -> DegreeAffineMap:
    sign = _need_int(doc, "sign", loc)
    shift = _need_int(doc, "shift", loc)
    try:
        return DegreeAffineMap(sign, shift)
    except BunredError as exc:
        raise ParseError(loc, str(exc)) from exc


def trace_from_dict(doc: Any) -> ReductionTrace:
    loc = "$"
    version = _need_int(doc, "version", loc)
    if version != SCHEMA_VERSION:
        raise ParseError(f"{loc}.version", f"unsupported version {version}")
    genus = _need_int(doc, "genus", loc)
    input_doc = _need(doc, "input", loc)
    try:
        t = SheafType(
            _need_int(input_doc, "rank", f"{loc}.input"),
            _need_int(input_doc, "degree", f"{loc}.input"),
        )
    except BunredError as exc:
        raise ParseError(f"{loc}.input", str(exc)) from exc
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
            try:
                own = SheafType(_need_int(doc, "rank", loc), _need_int(doc, "degree", loc))
            except BunredError as exc:
                raise ParseError(loc, str(exc)) from exc
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
        try:
            t1 = SheafType(sol.r1, sol.d1)
            t2 = SheafType(sol.h1, -sol.h)
        except BunredError as exc:
            raise ParseError(loc, f"child types are not representable: {exc}") from exc
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


def _scalar(value: Any) -> str:
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        try:
            return int.__repr__(value)
        except ValueError:
            raise int_limit_error() from None
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def int_limit_error() -> DomainError:
    """The error for a result with an integer longer than Python's int-to-str
    limit, which no writer can print."""
    return DomainError(
        f"a result has an integer of more than {sys.get_int_max_str_digits()} "
        "digits, the int-to-str limit (sys.get_int_max_str_digits())"
    )


def encode_document(doc: dict[str, Any]) -> str:
    """The document encoding: sorted keys, two-space indent, trailing newline.

    The bytes equal ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.
    With an indent, ``json`` runs its pure-Python encoder, whose generators
    nest once per level and pass every piece up through all of them, so its
    cost grows with depth times size.  This writer walks the tree with an
    explicit stack instead: its cost is linear in the output, and no depth
    meets the recursion limit.  An integer longer than the int-to-str limit
    raises a DomainError (int_limit_error), where json raises ValueError.
    """
    parts: list[str] = []
    # breaks[k]: a line break and k levels of indent, one string shared by
    # every line at that level
    breaks = ["\n"]
    # Popped from the end: a str is written as is, a pair is (value, depth).
    todo: list[Any] = [(doc, 0)]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            parts.append(item)
            continue
        value, depth = item
        if not isinstance(value, (dict, list)):
            parts.append(_scalar(value))
            continue
        is_dict = isinstance(value, dict)
        if not value:
            parts.append("{}" if is_dict else "[]")
            continue
        depth += 1
        if depth == len(breaks):
            breaks.append(breaks[-1] + "  ")
        indent = breaks[depth]
        todo.append("}" if is_dict else "]")
        todo.append(breaks[depth - 1])
        members = sorted(value) if is_dict else value
        for i in range(len(members) - 1, -1, -1):
            if is_dict:
                key = members[i]
                member = value[key]
                head = _quote(key) + ": "
            else:
                member = members[i]
                head = ""
            if isinstance(member, (dict, list)):
                todo.append((member, depth))
                todo.append(head)
            else:
                todo.append(head + _scalar(member))
            todo.append(indent)
            if i:
                todo.append(",")
        parts.append("{" if is_dict else "[")
    parts.append("\n")
    return "".join(parts)


def dumps(trace: ReductionTrace) -> str:
    """Deterministic serialization; byte-stable under round trips."""
    return encode_document(trace_to_dict(trace))


def loads(text: str) -> ReductionTrace:
    try:
        return trace_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"$ (offset {exc.pos})", exc.msg) from exc
    except RecursionError:
        # from json.loads, the one reader that recurses (in C, once per
        # nesting level): a document from outside can be nested deeper than
        # any trace reduce builds (reduction.MAX_TREE_DEPTH)
        raise ParseError("$", "document nested too deeply") from None
    except UnicodeDecodeError as exc:
        # from json.loads of bytes; a subclass of ValueError, so caught first
        raise _not_utf8(exc) from None
    except ValueError:
        # from json.loads (trace_from_dict raises only ParseError): an integer
        # longer than Python's int-to-str limit
        raise ParseError(
            "$", f"integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None


def dump(trace: ReductionTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(trace))


def load(path: str) -> ReductionTrace:
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc) from None
    return loads(text)


def _not_utf8(exc: UnicodeDecodeError) -> ParseError:
    return ParseError("$", f"the text is not UTF-8 ({exc.reason} at byte {exc.start})")
