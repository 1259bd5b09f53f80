"""No walker of a tree recurses: the writers, the parser and node equality
handle a tree far deeper than the recursion limit, even when called with
almost no stack left."""

import ast
import json
import sys
from pathlib import Path

import pytest

from bunred import (
    BaseStep,
    CompositeStep,
    DegreeAffineMap,
    LemmaSolution,
    ParseError,
    ReductionTrace,
    SheafType,
    dumps,
    loads,
    trace_from_dict,
    trace_to_dict,
)
from bunred.cli import format_trace_text

SRC = Path(__file__).resolve().parent.parent / "src" / "bunred"

# Frames on the stack when the walkers are called.
STACK_FRAMES = 900


def _chain(levels):
    """A hand-built trace of `levels` composite nodes, each the mu1 child of
    the next (the same chain as in test_verify_paths)."""
    base = BaseStep(SheafType(1, 0), twist_degree=0)
    node = base
    for _ in range(levels):
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
    return ReductionTrace(
        genus=2,
        input=SheafType(1, 0),
        h=1,
        root=node,
        total_affine_dim=0,
        composite_det=DegreeAffineMap(1, 0),
    )


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _nested(frames, fn):
    """fn() called from `frames` more frames down the stack."""
    if frames <= 0:
        return fn()
    return _nested(frames - 1, fn)


def _deep_stack(fn):
    """fn() called with STACK_FRAMES frames on the stack."""
    return _nested(STACK_FRAMES - _stack_depth() - 1, lambda: (_stack_depth(), fn()))


def test_deep_chain_round_trips_from_a_deep_stack():
    trace = _chain(5000)

    def run():
        doc = trace_to_dict(trace)
        back = trace_from_dict(doc)
        return doc, back, back == trace, hash(back) == hash(trace), format_trace_text(back, None)

    depth, (doc, back, equal, same_hash, text) = _deep_stack(run)
    assert depth >= STACK_FRAMES
    assert equal and same_hash
    assert back.root is not trace.root
    assert doc["root"]["mu1"]["mu1"]["kind"] == "composite"
    # 5,000 composite nodes, their 5,000 base mu2 children and the base at
    # the bottom, plus the header and the two ledger lines
    lines = text.splitlines()
    assert len(lines) == 10001 + 3
    base = "Bun(1,0) --twist 0--> Bun(1,0) ; +affine 0"
    assert lines[5000] == "  " * 5000 + "Bun(1,0) --[1,0]--> Gr_1 over Bun(1,0) ; +affine 1"
    assert lines[5001] == "  " * 5001 + base
    assert lines[-3] == "    " + base


def _chain_document(levels):
    """The document of _chain(levels), piece by piece: one piece per line
    group, so the ~100 MB text of a deep chain is never held twice."""
    def base(k):  # a base node whose key is at indent level k
        pad = "\n" + "  " * (k + 1)
        return ("{" + pad + '"degree": 0,' + pad + '"kind": "base",' + pad + '"rank": 1,'
                + pad + '"twist_degree": 0' + "\n" + "  " * k + "}")

    yield ('{\n  "composite_det": {\n    "shift": 0,\n    "sign": 1\n  },\n  "genus": 2,'
           '\n  "h": 1,\n  "input": {\n    "degree": 0,\n    "rank": 1\n  },\n  "root": ')
    for k in range(1, levels + 1):
        pad = "\n" + "  " * (k + 1)
        yield ("{" + pad + '"d1": 0,' + pad + '"dF": 0,' + pad + '"det_maps": [],' + pad
               + '"h1": 1,' + pad + '"hecke_affine": 0,' + pad + '"kind": "composite",'
               + pad + '"mu1": ')
    yield base(levels + 1)
    for k in range(levels, 0, -1):
        pad = "\n" + "  " * (k + 1)
        yield ("," + pad + '"mu2": ' + base(k + 1) + "," + pad + '"r1": 1,' + pad + '"rF": 1,'
               + pad + '"rho_affine": 1,' + pad + '"rkV": 1' + "\n" + "  " * k + "}")
    yield ',\n  "total_affine_dim": 0,\n  "valid": true,\n  "version": 1\n}\n'


def test_chain_document_pieces_match_stdlib():
    doc = trace_to_dict(_chain(3))
    doc["valid"] = True
    assert "".join(_chain_document(3)) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_deep_chain_document_is_written_from_a_deep_stack():
    # twice the recursion limit: deep enough, and the text stays ~70 MB
    levels = 2 * sys.getrecursionlimit()
    depth, out = _deep_stack(lambda: dumps(_chain(levels), valid=True))
    assert depth >= STACK_FRAMES
    pos = 0
    for piece in _chain_document(levels):
        assert out.startswith(piece, pos)
        pos += len(piece)
    assert pos == len(out)


def test_deep_chain_document_is_refused_by_json_loads():
    # dumps writes the document; json.loads, the one recursive reader, is
    # refused with a ParseError, not a RecursionError
    text = _deep_stack(lambda: dumps(_chain(5000)))[1]
    with pytest.raises(ParseError, match="nested too deeply"):
        loads(text)


def test_no_function_calls_itself():
    """No function in the package calls itself by name, directly or from a
    function nested inside it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                    # self.f() and cls.f() name the method itself; module.f() does not
                    if callee.value.id in ("self", "cls") and callee.attr == fn.name:
                        found.append(f"{path.name}:{node.lineno} {fn.name}")
                elif isinstance(callee, ast.Name) and callee.id == fn.name:
                    found.append(f"{path.name}:{node.lineno} {fn.name}")
    assert found == []
