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
    DomainError,
    GenusContext,
    LemmaSolution,
    ParseError,
    ReductionTrace,
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
from bunred import serialize
from bunred.cli import format_trace_text, main

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


def _compact_chain_document(levels):
    """The document of _chain(levels) without whitespace, so its size grows
    linearly with the depth (indented, it grows with the square)."""
    base = '{"degree":0,"kind":"base","rank":1,"twist_degree":0}'
    node = '{"d1":0,"dF":0,"det_maps":[],"h1":1,"hecke_affine":0,"kind":"composite","mu1":'
    tail = f',"mu2":{base},"r1":1,"rF":1,"rho_affine":1,"rkV":1}}'
    return ('{"composite_det":{"shift":0,"sign":1},"genus":2,"h":1,'
            '"input":{"degree":0,"rank":1},"root":' + node * levels + base + tail * levels
            + ',"total_affine_dim":0,"version":1}')


def test_chain_document_pieces_match_stdlib():
    doc = trace_to_dict(_chain(3))
    assert _compact_chain_document(3) == json.dumps(doc, separators=(",", ":"), sort_keys=True)
    doc["valid"] = True
    assert "".join(_chain_document(3)) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_deep_chain_document_is_written_from_a_deep_stack(monkeypatch):
    # twice the recursion limit: deep enough, and the text stays ~70 MB; the
    # bound on a document's depth is raised to let the chain through
    levels = 2 * sys.getrecursionlimit()
    monkeypatch.setattr(serialize, "MAX_TREE_DEPTH", levels + 1)
    depth, out = _deep_stack(lambda: dumps(_chain(levels), valid=True))
    assert depth >= STACK_FRAMES
    pos = 0
    for piece in _chain_document(levels):
        assert out.startswith(piece, pos)
        pos += len(piece)
    assert pos == len(out)


def test_deep_chain_document_is_refused_by_json_loads():
    # json.loads's own limit, not the ceiling loads checks on the tree it
    # returns (serialize.MAX_TREE_DEPTH): 20,000 levels is deeper than
    # json.loads, the one recursive reader, reads on any supported Python
    # (3.13 reads about 10,000), and its refusal is a ParseError, not a
    # RecursionError
    with pytest.raises(ParseError, match="nested too deeply"):
        loads(_compact_chain_document(20_000))


# 300 digits with degree -1: a reduction tree of 996 levels, deeper than a
# trace document holds (serialize.MAX_TREE_DEPTH, 940 levels)
DEEP_TYPE = SheafType(3 * 10**299 + 1, -1)
TOO_DEEP = "^the reduction tree is deeper than the recursion limit of json.loads allows"


def test_a_tree_deeper_than_a_document_holds_is_built_and_verified():
    def run():
        trace = reduce(GenusContext(2), DEEP_TYPE)
        return trace, trace_ok(trace, {}), verify_trace(trace).ok

    depth, (trace, ok, valid) = _deep_stack(run)
    assert depth >= STACK_FRAMES
    assert node_depth(trace.root) == 996 > serialize.MAX_TREE_DEPTH
    assert ok and valid
    with pytest.raises(DomainError, match=TOO_DEEP):
        _deep_stack(lambda: dumps(trace))


def test_a_tree_deeper_than_a_document_holds_is_written_as_text(capsys):
    argv = ["reduce", "-g", "2", "-r", str(DEEP_TYPE.rank), "-d", str(DEEP_TYPE.degree)]
    depth, code = _deep_stack(lambda: main(argv))
    assert depth >= STACK_FRAMES
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("certificate VALID (")
    assert max(len(line) - len(line.lstrip()) for line in lines[1:-3]) == 2 * 996


def test_a_shared_table_serves_a_deep_and_a_shallow_case():
    ctx = GenusContext(2)
    cases = [SheafType(12, 5), DEEP_TYPE, SheafType(7, -1), DEEP_TYPE]

    def run():
        built = {}
        return [(reduce(ctx, t, built=built), reduce(ctx, t)) for t in cases], built

    depth, (pairs, built) = _deep_stack(run)
    assert depth >= STACK_FRAMES
    for shared, fresh in pairs:
        assert shared == fresh and shared.root is built[shared.input.rank, shared.input.degree]
    assert node_depth(pairs[1][0].root) == 996
    assert pairs[3][0].root is pairs[1][0].root


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
