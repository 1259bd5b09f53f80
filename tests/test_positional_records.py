"""The package builds its records with positional arguments.

A keyword call to a class hands its generated __init__ a kwargs dict, which
on Python 3.11 costs about 0.4 us (0.2-0.6 us) more per record than a
positional call (BENCH_PR37.json, "construction_in_process").  `bunred
sweep` builds one LemmaSolution and one CompositeStep per distinct
composite type and one ReductionTrace per case, so every call to one of
these classes under src/bunred passes its fields by position, in the
dataclass's field order.  Tests keep their keyword calls, which name each
field.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bunred"

RECORDS = {
    "SheafType",
    "DegreeAffineMap",
    "LemmaSolution",
    "BaseStep",
    "CompositeStep",
    "ReductionTrace",
    "GenericHomReport",
    "SplittingScanReport",
    "VerificationReport",
}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_no_record_is_built_with_keyword_arguments():
    keyword_calls = []
    calls = 0
    classes = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef):
                classes.add(node.name)
            elif isinstance(node, ast.Call) and _called_name(node) in RECORDS:
                calls += 1
                if node.keywords:
                    names = ", ".join(str(k.arg) for k in node.keywords)
                    keyword_calls.append(f"{path.name}:{node.lineno} {_called_name(node)}({names}=...)")
    # a renamed record would drop out of the guard unnoticed
    assert RECORDS <= classes
    assert calls > 0
    assert keyword_calls == []
