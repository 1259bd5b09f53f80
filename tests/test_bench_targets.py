"""The names the benchmark's tracer wraps still exist in bunred.

bench/tracer.py replaces module attributes (for example `cli.dumps` or
`reduction.solve_lemma`) with timing wrappers, so renaming or dropping one of
them breaks every traced benchmark run.  TARGETS is read from the file with
`ast`, without importing `bench`.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(module, attr) for _, module, attr in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("module, attr", _targets(), ids=lambda x: x)
def test_each_wrapped_name_is_a_callable_in_bunred(module, attr):
    assert module.split(".")[0] == "bunred"
    assert callable(getattr(importlib.import_module(module), attr, None))
