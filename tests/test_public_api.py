"""Every name the package exports has a user besides its own tests.

A public symbol stays only if a CLI command, an acceptance criterion or an
internal caller needs it.  For each name that `bunred/__init__.py` imports,
some identifier reference (an AST Name, Attribute or import; not a string or
a comment) must exist outside the name's own definition, in a `src/bunred`
module other than `__init__.py`, in `tests/test_acceptance.py` or in `bench/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bunred"


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _defined_names(node: ast.stmt) -> set[str]:
    """Names a top-level statement binds by definition (not by import)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _references(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                found.add(alias.asname or alias.name.rpartition(".")[2])
    return found


def _user_files() -> list[Path]:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files.append(ROOT / "tests" / "test_acceptance.py")
    files.extend(sorted((ROOT / "bench").glob("*.py")))
    return files


def _referenced_names() -> set[str]:
    """Identifiers referenced in the user files, each top-level statement
    counted only for the names it does not itself define."""
    found = set()
    for path in _user_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            found |= _references(stmt) - _defined_names(stmt)
    return found


def test_every_exported_name_has_a_user():
    exported = _exported_names()
    assert "reduce" in exported and "verify_trace" in exported
    unused = sorted(set(exported) - _referenced_names())
    assert unused == [], f"exported but used only by their own tests: {unused}"
