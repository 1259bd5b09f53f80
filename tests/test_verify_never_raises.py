"""`bunred verify` ends in a verdict or a named error, never a traceback.

Valid trace documents are mutated structurally (keys deleted and added,
values swapped for ones of the wrong kind: None, strings, floats, bools,
huge integers, lists and objects, det_maps entries that are not objects)
and run through `cli.main(["verify", path])` in text and JSON.  Every run
must return exit code 0 or 1.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bunred import GenusContext, SheafType, dumps, reduce  # noqa: E402
from bunred.cli import main  # noqa: E402

# Stands for an integer longer than the int-to-str limit, which json.dumps
# cannot write: it is spliced into the text after encoding.
HUGE = "<integer past the str limit>"
HUGE_DIGITS = "9" * 5000

KEYS = (
    "version", "genus", "input", "rank", "degree", "h", "total_affine_dim",
    "composite_det", "sign", "shift", "root", "kind", "rF", "dF", "r1", "d1",
    "h1", "rkV", "rho_affine", "hecke_affine", "det_maps", "mu1", "mu2",
    "twist_degree", "valid", "extra",
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from((10**400, -(10**400), 2**64, HUGE)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(("base", "composite", "", "1")),
)
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.dictionaries(st.sampled_from(KEYS), scalars, max_size=4),
)


def _containers(doc):
    """Every dict and list in the document, the document included."""
    found, todo = [], [doc]
    while todo:
        obj = todo.pop()
        found.append(obj)
        todo.extend(v for v in (obj.values() if isinstance(obj, dict) else obj)
                    if isinstance(v, (dict, list)))
    return found


def _mutate(doc, data):
    """doc after one to four structural mutations drawn from data, or, one
    time in ten, a value that is not a trace document at all."""
    if data.draw(st.integers(0, 9)) == 0:
        return data.draw(values)
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(("delete", "add", "replace", "det_maps")))
        containers = _containers(doc)
        if kind == "det_maps":
            # a composite node's det_maps, or one of its entries, is replaced
            containers = [c for c in containers if isinstance(c, dict) and "det_maps" in c]
            if not containers:
                continue
            obj = data.draw(st.sampled_from(containers))
            maps = obj["det_maps"]
            if isinstance(maps, list) and maps and data.draw(st.booleans()):
                maps[data.draw(st.integers(0, len(maps) - 1))] = data.draw(values)
            else:
                obj["det_maps"] = data.draw(values)
            continue
        obj = containers[data.draw(st.integers(0, len(containers) - 1))]
        if kind == "add":
            if isinstance(obj, dict):
                obj[data.draw(st.sampled_from(KEYS))] = data.draw(values)
            else:
                obj.append(data.draw(values))
            continue
        keys = list(obj) if isinstance(obj, dict) else list(range(len(obj)))
        if not keys:
            continue
        key = data.draw(st.sampled_from(keys))
        if kind == "delete":
            del obj[key]
        else:
            obj[key] = data.draw(values)
    return doc


def _verify(path, *fmt):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", str(path), *fmt])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def doc_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "trace.json"


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(1, 40), st.integers(-40, 40), st.data())
def test_mutated_documents_end_in_a_verdict_or_an_error(doc_file, g, r, d, data):
    doc = _mutate(json.loads(dumps(reduce(GenusContext(g), SheafType(r, d)))), data)
    text = json.dumps(doc, indent=2, sort_keys=True).replace(json.dumps(HUGE), HUGE_DIGITS)
    doc_file.write_text(text, encoding="utf-8")

    code, out, err = _verify(doc_file)
    assert code in (0, 1)
    assert out or err.startswith("error: ")

    code_json, out, err = _verify(doc_file, "--format", "json")
    assert code_json == code
    if out:
        assert json.loads(out)["valid"] is (code == 0)
    else:
        assert code == 1 and err.startswith("error: ")
