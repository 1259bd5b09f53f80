import itertools
import json
import random
import sys

import pytest

from bunred import (
    DomainError,
    GenusContext,
    ParseError,
    SheafType,
    dump,
    dumps,
    load,
    loads,
    reduce,
    trace_from_dict,
    trace_to_dict,
    verify_trace,
)
from bunred import serialize
from bunred.serialize import encode_document


def _traces():
    yield reduce(GenusContext(2), SheafType(2, 1))
    yield reduce(GenusContext(2), SheafType(4, 2))
    yield reduce(GenusContext(2), SheafType(3, 0))
    yield reduce(GenusContext(3), SheafType(6, 4))
    yield reduce(GenusContext(4), SheafType(9, -6))


def test_round_trip_equality():
    for tr in _traces():
        assert loads(dumps(tr)) == tr
        assert trace_from_dict(trace_to_dict(tr)) == tr


def test_byte_stable_reserialization():
    for tr in _traces():
        text = dumps(tr)
        assert dumps(loads(text)) == text


def test_file_round_trip(tmp_path):
    tr = reduce(GenusContext(2), SheafType(2, 1))
    path = tmp_path / "trace.json"
    dump(tr, str(path))
    assert load(str(path)) == tr


def test_tampered_document_parses_but_fails_verification():
    tr = reduce(GenusContext(2), SheafType(2, 1))
    doc = trace_to_dict(tr)
    doc["root"]["dF"] = -1
    tampered = trace_from_dict(doc)
    report = verify_trace(tampered, strict=False)
    assert not report.ok
    assert "euler_equation" in report.failed_names()


def test_truncated_document_is_parse_error():
    text = dumps(reduce(GenusContext(2), SheafType(2, 1)))
    with pytest.raises(ParseError):
        loads(text[: len(text) // 2])


def test_missing_key_reports_location():
    doc = trace_to_dict(reduce(GenusContext(2), SheafType(2, 1)))
    del doc["root"]["mu1"]["twist_degree"]
    with pytest.raises(ParseError) as exc:
        trace_from_dict(doc)
    assert "$.root.mu1" in str(exc.value)


def test_wrong_version_rejected():
    doc = trace_to_dict(reduce(GenusContext(2), SheafType(2, 1)))
    doc["version"] = 2
    with pytest.raises(ParseError):
        trace_from_dict(doc)


def test_non_integer_field_rejected():
    doc = trace_to_dict(reduce(GenusContext(2), SheafType(2, 1)))
    doc["root"]["rkV"] = "four"
    with pytest.raises(ParseError):
        trace_from_dict(doc)
    doc["root"]["rkV"] = True
    with pytest.raises(ParseError):
        trace_from_dict(doc)


def test_bad_sign_rejected():
    doc = trace_to_dict(reduce(GenusContext(2), SheafType(2, 1)))
    doc["composite_det"]["sign"] = 2
    with pytest.raises(ParseError):
        trace_from_dict(doc)


def test_schema_shape_is_stable():
    doc = trace_to_dict(reduce(GenusContext(2), SheafType(2, 1)))
    assert doc["version"] == 1
    assert set(doc) == {
        "version", "genus", "input", "h", "total_affine_dim", "composite_det", "root",
    }
    assert set(doc["root"]) == {
        "kind", "rF", "dF", "r1", "d1", "h1", "rkV",
        "rho_affine", "hecke_affine", "det_maps", "mu1", "mu2",
    }
    assert doc["root"]["kind"] == "composite"
    assert set(doc["root"]["mu1"]) == {"kind", "rank", "degree", "twist_degree"}
    assert json.loads(dumps(reduce(GenusContext(2), SheafType(2, 1)))) == doc


def _stdlib(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_encoder_matches_stdlib_on_grid():
    for g in (2, 3, 4):
        ctx = GenusContext(g)
        for r in range(1, 13):
            for d in range(-12, 13):
                doc = trace_to_dict(reduce(ctx, SheafType(r, d)))
                assert encode_document(doc) == _stdlib(doc)
                doc["valid"] = d % 2 == 0
                assert encode_document(doc) == _stdlib(doc)


@pytest.mark.parametrize("digits,valid", [(100, True), (300, None)])
def test_encoder_matches_stdlib_on_big_ranks(digits, valid):
    # the stdlib oracle takes ~2 s on a 300-digit trace, so each runs once
    rng = random.Random(digits)
    r = rng.randrange(10 ** (digits - 1), 10**digits)
    d = rng.randrange(-(10**digits), 10**digits)
    doc = trace_to_dict(reduce(GenusContext(rng.randrange(2, 5)), SheafType(r, d)))
    if valid is not None:
        doc["valid"] = valid
    assert encode_document(doc) == _stdlib(doc)


def test_encoder_matches_stdlib_on_random_values():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.integers(min_value=-(10**300), max_value=10**300)
        | st.text()
    )
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=40,
    )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(values)
    def check(value):
        assert encode_document(value) == _stdlib(value)

    check()


def test_encoder_has_no_depth_limit():
    depth = 10_000
    doc = {}
    for _ in range(depth):
        doc = {"a": doc}
    out = encode_document(doc)
    # indented, the text is ~200 MB, so the expected one is compared in pieces
    pieces = itertools.chain(
        ["{"],
        ("\n" + "  " * k + '"a": {' for k in range(1, depth + 1)),
        ["}"],
        ("\n" + "  " * k + "}" for k in range(depth - 1, -1, -1)),
        ["\n"],
    )
    pos = 0
    for piece in pieces:
        assert out.startswith(piece, pos)
        pos += len(piece)
    assert pos == len(out)


def test_integer_beyond_str_limit_is_a_named_error():
    # the genus is within the limit; rkV and dF are a digit longer
    trace = reduce(GenusContext(int("9" * sys.get_int_max_str_digits())), SheafType(2, 1))
    with pytest.raises(DomainError, match=r"^a result has an integer of more than \d+ digits"):
        dumps(trace)


def test_recursion_in_trace_from_dict_is_parse_error(monkeypatch):
    def too_deep(doc):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(serialize, "trace_from_dict", too_deep)
    with pytest.raises(ParseError, match=r"^\$: document nested too deeply$"):
        loads(dumps(reduce(GenusContext(2), SheafType(2, 1))))


@pytest.mark.parametrize("data", [b"\xff\xfe\x00", b'{"version": "\xff"}'], ids=["bom", "string"])
def test_bytes_that_are_not_utf8_are_a_parse_error(data):
    with pytest.raises(ParseError, match=r"^\$: the text is not UTF-8 \("):
        loads(data)


def test_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ParseError, match=r"^\$: the text is not UTF-8 \(invalid start byte"):
        load(str(path))
