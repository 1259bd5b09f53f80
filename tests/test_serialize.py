import json
import random
import sys
from dataclasses import replace

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


def _stdlib_doc(trace, valid):
    doc = trace_to_dict(trace)
    if valid is not None:
        doc["valid"] = valid
    return _stdlib(doc)


def test_dumps_matches_stdlib_on_grid():
    for g in (2, 3, 4):
        ctx = GenusContext(g)
        for r in range(1, 13):
            for d in range(-12, 13):
                trace = reduce(ctx, SheafType(r, d))
                for valid in (None, True, False):
                    assert dumps(trace, valid=valid) == _stdlib_doc(trace, valid)


@pytest.mark.parametrize("digits,valid", [(100, True), (300, None)])
def test_dumps_matches_stdlib_on_big_ranks(digits, valid):
    # the stdlib oracle takes ~2 s on a 300-digit trace, so each runs once
    rng = random.Random(digits)
    r = rng.randrange(10 ** (digits - 1), 10**digits)
    d = rng.randrange(-(10**digits), 10**digits)
    trace = reduce(GenusContext(rng.randrange(2, 5)), SheafType(r, d))
    assert dumps(trace, valid=valid) == _stdlib_doc(trace, valid)


@pytest.mark.parametrize("count", [0, 3, 5])
def test_dumps_matches_stdlib_on_tampered_det_maps(count):
    # no trace reduce builds has a composite with 0, 3 or 5 det_maps
    doc = trace_to_dict(reduce(GenusContext(3), SheafType(7, 3)))
    doc["root"]["det_maps"] = [{"sign": (-1) ** i, "shift": 10 * i - 7} for i in range(count)]
    trace = trace_from_dict(doc)
    assert len(trace.root.det_maps) == count
    assert dumps(trace) == _stdlib(doc)
    assert dumps(trace, valid=False) == _stdlib_doc(trace, False)


def test_integer_beyond_str_limit_is_a_named_error():
    # the genus is within the limit; rkV and dF are a digit longer
    trace = reduce(GenusContext(int("9" * sys.get_int_max_str_digits())), SheafType(2, 1))
    for valid in (None, True):
        with pytest.raises(DomainError, match=r"^a result has an integer of more than \d+ digits"):
            dumps(trace, valid=valid)


@pytest.mark.parametrize("field", ["h", "total_affine_dim"])
def test_integer_beyond_str_limit_outside_the_tree(field):
    trace = reduce(GenusContext(2), SheafType(2, 1))
    trace = replace(trace, **{field: 10 ** sys.get_int_max_str_digits()})
    with pytest.raises(DomainError) as exc:
        dumps(trace, valid=True)
    assert str(exc.value) == str(serialize.int_limit_error())


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


def test_bytes_are_read_as_utf8_only():
    # json.loads alone would take these bytes for UTF-16; load reads the
    # same bytes from a file, and both refuse them alike
    with pytest.raises(ParseError, match=r"^\$: the text is not UTF-8 \(invalid start byte at byte 0\)$"):
        loads(dumps(reduce(GenusContext(2), SheafType(2, 1))).encode("utf-16"))


def test_file_in_utf16_is_the_same_parse_error(tmp_path):
    data = dumps(reduce(GenusContext(2), SheafType(2, 1))).encode("utf-16")
    path = tmp_path / "utf16.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as from_file:
        load(str(path))
    with pytest.raises(ParseError) as from_bytes:
        loads(data)
    assert str(from_file.value) == str(from_bytes.value)
    assert str(from_file.value).startswith("$: the text is not UTF-8 (")


def test_utf8_bytes_round_trip():
    trace = reduce(GenusContext(3), SheafType(6, 4))
    assert loads(dumps(trace).encode("utf-8")) == trace
    assert loads(bytearray(dumps(trace).encode("utf-8"))) == trace


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("broken", [False, True], ids=["valid", "syntax_error"])
def test_file_and_bytes_read_line_ends_alike(tmp_path, newline, broken):
    trace = reduce(GenusContext(2), SheafType(3, 1))
    raw = dumps(trace).replace("\n", newline).encode("utf-8")
    if broken:
        raw = raw[:512] + b"x" + raw[512:]
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    if not broken:
        assert load(str(path)) == loads(raw) == trace
        return
    with pytest.raises(ParseError) as from_file:
        load(str(path))
    with pytest.raises(ParseError) as from_bytes:
        loads(raw)
    assert str(from_file.value) == str(from_bytes.value)
    # the offset points at the stray byte in the file
    assert str(from_file.value).startswith("$ (offset 512):")


def _edited(path, value):
    """The genus-2 (2,1) document with the field at path set to value, or
    deleted when value is None."""
    doc = trace_to_dict(reduce(GenusContext(2), SheafType(2, 1)))
    cursor = doc
    for key in path[:-1]:
        cursor = cursor[key]
    if value is None:
        del cursor[path[-1]]
    else:
        cursor[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "path,value,location,message",
    [
        (("input", "rank"), "x", "$.input.rank", "expected an integer, got 'x'"),
        (("input", "degree"), None, "$.input", "missing key 'degree'"),
        (("root", "mu1", "rank"), "x", "$.root.mu1.rank", "expected an integer, got 'x'"),
        (("root", "mu1", "rank"), None, "$.root.mu1", "missing key 'rank'"),
        (
            ("root", "det_maps", 0, "sign"),
            "x",
            "$.root.det_maps[0].sign",
            "expected an integer, got 'x'",
        ),
    ],
    ids=["input_str", "input_missing", "base_str", "base_missing", "det_map_str"],
)
def test_a_field_error_names_its_location_once(path, value, location, message):
    # the det-map case is the control: its reads were never inside a guard
    with pytest.raises(ParseError) as exc:
        trace_from_dict(_edited(path, value))
    assert exc.value.location == location
    assert str(exc.value) == f"{location}: {message}"


@pytest.mark.parametrize(
    "path,value,location,message",
    [
        (("input", "rank"), -1, "$.input", "rank must be >= 0, got -1"),
        (("root", "mu1", "rank"), -1, "$.root.mu1", "rank must be >= 0, got -1"),
        (
            ("root", "r1"),
            -1,
            "$.root",
            "child types are not representable: rank must be >= 0, got -1",
        ),
        (
            ("root", "h1"),
            0,
            "$.root",
            "child types are not representable: "
            "rank-zero types are torsion and need degree >= 0, got degree -1",
        ),
    ],
    ids=["input", "base", "composite_r1", "composite_h1"],
)
def test_a_type_that_is_no_sheaf_type_is_a_parse_error(path, value, location, message):
    with pytest.raises(ParseError) as exc:
        trace_from_dict(_edited(path, value))
    assert exc.value.location == location
    assert str(exc.value) == f"{location}: {message}"
