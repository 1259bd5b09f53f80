"""`bunred verify`'s report, written row by row as the checks return.

The command formats each row when its check returns and builds no
CheckResult.  The expressions it replaced are kept here as oracles, built
from verify_trace(trace, strict=False).checks:

- text: a second loop over the rows, PASS or FAIL, the path and the name,
  the detail in parentheses when the check failed, then the verdict line;
- JSON: json.dumps({"valid": ok, "checks": [...]}, indent=2) plus a newline,
  each check an object with the keys path, name, passed and detail.

The documents are the three 100-digit golden types of test_reduce_golden,
the traces of test_tamper and that file's corpus: every +-1 change of one
integer of each of those documents that still parses.  Details holding
quotes, backslashes, control characters and non-ASCII text come from
in-memory traces, since a parsed document holds only ints.
"""

import json
import re
from dataclasses import replace

import pytest
from test_check_contract import NAMES
from test_reduce_golden import _seeded_type
from test_tamper import TRACES, _int_paths, _with_delta

from bunred import GenusContext, ParseError, SheafType, cli, dumps, load, reduce, reduction
from bunred import trace_from_dict, trace_to_dict, verify_trace
from bunred.cli import main

PATH = re.compile(r"^(trace|root(\.mu[12])*)$")


def _text_oracle(trace):
    report = verify_trace(trace, strict=False)
    lines = []
    for c in report.checks:
        lines.append(f"{'PASS' if c.passed else 'FAIL'} {c.path}: {c.name}"
                     + (f" ({c.detail})" if c.detail else ""))
    lines.append(f"certificate {'VALID' if report.ok else 'INVALID'} ({len(report.checks)} checks)")
    return ("\n".join(lines) + "\n", 0 if report.ok else 1)


def _json_oracle(trace):
    report = verify_trace(trace, strict=False)
    doc = {
        "valid": report.ok,
        "checks": [
            {"path": c.path, "name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    return (json.dumps(doc, indent=2) + "\n", 0 if report.ok else 1)


ORACLES = {"text": _text_oracle, "json": _json_oracle}


def _documents():
    """(label, document text) of the golden, valid and tampered documents."""
    for g in range(2, 5):
        rank, degree = _seeded_type(100, g)
        yield f"golden g{g}", dumps(reduce(GenusContext(g), SheafType(rank, degree)))
    for ctx, t in TRACES:
        doc = trace_to_dict(reduce(ctx, t))
        yield f"g{ctx.genus} {t}", json.dumps(doc)
        for path in _int_paths(doc):
            for delta in (-1, 1):
                bad = _with_delta(doc, path, delta)
                try:
                    trace_from_dict(bad)
                except ParseError:
                    continue
                yield f"g{ctx.genus} {t} {path}{delta:+d}", json.dumps(bad)


def _verify(capsys, fmt, *argv):
    code = main(["verify", *argv, "--format", fmt])
    out, err = capsys.readouterr()
    assert err == ""
    return out, code


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_equals_the_oracle_on_every_document(fmt, tmp_path, capsys):
    path = tmp_path / "doc.json"
    invalid = 0
    for label, text in _documents():
        path.write_text(text, encoding="utf-8")
        expected = ORACLES[fmt](load(str(path)))
        assert _verify(capsys, fmt, str(path)) == expected, label
        invalid += expected[1]
        if fmt == "json":
            for row in json.loads(expected[0])["checks"]:
                assert PATH.match(row["path"]) and row["name"] in NAMES, (label, row)
    assert invalid > 100  # the corpus is mostly tampered documents


class _Shows:
    """A stored value that formats as text."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


class _Raises(_Shows):
    """A stored value whose formatting raises, with text as the message."""

    def __str__(self):
        raise ValueError(self.text)


@pytest.mark.parametrize("text", [
    'a "quoted" word',
    "back\\slash \\n \\u0041",
    "control \x00\x01\x08\x1f\t\n\r\x7f end",
    "non-ASCII é ß ☃ 𝔾 ﻿",
    "",
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_details_are_escaped_as_json_dumps_escapes_them(fmt, text, monkeypatch, capsys):
    """rho_affine fails with the stored value in its detail; hecke_affine
    fails as not evaluable, its detail the exception's message."""
    trace = reduce(GenusContext(2), SheafType(12, 7))
    root = replace(trace.root, rho_affine=_Shows(text), hecke_affine=_Raises(text))
    trace = replace(trace, root=root)
    failures = {c.name: c.detail for c in verify_trace(trace, strict=False).failures()}
    assert failures["rho_affine"].startswith(f"stored {text}, expected ")
    assert failures["hecke_affine"] == f"not evaluable: {text}"

    monkeypatch.setattr(cli, "load", lambda path: trace)
    assert _verify(capsys, fmt, "in-memory") == ORACLES[fmt](trace)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_builds_no_check_result(fmt, monkeypatch, capsys, tmp_path):
    built = []
    real_new = reduction.CheckResult.__new__

    def new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(reduction.CheckResult, "__new__", staticmethod(new))
    trace = reduce(GenusContext(3), SheafType(12, 8))
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(dumps(trace), encoding="utf-8")
    doc = trace_to_dict(trace)
    doc["root"]["rkV"] += 1
    bad.write_text(json.dumps(doc), encoding="utf-8")

    assert _verify(capsys, fmt, str(good))[1] == 0
    assert _verify(capsys, fmt, str(bad))[1] == 1
    assert len(built) == 0
    # the counter sees the rows verify_trace builds
    assert len(verify_trace(trace).checks) == len(built) == 44
