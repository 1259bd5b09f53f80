"""The README's command-line and library examples, run as written."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from bunred import GenusContext, SheafType, reduce, trace_to_dict
from bunred.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def test_cli_example_matches_output(capsys):
    examples = [b for b in _blocks("text") if b.startswith("$ bunred reduce")]
    assert len(examples) == 1
    command, _, expected = examples[0].partition("\n")
    argv = shlex.split(command.removeprefix("$ "))
    assert argv[:2] == ["bunred", "reduce"]
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == expected


def test_library_example_prints_documented_values():
    (example,) = [b for b in _blocks("python") if "verify_trace" in b]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    affine, det, report = out.getvalue().splitlines()
    assert affine == "12"
    assert det == "0"
    assert report.split()[0] == "True"


def test_json_example_is_the_genus_2_rank_2_degree_1_document():
    (example,) = _blocks("json")
    expected = trace_to_dict(reduce(GenusContext(2), SheafType(2, 1)))
    assert json.loads(example) == expected
