import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bunred import (
    DomainError,
    GenusContext,
    SheafType,
    cli,
    dumps,
    reduce,
    trace_from_dict,
    trace_to_dict,
    verify_trace,
)
from bunred.cli import main


def test_reduce_text(capsys):
    assert main(["reduce", "--genus", "2", "--rank", "2", "--degree", "1",
                 "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "certificate VALID" in out
    assert "--[3,-2]-->" in out
    assert "total affine dimension: 3" in out


def test_reduce_base_case(capsys):
    assert main(["reduce", "--genus", "2", "--rank", "3", "--degree", "0"]) == 0
    out = capsys.readouterr().out
    assert "total affine dimension: 0" in out


def test_reduce_rejects_small_genus(capsys):
    assert main(["reduce", "--genus", "1", "--rank", "2", "--degree", "1"]) == 1
    assert "genus must be >= 2" in capsys.readouterr().err


def test_reduce_json(capsys):
    assert main(["reduce", "-g", "2", "-r", "2", "-d", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True
    assert doc["total_affine_dim"] == 3
    assert doc["root"]["rF"] == 3


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--genus", "2"])
    assert exc.value.code == 2


def test_sweep_table(capsys):
    assert main(["sweep", "--genus", "2", "--max-rank", "6",
                 "--degree-range=-6..6"]) == 0
    out = capsys.readouterr().out
    assert "78 cases, 78 valid" in out


def test_sweep_json_matches_closed_form(capsys):
    assert main(["sweep", "--genus", "2..3", "--max-rank", "5",
                 "--degree-range=-4..4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_valid"] is True
    for row in doc["rows"]:
        g, r, h = row["genus"], row["rank"], row["h"]
        assert row["n"] == (g - 1) * (r * r - h * h)
        assert row["depth"] <= r


def test_sweep_empty_range(capsys):
    assert main(["sweep", "--genus", "2", "--max-rank", "3",
                 "--degree-range=5..4"]) == 0
    assert "0 cases, 0 valid" in capsys.readouterr().out


def test_sweep_emits_traces(tmp_path, capsys):
    target = tmp_path / "traces"
    assert main(["sweep", "--genus", "2", "--max-rank", "2", "--degree-range=0..1",
                 "--traces-dir", str(target)]) == 0
    capsys.readouterr()
    files = sorted(p.name for p in target.iterdir())
    assert files == [
        "trace_g2_r1_d0.json", "trace_g2_r1_d1.json",
        "trace_g2_r2_d0.json", "trace_g2_r2_d1.json",
    ]
    for r in (1, 2):
        for d in (0, 1):
            text = (target / f"trace_g2_r{r}_d{d}.json").read_text(encoding="utf-8")
            assert text == dumps(reduce(GenusContext(2), SheafType(r, d)))


def test_verify_valid_and_tampered_file(tmp_path, capsys):
    tr = reduce(GenusContext(2), SheafType(2, 1))
    path = tmp_path / "t.json"
    path.write_text(dumps(tr))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "certificate VALID" in out

    doc = trace_to_dict(tr)
    doc["root"]["dF"] = -1
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "certificate INVALID" in out
    assert "euler_equation" in out


def test_verify_malformed_file(tmp_path, capsys):
    doc = trace_to_dict(reduce(GenusContext(2), SheafType(6, 4)))
    doc["input"]["rank"] = "x"
    path = tmp_path / "bad.json"
    errs = []
    for raw in (b"{ not json", json.dumps(doc).encode(), b"\xff"):
        path.write_bytes(raw)
        assert main(["verify", str(path)]) == 1
        errs.append(capsys.readouterr().err)
    # a field error names its location once; a file that is not UTF-8 names
    # the byte: one exact error line each
    assert errs[1:] == [
        "error: $.input.rank: expected an integer, got 'x'\n",
        "error: $: the text is not UTF-8 (invalid start byte at byte 0)\n",
    ]
    assert errs[0].startswith("error:")


def test_chi(capsys):
    assert main(["chi", "-g", "2", "--t1", "3,-2", "--t2", "2,1"]) == 0
    assert "= 1" in capsys.readouterr().out


def test_solve_lemma(capsys):
    assert main(["solve-lemma", "-g", "2", "-r", "2", "-d", "1"]) == 0
    out = capsys.readouterr().out
    assert "rF=3" in out and "dF=-2" in out

    assert main(["solve-lemma", "-g", "2", "-r", "3", "-d", "0"]) == 0
    assert "base case" in capsys.readouterr().out


def test_generic_hom(capsys):
    assert main(["generic-hom", "-g", "2", "--t1", "3,-2", "--t2", "2,1"]) == 0
    out = capsys.readouterr().out
    assert "= 1" in out and "surjective" in out

    assert main(["generic-hom", "-g", "2", "--t1", "1,1", "--t2", "1,0"]) == 0
    assert "not covered" in capsys.readouterr().out


def test_scan_splittings(capsys):
    assert main(["scan-splittings", "-g", "2", "--t1", "3,-2", "--t2", "2,1",
                 "--bound", "20"]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_bad_type_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "-g", "2", "--t1", "nope", "--t2", "2,1"])
    assert exc.value.code == 2
    assert "expected a type as 'rank,degree', got 'nope'" in capsys.readouterr().err


def test_type_that_is_not_a_sheaf_type_is_domain_error(capsys):
    assert main(["chi", "-g", "2", "--t1=-1,2", "--t2", "2,1"]) == 1
    assert "error: rank must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--t1", "0,1", "--t2", "1,0"], "scan needs positive ranks, got (0,1), (1,0)"),
        (["--t1", "3,-2", "--t2", "2,1", "--bound", "-1"], "degree bound must be >= 0, got -1"),
    ],
)
def test_scan_splittings_domain_errors(extra, message, capsys):
    assert main(["scan-splittings", "-g", "2", *extra]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_out_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    assert main(["reduce", "-g", "2", "-r", "2", "-d", "1", "--out", str(path)]) == 0
    assert "certificate VALID" in path.read_text()


def test_reduce_json_uses_document_encoding(capsys):
    assert main(["reduce", "-g", "2", "-r", "6", "-d", "4", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("field", [None, "dF", "rkV", "hecke_affine"])
def test_reduce_exit_code_is_the_verifiers_verdict(field, monkeypatch, capsys):
    # reduce is made to return a tampered trace, so that the JSON path, which
    # runs trace_ok, and the text path, which runs verify_trace, can fail
    doc = trace_to_dict(reduce(GenusContext(2), SheafType(6, 4)))
    if field is not None:
        doc["root"][field] += 1
    trace = trace_from_dict(doc)
    ok = verify_trace(trace, strict=False).ok
    assert ok is (field is None)
    monkeypatch.setattr("bunred.cli.reduce", lambda ctx, t: trace)
    args = ["reduce", "-g", "2", "-r", "6", "-d", "4", "--format"]
    assert main(args + ["text"]) == (0 if ok else 1)
    assert ("certificate VALID" in capsys.readouterr().out) is ok
    assert main(args + ["json"]) == (0 if ok else 1)
    doc["valid"] = ok
    assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "bad", [["--genus", "x", "--degree-range=0..1"], ["--genus", "2", "--degree-range=1..a"]]
)
def test_sweep_bad_range_is_usage_error(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--max-rank", "2", *bad])
    assert exc.value.code == 2
    assert "expected 'a..b' or 'a'" in capsys.readouterr().err


def test_sweep_low_genus_is_domain_error(capsys):
    # checked before the loop, so an empty rank range still reports it
    argv = ["sweep", "--genus", "1", "--max-rank", "0", "--degree-range=0..0"]
    assert main(argv) == 1
    assert "sweep genus values must be >= 2" in capsys.readouterr().err
    with pytest.raises(DomainError, match="sweep genus values must be >= 2"):
        cli._cmd_sweep(cli._parse_args(argv))


def _run_module(*argv, timeout=None):
    """`python -m bunred ARGV` in a subprocess, so an escaping exception shows
    as a traceback on stderr; `timeout` seconds as in subprocess.run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", "bunred", *argv], capture_output=True, text=True, env=env,
        timeout=timeout,
    )


def _mu1_chain(depth):
    """A trace document whose root has `depth` composite mu1 ancestors of a
    base node, written compactly so that its size grows linearly with depth
    (indented, it grows with the square of the depth)."""
    base = '{"kind": "base", "rank": 1, "degree": 0, "twist_degree": 0}'
    composite = ('{"kind": "composite", "rF": 1, "dF": 0, "r1": 1, "d1": 0, "h1": 1, '
                 '"rkV": 1, "rho_affine": 0, "hecke_affine": 0, "det_maps": [], '
                 f'"mu2": {base}, "mu1": ')
    root = composite * depth + base + "}" * depth
    return ('{"version": 1, "genus": 2, "input": {"rank": 1, "degree": 0}, "h": 1, '
            '"total_affine_dim": 0, "composite_det": {"sign": 1, "shift": 0}, '
            f'"root": {root}}}')


# The 20,000-level cases are refused by json.loads itself, which reads about
# 1,000 levels on 3.10 and 3.11, 1,500 on 3.12 and 10,000 on 3.13.  The
# 941-level tree is one level past serialize.MAX_TREE_DEPTH: json.loads reads
# it on every supported Python, and loads refuses it with the same error.
@pytest.mark.parametrize(
    "text",
    [
        "[" * 20_000 + "]" * 20_000,
        _mu1_chain(20_000),
        _mu1_chain(940),
    ],
    ids=["array", "mu1_chain", "mu1_chain_941"],
)
def test_verify_deeply_nested_document_is_an_error(tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    proc = _run_module("verify", str(path))
    assert proc.returncode == 1
    assert "error: $: document nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_integer_beyond_str_limit_is_an_error(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"version": ' + "9" * 5000 + "}")
    proc = _run_module("verify", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: $: integer of more than ")
    assert "Traceback" not in proc.stderr


def test_verify_file_that_is_not_utf8_is_an_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00")
    proc = _run_module("verify", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: $: the text is not UTF-8")
    assert "Traceback" not in proc.stderr


def test_reduce_deeper_than_recursion_limit_is_domain_error(tmp_path):
    # 300 digits with degree -1; the tree is 996 levels deep, more than a
    # trace document holds, so the document is refused and --out not made
    rank = 3 * 10**299 + 1
    out = tmp_path / "deep.json"
    proc = _run_module(
        "reduce", "-g", "2", "-r", str(rank), "-d", "-1", "--format", "json", "--out", str(out)
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: the reduction tree is deeper than the recursion limit")
    assert "600 digits" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "-r", "2", "-d", "1"],
        ["reduce", "-r", "2", "-d", "1", "--format", "json"],
        ["solve-lemma", "-r", "2", "-d", "1"],
        ["chi", "--t1", "2,1", "--t2", "3,1"],
    ],
    ids=["reduce_text", "reduce_json", "solve_lemma", "chi"],
)
def test_result_beyond_str_limit_is_an_error(argv):
    # the genus itself is within the limit; rkV, dF and chi are a digit longer
    genus = "9" * sys.get_int_max_str_digits()
    proc = _run_module(argv[0], "-g", genus, *argv[1:])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: a result has an integer of more than ")
    assert f"{sys.get_int_max_str_digits()} digits" in proc.stderr
    assert "Traceback" not in proc.stderr
