"""JSON output variants and cross-command pipelines."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from bunred import GenusContext, SheafType, cli, dumps, reduce
from bunred.cli import build_parser, main


def test_solve_lemma_json(capsys):
    assert main(["solve-lemma", "-g", "2", "-r", "4", "-d", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"rF": 3, "dF": -2, "r1": 2, "d1": -6, "h": 2, "h1": 2}
    # a 300-digit composite type: the solution satisfies the window lemma
    g, r, d = 3, 10**299 + 3, 2
    assert main(["solve-lemma", "-g", str(g), "-r", str(r), "-d", str(d), "--format", "json"]) == 0
    s = json.loads(capsys.readouterr().out)
    h = math.gcd(r, d)
    assert h < r
    assert (1 - g) * s["rF"] * r + s["rF"] * d - r * s["dF"] == h
    assert r < h * s["rF"] < 2 * r
    assert (s["r1"], s["d1"]) == (h * s["rF"] - r, h * s["dF"] - d)
    assert s["h"] == h and s["h1"] == math.gcd(s["r1"], s["d1"]) and s["h1"] % h == 0
    assert s["r1"] * h < r * s["h1"]


def test_chi_json(capsys):
    assert main(["chi", "-g", "2", "--t1", "2,1", "--t2", "2,1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["chi"] == -4


def test_verify_json_report(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    assert main(["reduce", "-g", "3", "-r", "3", "-d", "1", "--format", "json",
                 "--out", str(trace_path)]) == 0
    capsys.readouterr()
    # the reduce JSON document with its extra "valid" key still parses as a trace
    assert main(["verify", str(trace_path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_sweep_traces_feed_verify(tmp_path, capsys):
    traces = tmp_path / "traces"
    assert main(["sweep", "--genus", "2", "--max-rank", "4", "--degree-range=1..2",
                 "--traces-dir", str(traces)]) == 0
    capsys.readouterr()
    for p in sorted(traces.iterdir()):
        assert main(["verify", str(p)]) == 0
        capsys.readouterr()


def test_sweep_no_verify(capsys):
    assert main(["sweep", "--genus", "2", "--max-rank", "3", "--degree-range=0..2",
                 "--no-verify"]) == 0
    out = capsys.readouterr().out
    assert "9 cases, 9 valid" in out


def test_module_entry_point(monkeypatch, capsys):
    # the subprocess imports bunred from this checkout, installed or not
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "bunred", *argv],
                              capture_output=True, text=True)

    proc = run("chi", "-g", "2", "--t1", "3,-2", "--t2", "2,1")
    assert proc.returncode == 0
    assert "= 1" in proc.stdout
    # main reads sys.argv itself; its usage errors are the full parser's, at
    # one width in and out of process
    monkeypatch.setenv("COLUMNS", "80")
    for argv in ([], ["bogus"]):
        proc = run(*argv)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", capsys.readouterr().err)
        assert exc.value.code == 2
    argv = ["scan-splittings", "-g", "2", "--t1", "3,-2", "--t2", "2,1", "--bound", "30"]
    proc = run(*argv)
    assert main(argv) == proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["chi", "-g", "2", "--t1", "1,0", "--t2", "1,1"],
    ["chi", "-g", "2", "--t1", "-1,0", "--t2", "1,1"],
    ["bogus"],
    ["chi", "-g", "2", "--t1=-1,0", "--t2", "1,1"],
], ids=["ok", "domain_error", "usage_error", "negative_pair_equals_form"])
def test_cli_module_runs_as_the_package_does(argv, monkeypatch):
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
    monkeypatch.setenv("COLUMNS", "80")
    runs = [
        subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True)
        for module in ("bunred", "bunred.cli")
    ]
    package, module = ((p.returncode, p.stdout, p.stderr) for p in runs)
    assert module == package
    assert package[0] != 0 or package[1]


def test_solve_lemma_json_on_a_base_type(capsys):
    # rank = hcf: no window solution, one JSON object naming the twist
    assert main(["solve-lemma", "-g", "2", "-r", "3", "-d", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"base_case": True, "twist_degree": 0}
    assert main(["solve-lemma", "-g", "3", "-r", "2", "-d", "-6", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"base_case": True, "twist_degree": 3}


@pytest.mark.parametrize("command", ["generic-hom", "scan-splittings"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_format_is_a_usage_error_where_there_is_no_json(command, fmt):
    # these commands print text only, so they take no --format
    with pytest.raises(SystemExit) as exc:
        main([command, "-g", "2", "--t1", "3,-2", "--t2", "2,1", "--format", fmt])
    assert exc.value.code == 2


# {good} and {bad} stand for a valid and a tampered trace document
OUT_CASES = {
    "reduce": ["reduce", "-g", "2", "-r", "12", "-d", "7"],
    "sweep": ["sweep", "-g", "2..3", "--max-rank", "4", "--degree-range=-3..3"],
    "verify": ["verify", "{good}"],
    "verify_tampered": ["verify", "{bad}"],
    "chi": ["chi", "-g", "2", "--t1", "2,1", "--t2", "3,-1"],
    "solve_lemma": ["solve-lemma", "-g", "2", "-r", "4", "-d", "2"],
    "solve_lemma_base": ["solve-lemma", "-g", "2", "-r", "3", "-d", "0"],
}


def _out_cases():
    for name, argv in OUT_CASES.items():
        for fmt in ("text", "json"):
            yield pytest.param(argv + ["--format", fmt], id=f"{name}-{fmt}")
    yield pytest.param(["generic-hom", "-g", "2", "--t1", "1,0", "--t2", "1,3"], id="generic_hom")
    yield pytest.param(["scan-splittings", "-g", "2", "--t1", "2,1", "--t2", "1,5", "--bound", "5"],
                       id="scan_splittings")


@pytest.mark.parametrize("argv", _out_cases())
def test_out_file_gets_the_bytes_stdout_would(argv, tmp_path, capsys):
    text = dumps(reduce(GenusContext(2), SheafType(3, 1)))
    (tmp_path / "good.json").write_text(text, encoding="utf-8")
    doc = json.loads(text)
    doc["root"]["rkV"] += 1
    (tmp_path / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = [a.format(good=tmp_path / "good.json", bad=tmp_path / "bad.json") for a in argv]

    code = main(argv)
    stdout, stderr = capsys.readouterr()
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr() == ("", stderr)
    assert out.read_bytes() == stdout.encode("utf-8")
    assert stdout
    assert code == (1 if "bad.json" in argv[1] else 0)  # only the tampered document fails


def test_trace_text_lists_each_failed_check_once(monkeypatch, capsys):
    trace = reduce(GenusContext(2), SheafType(2, 1))
    bad = replace(trace, root=replace(trace.root, rkV=5))
    monkeypatch.setattr(cli, "reduce", lambda ctx, t: bad)
    assert main(["reduce", "-g", "2", "-r", "2", "-d", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "certificate INVALID (3 failed checks)",
        "  FAIL root: hom_bundle_rank stored rkV=5 is not chi((r1,d1),(rF,dF))",
        "  FAIL root: dimension_identity (g-1)r^2 = 4 != (g-1)r1^2 + h(rkV-h)",
        "  FAIL root: rho_affine stored 3, expected 1*(5-1)",
    ]
