"""`main` parses a call that names a command with that command's parser
alone, and the full parser only as a fallback; its usage, help and error
text must stay the full parser's, and no call may leave state behind for the
next."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bunred import cli
from bunred.cli import main

# one valid argv per command; verify's file need not exist to parse
VALID = {
    "reduce": ["reduce", "-g", "2", "-r", "5", "-d", "3"],
    "sweep": ["sweep", "-g", "2", "--max-rank", "3", "--degree-range=-1..1"],
    "verify": ["verify", "missing.json"],
    "chi": ["chi", "-g", "2", "--t1", "3,-2", "--t2", "2,1"],
    "solve-lemma": ["solve-lemma", "-g", "2", "-r", "4", "-d", "2"],
    "generic-hom": ["generic-hom", "-g", "2", "--t1", "3,-2", "--t2", "2,1"],
    "scan-splittings": ["scan-splittings", "-g", "2", "--t1", "3,-2", "--t2", "2,1"],
}
# a valid argv with one argument's value malformed: a pair, a range or an int
MALFORMED = {
    "reduce": ["reduce", "-g", "2", "-r", "five", "-d", "3"],
    "sweep": ["sweep", "-g", "2", "--max-rank", "3", "--degree-range=-1..x"],
    "chi": ["chi", "-g", "2", "--t1", "3", "--t2", "2,1"],
    "solve-lemma": ["solve-lemma", "-g", "two", "-r", "4", "-d", "2"],
    "generic-hom": ["generic-hom", "-g", "2", "--t1", "3,-2", "--t2", "2;1"],
    "scan-splittings": ["scan-splittings", "-g", "2", "--t1", "x,y", "--t2", "2,1"],
}


def _missing_required(name):
    """`name`'s valid argv with a required argument left out: verify's file,
    the others' --genus."""
    return [name, "--format", "json"] if name == "verify" else [name, *VALID[name][3:]]


def _command_cases(name):
    valid = VALID[name]
    yield valid
    yield [name, "-h"]
    yield [name]
    yield _missing_required(name)
    yield valid + ["--bogus"]
    yield valid + ["extra"]
    # generic-hom and scan-splittings take no --format at all
    yield valid + ["--format", "xml"]
    if name in MALFORMED:
        yield MALFORMED[name]


ARGV_CASES = [argv for name in VALID for argv in _command_cases(name)] + [
    [], ["-h"], ["--help"], ["bogus"], ["reduc"], ["-h", "reduce"], ["--out", "x", "reduce"],
    # argparse's less common paths, through the command's parser alone
    ["reduce", "--gen", "2", "-r", "5", "-d", "3"],
    ["reduce", "-g2", "-r", "5", "-d", "3"],
    ["reduce", "-g", "2", "-r", "5", "--degree=-3"],
    ["reduce", "-g", "2", "-r", "5", "-d", "3", "-d", "4"],
    ["chi", "--out", os.devnull, "-g", "2", "--t1", "3,-2", "--t2", "2,1"],
    ["verify", "--", "-x.json"],
    ["reduce", "-g", "2", "-r", "5", "-h"],
]


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of `main(argv)`."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", ARGV_CASES, ids=lambda argv: " ".join(argv) or "no arguments")
def test_output_is_the_full_parsers(argv, monkeypatch, capsys):
    got = _outcome(argv, capsys)
    # the full parser for every call: what main did before it built one
    # sub-parser, on this interpreter's argparse
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    assert got == _outcome(argv, capsys)


@pytest.mark.parametrize("name", VALID)
def test_a_valid_call_builds_its_commands_parser_alone(name, monkeypatch):
    # equal outputs cannot show a silent fall-back to the full parser, so
    # count the parsers each call builds, by prog
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.prog)

    argv = VALID[name]
    full = vars(cli.build_parser().parse_args(argv))
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert vars(cli._parse_args(argv)) == full
    assert full["command"] == name
    assert built == [f"bunred {name}"]
    # an argument the command does not take: its parser, then the full one
    # (the top level and one sub-parser per command)
    built.clear()
    with pytest.raises(SystemExit):
        cli._parse_args(argv + ["--bogus"])
    assert built[:2] == [f"bunred {name}", "bunred"]
    assert len(built) == 2 + len(VALID)


@pytest.mark.parametrize("name", VALID)
def test_a_commands_errors_name_it(name, capsys):
    # the full parser on both sides of the comparison above cannot see the
    # sub-parsers' prog, so it is pinned here, through main and through the
    # full parser
    argv = _missing_required(name)
    code, _, main_err = _outcome(argv, capsys)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    parser_err = capsys.readouterr().err
    assert code == 2
    for err in (main_err, parser_err):
        assert err.startswith(f"usage: bunred {name} ")
        assert err.splitlines()[-1].startswith(f"bunred {name}: error: ")


def _run_module(argv):
    """`python -m bunred ARGV` in a fresh process: (exit code, stdout, stderr)
    as bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-m", "bunred", *argv], capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_every_command_twice_in_one_process_prints_a_fresh_processs_bytes(tmp_path, capsys):
    doc = tmp_path / "trace.json"
    assert main(["reduce", "-g", "2", "-r", "12", "-d", "7", "--format", "json",
                 "--out", str(doc)]) == 0
    capsys.readouterr()
    cases = {**VALID, "verify": ["verify", str(doc)]}
    # both rounds go through the same main, command after command
    rounds = []
    for _ in range(2):
        outcomes = {}
        for name, argv in cases.items():
            code, out, err = _outcome(argv, capsys)
            outcomes[name] = (code, out.encode("utf-8"), err.encode("utf-8"))
        rounds.append(outcomes)
    for name, argv in cases.items():
        assert rounds[0][name] == rounds[1][name] == _run_module(argv), name
