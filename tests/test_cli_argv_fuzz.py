"""Generated argv for all seven commands: cli.main ends in an exit code.

Each example runs cli.main in process on an argv list built from well-formed
and malformed values.  Whatever the input, cli.main either returns 0 or 1 or
raises SystemExit with code 0 (help) or 2 (usage error); no other exception
escapes.  Inputs are bounded so that every call is fast: sweep grids of at
most 12 ranks, 3 genera and 26 degrees, scan-splittings ranks and degrees
of at most 10**6 in absolute value with a bound of at most 2,000, and
integers of up to 30 digits elsewhere.  verify reads only the documents
written below, and --out names only paths in the same directory.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bunred import GenusContext, SheafType, cli, dumps, reduce  # noqa: E402

BIG = 10**30 - 1
JUNK = st.sampled_from(["", "x", "1.5", "--", "-", "1e3", "0x10", " 7", "1_0", "é", "٣", "-h"])
INTS = st.integers(-BIG, BIG).map(str)
SMALL_INTS = st.integers(-20, 20).map(str)
# a value is junk a quarter of the time
VALUE = st.one_of(INTS, SMALL_INTS, SMALL_INTS, JUNK)


def _pair(ints):
    pairs = st.tuples(ints, ints).map(lambda p: f"{p[0]},{p[1]}")
    return st.one_of(pairs, pairs, pairs, JUNK)


def _types(draw, t1, t2):
    """--t1 and --t2 given t1 and t2, as two arguments each or as
    '--t1=r,d', which argparse reads when r is negative."""
    if draw(st.booleans()):
        return [f"--t1={t1}", f"--t2={t2}"]
    return ["--t1", t1, "--t2", t2]


def _range(starts, span):
    """'a..b' with b - a <= span (or below a, an empty range), 'a', or junk."""
    return st.one_of(
        st.tuples(starts, st.integers(-2, span)).map(lambda p: f"{p[0]}..{p[0] + p[1]}"),
        starts.map(str),
        JUNK,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding a valid document, a tampered one and bytes that
    are not UTF-8; with the path of a missing file, the paths verify reads."""
    base = tmp_path_factory.mktemp("argv")
    doc = json.loads(dumps(reduce(GenusContext(2), SheafType(12, 5))))
    (base / "valid.json").write_text(json.dumps(doc))
    doc["root"]["rkV"] += 1
    (base / "tampered.json").write_text(json.dumps(doc))
    (base / "latin1.json").write_bytes('{"genus": "é"}'.encode("latin-1"))
    (base / "traces").mkdir()
    names = ["valid.json", "tampered.json", "latin1.json", "missing.json"]
    return base, [str(base / name) for name in names]


@st.composite
def _argv(draw, base, docs):
    command = draw(st.sampled_from(
        ["reduce", "sweep", "verify", "chi", "solve-lemma", "generic-hom", "scan-splittings"]
    ))
    args = [command]
    if command in ("reduce", "solve-lemma"):
        for opt in ("-g", "-r", "-d"):
            args += [opt, draw(VALUE)]
    elif command in ("chi", "generic-hom"):
        args += ["-g", draw(VALUE), *_types(draw, draw(_pair(VALUE)), draw(_pair(VALUE)))]
    elif command == "scan-splittings":
        # small ranks and a t2 of much larger slope often meet chi >= 0
        scan_ints = st.one_of(st.integers(-(10**6), 10**6), st.integers(1, 8)).map(str)
        t1, t2 = draw(_pair(scan_ints)), draw(_pair(scan_ints))
        if draw(st.booleans()):
            t1 = f"{draw(st.integers(1, 8))},{draw(st.integers(-20, 20))}"
            t2 = f"{draw(st.integers(1, 8))},{draw(st.integers(20, 10**6))}"
        args += ["-g", draw(st.one_of(st.integers(2, 4).map(str), VALUE)), *_types(draw, t1, t2)]
        args += ["--bound", draw(st.one_of(st.integers(-3, 2000).map(str), JUNK))]
    elif command == "sweep":
        max_rank = draw(st.integers(-1, 12))
        args += ["--genus", draw(_range(st.one_of(st.integers(-1, 6), st.integers(0, BIG)), 2))]
        args += ["--max-rank", str(max_rank)]
        args += ["--degree-range=" + draw(_range(st.integers(-BIG, BIG), 25))]
        if draw(st.booleans()):
            args.append("--no-verify")
        if max_rank <= 3 and draw(st.booleans()):
            args += ["--traces-dir", str(base / "traces")]
    else:
        args.append(draw(st.sampled_from(docs)))
    if command not in ("generic-hom", "scan-splittings") and draw(st.booleans()):
        args += ["--format", draw(st.sampled_from(["text", "json", "xml"]))]
    if draw(st.booleans()):
        args += ["--out", draw(st.sampled_from([str(base / "out.txt"), str(base)]))]
    # drop one argument, or add one that does not belong
    edit = draw(st.sampled_from(["none", "none", "none", "drop", "add"]))
    if edit == "drop" and len(args) > 1:
        del args[draw(st.integers(1, len(args) - 1))]
    elif edit == "add":
        extra = draw(st.one_of(JUNK, st.sampled_from(["--bound", "--genus", "-r", "extra"])))
        args.insert(draw(st.integers(0, len(args))), extra)
    return args


def test_every_argv_ends_in_an_exit_code(files):
    base, docs = files

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(argv=_argv(base, docs))
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv

    run()
