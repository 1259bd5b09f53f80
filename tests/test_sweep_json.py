"""`sweep --format json` writes the bytes of `json.dumps(indent=2)`.

The table is written straight from the row tuples, one f-string per row.
Each case here compares it with `json.dumps({"rows": rows, "cases": n,
"all_valid": v}, indent=2) + "\\n"`, its rows made by reducing every case on
its own and verifying it with a full verify_trace report.
"""

import json

import pytest

from bunred import GenusContext, SheafType, node_depth, reduce, verify_trace
from bunred.cli import _sweep_json, main

FIELDS = ("genus", "rank", "degree", "h", "n", "depth", "valid")


def _stdlib_table(rows, all_valid):
    doc = {"rows": rows, "cases": len(rows), "all_valid": all_valid}
    return json.dumps(doc, indent=2) + "\n"


def _expected(genera, max_rank, degrees, verify=True):
    rows = []
    for g in genera:
        for r in range(1, max_rank + 1):
            for d in degrees:
                trace = reduce(GenusContext(g), SheafType(r, d))
                valid = verify_trace(trace, strict=False).ok if verify else True
                rows.append(dict(zip(FIELDS, (
                    g, r, d, trace.h, trace.total_affine_dim, node_depth(trace.root), valid
                ))))
    return _stdlib_table(rows, all(row["valid"] for row in rows))


# (test id, sweep arguments, the genera, ranks 1..max_rank and degrees they
# sweep, whether it verifies)
CASES = [
    ("empty-degrees", ["--genus", "2", "--max-rank", "3", "--degree-range=1..0"],
     [2], 3, range(1, 1), True),
    ("empty-ranks", ["--genus", "2..3", "--max-rank", "0", "--degree-range=-2..2"],
     [2, 3], 0, range(-2, 3), True),
    ("single-case", ["--genus", "2", "--max-rank", "1", "--degree-range=-3"],
     [2], 1, [-3], True),
    ("multi-genus-negative", ["--genus", "2..4", "--max-rank", "6", "--degree-range=-9..-1"],
     range(2, 5), 6, range(-9, 0), True),
    ("no-verify", ["--genus", "2..3", "--max-rank", "5", "--degree-range=-4..4", "--no-verify"],
     range(2, 4), 5, range(-4, 5), False),
]


@pytest.mark.parametrize(
    "argv,genera,max_rank,degrees,verify", [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_sweep_json_equals_stdlib_indent(argv, genera, max_rank, degrees, verify, capsys):
    assert main(["sweep", *argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == _expected(genera, max_rank, degrees, verify)
    assert json.loads(out)["cases"] == len(genera) * max_rank * len(degrees)


@pytest.mark.parametrize(
    "rows,all_valid",
    [
        ([], False),
        ([(2, 1, 0, 1, 0, 1, False)], False),
        ([(2, 3, -1, 1, 8, 2, True), (5, 4, -8, 4, 0, 1, False)], False),
        ([(4, 12, -10, 2, 420, 5, True), (3, 1, 7, 1, 0, 1, True)], True),
        # an unverified table may call a failed case valid, and the other way
        ([(2, 2, 1, 1, 3, 2, False)], True),
    ],
)
def test_private_writer_equals_stdlib_indent(rows, all_valid):
    dicts = [dict(zip(FIELDS, row)) for row in rows]
    assert _sweep_json(rows, all_valid) == _stdlib_table(dicts, all_valid)
