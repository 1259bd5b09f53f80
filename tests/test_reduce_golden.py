"""Golden pins of what reduce builds.

For each band of rank sizes (6, 30, 100 and 300 decimal digits), one seeded
type per genus 2..4 is reduced, and two sha256 digests are taken over the
three of them, in genus order: one of `dumps(reduce(...))`, one of the text
that `bunred reduce` prints (tree, determinant ledger, total and verdict).

The digests were recorded from the recursive builder that solved every
occurrence of a repeated subtree again, so a builder that shares subtrees
must write the same bytes.

A third digest per band, of what `bunred reduce --format json` prints
(the document with its "valid" verdict), was recorded when that command
still built the document as a dict, verified with `verify_trace` and
encoded the dict, so the writer that works straight from the tree must
print the same bytes.
"""

import hashlib
import random

import pytest

from bunred import GenusContext, SheafType, dumps, reduce
from bunred.cli import main

PINS = {
    6: (
        "7805f6eeeb3c8f254a12dc43149dd3b3658b2f882bade962ecb0a8ed1d301814",
        "6bce4bdec00d6848fabd05bfe2e09453b937f41469032bca3fab30637a1c9a2c",
    ),
    30: (
        "100711c03d14f63dc12f05340b5f690717e50155fb742d2ea889b7cfbb79a3c6",
        "e3461516aaa27eb518fc33624ee37e9b22598e4b06b4ed7ebca7834ebaf786f9",
    ),
    100: (
        "ae9783898277fcbe35c263713001a7c60f9d38af600651537cd91a18a5086f78",
        "76b6fdab2be76b4ed0b6537efc15b8c9771a81aedc0646457baba0b8180a66fb",
    ),
    300: (
        "e5cbdf576190b88afba890e68843a7ecda230090bcc3135fa2414d22a9e5bfc5",
        "4a80ea9f0549c3353f34d4bd95a34fc773130606c4a688e51753710937690d49",
    ),
}

CLI_JSON_PINS = {
    6: "d518a9c6886396f3614e29397d68c77b01c387c856446447d09047bc6f98d590",
    30: "ce73baaed2081efd116e7b3fbe831ea1c90b8104afba63e40585bfc39c5e808a",
    100: "b45cf2a0e5f5b22e02e989b0dd75b9b7b1afd39d2b811c7f7b75dc9cf7cfaa9d",
    300: "3f92cccc34b595394fb575a30efdf19865c367a80a9e6e6d7cdd4c1d878151c2",
}


def _seeded_type(digits, genus):
    rng = random.Random(f"reduce-golden/{digits}/{genus}")
    while True:
        rank = rng.randrange(10 ** (digits - 1), 10**digits)
        degree = rng.randrange(-rank, rank)
        if degree % rank:  # not a base step
            return rank, degree


@pytest.mark.parametrize("digits", sorted(PINS))
def test_reduce_output_is_pinned(digits, capsys):
    json_digest = hashlib.sha256()
    text_digest = hashlib.sha256()
    for g in range(2, 5):
        rank, degree = _seeded_type(digits, g)
        json_digest.update(dumps(reduce(GenusContext(g), SheafType(rank, degree))).encode())
        assert main(["reduce", "-g", str(g), "-r", str(rank), "-d", str(degree)]) == 0
        text_digest.update(capsys.readouterr().out.encode())
    assert (json_digest.hexdigest(), text_digest.hexdigest()) == PINS[digits]


@pytest.mark.parametrize("digits", sorted(CLI_JSON_PINS))
def test_reduce_json_output_is_pinned(digits, capsys):
    digest = hashlib.sha256()
    for g in range(2, 5):
        rank, degree = _seeded_type(digits, g)
        args = ["reduce", "-g", str(g), "-r", str(rank), "-d", str(degree), "--format", "json"]
        assert main(args) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == CLI_JSON_PINS[digits]
