"""Golden pin of the verifier's complete output.

Every (path, name, passed, detail) row that verify_trace(strict=False)
reports is hashed, in order, over two sets of traces:

* every certificate of the grid genus 2..4, rank <= 12, |degree| <= 12;
* every single integer field of the trace documents of the grid genus 2..3,
  rank <= 6, |degree| <= 6 moved by -1, +1 or +2 (documents that no longer
  parse are skipped; the rest are verified as parsed).

The digests were recorded from the recursive, closure-per-check verifier,
so any change to a check's name, order, path, result or failure detail
shows here.
"""

import hashlib

from bunred import (
    GenusContext,
    ParseError,
    SheafType,
    reduce,
    trace_from_dict,
    trace_to_dict,
    verify_trace,
)

GRID_ROWS = 33208
GRID_DIGEST = "7afe24c6efbce6f1944b1d32b6c383254c5414103f00228c19d286a540c485bb"
PERTURBED_TRACES = 10411
PERTURBED_ROWS = 378508
PERTURBED_DIGEST = "78c098afa88a2ff46d18b2bea64e3aea36569a1d4f7589fbb0129290f02a1cd9"

DELTAS = (-1, 1, 2)


def _feed(digest, label, trace):
    digest.update(f"# {label}\n".encode())
    report = verify_trace(trace, strict=False)
    for c in report.checks:
        digest.update(f"{c.path}\t{c.name}\t{c.passed}\t{c.detail}\n".encode())
    return len(report.checks)


def _int_slots(doc):
    """(container, key, label) for every integer field of a document."""
    stack = [(doc, "$")]
    while stack:
        container, label = stack.pop()
        keys = sorted(container) if isinstance(container, dict) else range(len(container))
        for key in keys:
            value = container[key]
            if isinstance(value, (dict, list)):
                stack.append((value, f"{label}.{key}"))
            elif isinstance(value, int) and not isinstance(value, bool):
                yield container, key, f"{label}.{key}"


def test_grid_rows_are_pinned():
    digest = hashlib.sha256()
    rows = 0
    for g in range(2, 5):
        ctx = GenusContext(g)
        for r in range(1, 13):
            for d in range(-12, 13):
                rows += _feed(digest, f"g{g} ({r},{d})", reduce(ctx, SheafType(r, d)))
    assert (rows, digest.hexdigest()) == (GRID_ROWS, GRID_DIGEST)


def test_perturbed_rows_are_pinned():
    digest = hashlib.sha256()
    traces = rows = 0
    for g in (2, 3):
        ctx = GenusContext(g)
        for r in range(1, 7):
            for d in range(-6, 7):
                doc = trace_to_dict(reduce(ctx, SheafType(r, d)))
                for container, key, label in list(_int_slots(doc)):
                    value = container[key]
                    for delta in DELTAS:
                        container[key] = value + delta
                        try:
                            trace = trace_from_dict(doc)
                        except ParseError:
                            continue
                        finally:
                            container[key] = value
                        traces += 1
                        rows += _feed(digest, f"g{g} ({r},{d}) {label}{delta:+d}", trace)
    assert (traces, rows, digest.hexdigest()) == (
        PERTURBED_TRACES,
        PERTURBED_ROWS,
        PERTURBED_DIGEST,
    )
