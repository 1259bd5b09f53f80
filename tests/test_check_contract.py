"""The verifier's check contract.

Each entry of the six check tables in bunred.reduction is (name, check), and
a check returns "" when it holds and its failure detail, a non-empty str,
otherwise.  A check that returned a bool would read False as a pass, so here
every check is called directly, through the verifier's own pass, on every
certificate of the grid genus 2..3, rank <= 6, |degree| <= 6 and on every
+-1 change of one of its integers, and its value is compared with the row
verify_trace reports for it.
"""

import pytest

from bunred import GenusContext, ParseError, SheafType, reduce, trace_from_dict, trace_to_dict
from bunred import reduction, verify_trace

TABLES = (
    reduction._TRACE_DOMAIN_CHECKS,
    reduction._TRACE_HEAD_CHECKS,
    reduction._TRACE_TAIL_CHECKS,
    reduction._NODE_DOMAIN_CHECKS,
    reduction._BASE_CHECKS,
    reduction._COMPOSITE_CHECKS,
)
NAMES = {name for table in TABLES for name, _ in table}


def _calls(trace):
    """(path, name, value) of every check the verifier's pass calls on trace,
    in report order; value is what the check returned, or the exception it
    raised.  A table gates the rest of the pass only if each check in it
    returned exactly ""."""
    calls = []

    def run(path, checks, args):
        held = True
        for name, check in checks:
            try:
                value = check(*args)
            except Exception as exc:  # noqa: BLE001 - the verifier counts it failed
                value = exc
            calls.append((path, name, value))
            held = held and value.__class__ is str and value == ""
        return held

    reduction._check_trace(trace, run, {})
    return calls


def _as_rows(calls):
    """The report rows the calls stand for: a check passes on "" only."""
    rows = []
    for path, name, value in calls:
        if isinstance(value, Exception):
            rows.append((path, name, False, f"not evaluable: {value}"))
        else:
            rows.append((path, name, value == "", value))
    return rows


def _report_rows(trace):
    return [tuple(c) for c in verify_trace(trace, strict=False).checks]


def _int_paths(doc, prefix=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _int_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _int_paths(value, prefix + (i,))
    elif isinstance(doc, int) and not isinstance(doc, bool):
        yield prefix


def _grid(g):
    for r in range(1, 7):
        for d in range(-6, 7):
            yield reduce(GenusContext(g), SheafType(r, d))


def test_every_table_entry_is_a_name_and_a_function():
    for table in TABLES:
        for entry in table:
            assert len(entry) == 2
            name, check = entry
            assert name.__class__ is str and callable(check)
    assert len(NAMES) == 23


@pytest.mark.parametrize("g", [2, 3])
def test_every_check_returns_the_empty_str_on_valid_certificates(g):
    called = set()
    for trace in _grid(g):
        calls = _calls(trace)
        assert [v for _, _, v in calls if v.__class__ is not str or v != ""] == []
        assert _as_rows(calls) == _report_rows(trace)
        called.update(name for _, name, _ in calls)
    assert called == NAMES


@pytest.mark.parametrize("g", [2, 3])
def test_every_check_returns_a_str_on_tampered_certificates(g):
    """Every +-1 change of one integer of every document of the grid: a check
    that does not raise returns a str, and the report is what it returned."""
    tampered = failed = 0
    for trace in _grid(g):
        doc = trace_to_dict(trace)
        for path in _int_paths(doc):
            cursor = doc
            for key in path[:-1]:
                cursor = cursor[key]
            for delta in (-1, 1):
                cursor[path[-1]] += delta
                try:
                    bad = trace_from_dict(doc)
                except ParseError:
                    continue
                finally:
                    cursor[path[-1]] -= delta
                calls = _calls(bad)
                for _, _, value in calls:
                    assert value.__class__ is str or isinstance(value, Exception), value
                assert _as_rows(calls) == _report_rows(bad)
                tampered += 1
                failed += any(value != "" for _, _, value in calls)
    # the ones that pass are the genus changes of twist certificates (r | d)
    assert tampered > 2000 and 0 < tampered - failed < 100
