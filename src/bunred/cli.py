"""Command-line front end: reduce, sweep, verify, chi, solve-lemma,
generic-hom, scan-splittings.

Each command returns its output text and its verdict; main writes the text
to --out or stdout.  Exit codes: 0 success and (where applicable) valid
certificate, 1 domain error or invalid certificate, 2 usage error.

Building the argparse parser for all seven commands takes longer than a
small command's own work, so main parses a call that names a command with
that command's parser alone: no top-level parser and no sub-parsers action
are built.  The full parser runs when there is no command, when the first
argument is an option (such as -h) or names no command, and when the
command's parser leaves an argument unrecognized: that error comes from the
top-level parser, whose usage lists every command.  So usage, help and error
text are the full parser's, byte for byte.  No parser is kept between calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

from .diophantine import solve_lemma
from .errors import BaseCaseReached, BunredError, DomainError
from .euler import euler_form
from .generic_hom import generic_hom, generic_morphism_kind, no_bad_splitting_scan
from .reduction import (
    BaseStep,
    ReductionTrace,
    StepNode,
    VerificationReport,
    node_depth,
    reduce,
    report_rows,
    trace_ok,
    verify_trace,
)
# `trace_to_dict` is not called here; it stays importable as
# `cli.trace_to_dict`, a name that bench/tracer.py wraps.
from .serialize import dump, dumps, int_limit_error, load, trace_to_dict
from .types import GenusContext, SheafType


def _parse_pair(text: str) -> tuple[int, int]:
    """'rank,degree' as two ints; an argparse type, so a malformed pair is a
    usage error.  The commands build the SheafType, so a pair that is not a
    sheaf type (negative rank) stays a domain error."""
    try:
        rank_s, degree_s = text.split(",")
        return int(rank_s), int(degree_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a type as 'rank,degree', got {text!r}"
        ) from None


def _parse_range(text: str) -> range:
    """'a..b' inclusive, or a single value 'a'; an argparse type, so a bad
    range is a usage error."""
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a..b' or 'a', got {text!r}") from None
    return range(lo, hi + 1)


def format_trace_text(trace: ReductionTrace, report: VerificationReport | None) -> str:
    lines = [
        f"reduction: Bun{trace.input} -> Bun({trace.h},0)   genus {trace.genus}"
    ]

    # (node, its indent): one line per node occurrence, in pre-order
    todo: list[tuple[StepNode, str]] = [(trace.root, "  ")]
    while todo:
        node, pad = todo.pop()
        if isinstance(node, BaseStep):
            lines.append(
                f"{pad}Bun{node.t} --twist {node.twist_degree}--> "
                f"Bun({node.t.rank},0) ; +affine 0"
            )
            continue
        s = node.sol
        lines.append(
            f"{pad}Bun{node.t} --[{s.rF},{s.dF}]--> Gr_{s.h} over Bun({s.r1},{s.d1}) "
            f"; +affine {node.rho_affine + node.hecke_affine}"
        )
        pad += "  "
        todo.append((node.mu2, pad))
        todo.append((node.mu1, pad))
    m = trace.composite_det
    lines.append(
        f"  det ledger: {m.describe()} ; {trace.input.degree} -> {m.apply(trace.input.degree)}"
    )
    lines.append(f"  total affine dimension: {trace.total_affine_dim}")
    if report is not None:
        failed = report.failures()
        if not failed:
            lines.append(f"certificate VALID ({len(report.checks)} checks)")
        else:
            lines.append(f"certificate INVALID ({len(failed)} failed checks)")
            for c in failed:
                lines.append(f"  FAIL {c.path}: {c.name} {c.detail}")
    return "\n".join(lines) + "\n"


def _cmd_reduce(args: argparse.Namespace) -> tuple[str, bool]:
    ctx = GenusContext(args.genus)
    trace = reduce(ctx, SheafType(args.rank, args.degree))
    if args.format == "json":
        # the document records only the verdict, so no report is built
        ok = trace_ok(trace, {})
        return dumps(trace, valid=ok), ok
    report = verify_trace(trace, strict=False)
    return format_trace_text(trace, report), report.ok


def _cmd_sweep(args: argparse.Namespace) -> tuple[str, bool]:
    # empty ranges are allowed and sweep vacuously (exit 0, empty table)
    if any(g < 2 for g in args.genus):
        raise DomainError("sweep genus values must be >= 2")
    if args.traces_dir is not None:
        os.makedirs(args.traces_dir, exist_ok=True)
    # one (genus, rank, degree, h, n, depth, valid) tuple per case
    rows: list[tuple] = []
    all_valid = True
    for g in args.genus:
        ctx = GenusContext(g)
        # the cases of one genus share their subtrees: each type is built
        # once (built) and each built node verified once (verified)
        built: dict = {}
        verified: dict = {}
        for r in range(1, args.max_rank + 1):
            for d in args.degree_range:
                trace = reduce(ctx, SheafType(r, d), built=built)
                valid = True
                if not args.no_verify:
                    valid = trace_ok(trace, verified)
                all_valid &= valid
                rows.append(
                    (g, r, d, trace.h, trace.total_affine_dim, node_depth(trace.root), valid)
                )
                if args.traces_dir is not None:
                    dump(trace, os.path.join(args.traces_dir, f"trace_g{g}_r{r}_d{d}.json"))
    if args.format == "json":
        return _sweep_json(rows, all_valid), all_valid
    lines = [f"{'g':>3} {'r':>4} {'d':>5} {'h':>4} {'n':>6} {'depth':>6} valid"]
    for g, r, d, h, n, depth, valid in rows:
        lines.append(
            f"{g:>3} {r:>4} {d:>5} {h:>4} {n:>6} {depth:>6} {'yes' if valid else 'NO'}"
        )
    lines.append(f"{len(rows)} cases, {sum(1 for row in rows if row[-1])} valid")
    return "\n".join(lines) + "\n", all_valid


def _sweep_json(rows: list[tuple], all_valid: bool) -> str:
    """sweep's JSON table, written straight from the row tuples with one
    f-string per row.  The bytes equal ``json.dumps({"rows": [...], "cases":
    len(rows), "all_valid": all_valid}, indent=2) + "\\n"``, each row an object
    with the keys genus, rank, degree, h, n, depth and valid, in that order.
    """
    body = ",".join([
        f'\n    {{\n      "genus": {g},\n      "rank": {r},\n      "degree": {d},'
        f'\n      "h": {h},\n      "n": {n},\n      "depth": {depth},'
        f'\n      "valid": {"true" if valid else "false"}\n    }}'
        for g, r, d, h, n, depth, valid in rows
    ])
    table = f"[{body}\n  ]" if rows else "[]"
    verdict = "true" if all_valid else "false"
    return f'{{\n  "rows": {table},\n  "cases": {len(rows)},\n  "all_valid": {verdict}\n}}\n'


def _text_row(path: str, name: str, detail: str) -> str:
    return f"FAIL {path}: {name} ({detail})" if detail else f"PASS {path}: {name}"


def _json_row(path: str, name: str, detail: str) -> str:
    """One check of verify's JSON report, as json.dumps(..., indent=2) writes
    it in the "checks" list.  path and name are written raw: a path is
    "trace", or "root" followed by ".mu1" and ".mu2" parts, and a name comes
    from reduction's fixed check tables, so neither holds a character JSON
    escapes.  The detail is free text, escaped as json.dumps escapes it."""
    return (
        f'\n    {{\n      "path": "{path}",\n      "name": "{name}",'
        f'\n      "passed": {"false" if detail else "true"},'
        f'\n      "detail": {encode_basestring_ascii(detail)}\n    }}'
    )


def _cmd_verify(args: argparse.Namespace) -> tuple[str, bool]:
    """Each row of the report is formatted as its check returns.  The JSON
    bytes equal ``json.dumps({"valid": ok, "checks": [...]}, indent=2) +
    "\\n"``, each check an object with the keys path, name, passed and
    detail, in that order."""
    trace = load(args.file)
    if args.format == "json":
        rows, ok = report_rows(trace, _json_row)
        # never empty: the pass always reports the trace's domain checks
        checks = ",".join(rows)
        return f'{{\n  "valid": {"true" if ok else "false"},\n  "checks": [{checks}\n  ]\n}}\n', ok
    rows, ok = report_rows(trace, _text_row)
    rows.append(f"certificate {'VALID' if ok else 'INVALID'} ({len(rows)} checks)")
    return "\n".join(rows) + "\n", ok


def _cmd_chi(args: argparse.Namespace) -> tuple[str, bool]:
    ctx = GenusContext(args.genus)
    t1, t2 = SheafType(*args.t1), SheafType(*args.t2)
    value = euler_form(ctx, t1, t2)
    if args.format == "json":
        doc = {"genus": args.genus, "t1": str(t1), "t2": str(t2), "chi": value}
        return json.dumps(doc) + "\n", True
    return f"chi({t1}, {t2}; g={args.genus}) = {value}\n", True


def _cmd_solve_lemma(args: argparse.Namespace) -> tuple[str, bool]:
    ctx = GenusContext(args.genus)
    t = SheafType(args.rank, args.degree)
    try:
        sol = solve_lemma(ctx, t)
    except BaseCaseReached:
        if args.format == "json":
            doc = {"base_case": True, "twist_degree": -(t.degree // t.rank)}
            return json.dumps(doc) + "\n", True
        return f"Bun{t}: base case (rank = hcf); reduction is a twist\n", True
    if args.format == "json":
        doc = {"rF": sol.rF, "dF": sol.dF, "r1": sol.r1, "d1": sol.d1, "h": sol.h, "h1": sol.h1}
        return json.dumps(doc) + "\n", True
    return f"Bun{t}: rF={sol.rF} dF={sol.dF} r1={sol.r1} d1={sol.d1} h={sol.h} h1={sol.h1}\n", True


def _cmd_generic_hom(args: argparse.Namespace) -> tuple[str, bool]:
    ctx = GenusContext(args.genus)
    t1, t2 = SheafType(*args.t1), SheafType(*args.t2)
    rep = generic_hom(ctx, t1, t2)
    if not rep.covered:
        return f"hom({t1}, {t2}; g={args.genus}): not covered (chi < 0)\n", True
    kind = ""
    if rep.hom_dim >= 1:
        kind = f" ; generic morphism: {generic_morphism_kind(ctx, t1, t2).value}"
    return f"hom({t1}, {t2}; g={args.genus}) = {rep.hom_dim}, ext = {rep.ext_dim}{kind}\n", True


def _cmd_scan_splittings(args: argparse.Namespace) -> tuple[str, bool]:
    ctx = GenusContext(args.genus)
    t1, t2 = SheafType(*args.t1), SheafType(*args.t2)
    rep = no_bad_splitting_scan(ctx, t1, t2, args.bound)
    return (
        f"scan({t1}, {t2}; g={args.genus}, bound={args.bound}): "
        f"{rep.examined} splittings examined, {rep.violations} violations\n"
    ), True


def _type_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--genus", "-g", type=int, required=True)
    p.add_argument("--rank", "-r", type=int, required=True)
    p.add_argument("--degree", "-d", type=int, required=True)


def _pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--genus", "-g", type=int, required=True)
    p.add_argument("--t1", type=_parse_pair, required=True, metavar="r,d")
    p.add_argument("--t2", type=_parse_pair, required=True, metavar="r,d")


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--genus", "-g", type=_parse_range, required=True, metavar="a|a..b")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--degree-range", type=_parse_range, required=True, metavar="a..b")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--traces-dir", metavar="DIR")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")


# name -> (help, handler, adds the command's own arguments); the usage lists
# the commands in this order
_COMMANDS = {
    "reduce": ("build and verify one reduction certificate", _cmd_reduce, _type_args),
    "sweep": ("run a grid of reductions and tabulate", _cmd_sweep, _sweep_args),
    "verify": ("verify a serialized trace document", _cmd_verify, _verify_args),
    "chi": ("evaluate the Euler form chi(t1, t2)", _cmd_chi, _pair_args),
    "solve-lemma": ("solve the window equation for one type", _cmd_solve_lemma, _type_args),
    "generic-hom": (
        "generic Hom/Ext dimensions for a pair of types", _cmd_generic_hom, _pair_args
    ),
    "scan-splittings": (
        "exhaustive bad-splitting scan for a pair", _cmd_scan_splittings, _pair_args
    ),
}


def _add_command_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """Everything command `name` parses, on `p`: the one place each
    command's arguments are defined."""
    _, func, add_args = _COMMANDS[name]
    add_args(p)
    p.set_defaults(func=func)
    # every command writes to --out or stdout; generic-hom and
    # scan-splittings print text only
    p.add_argument("--out", metavar="FILE")
    if name not in ("generic-hom", "scan-splittings"):
        p.add_argument("--format", choices=("text", "json"), default="text")
    if name == "scan-splittings":
        # after --out, where the usage has always listed it
        p.add_argument("--bound", type=int, default=20)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command's sub-parser under `bunred`."""
    parser = argparse.ArgumentParser(
        prog="bunred",
        description="Exact-arithmetic reduction certificates for moduli stacks "
        "of vector bundles on curves.",
    )
    # the sub-parsers' prog prefix; left out, argparse formats the whole usage
    # on every call only to derive it
    sub = parser.add_subparsers(dest="command", required=True, prog="bunred")
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """Command `name`'s parser on its own, with the prog its sub-parser has
    in the full parser; its namespaces equal the full parser's."""
    p = argparse.ArgumentParser(prog=f"bunred {name}")
    _add_command_arguments(p, name)
    p.set_defaults(command=name)
    return p


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The full parser's namespace for `argv`.  A call naming a command is
    parsed by that command's parser alone; only when that parser leaves an
    argument unrecognized, or there is no command to name, does the full
    parser run, so usage, help and error text equal the full parser's."""
    if argv and argv[0] in _COMMANDS:
        args, unrecognized = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not unrecognized:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        text, ok = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return 0 if ok else 1
    except (BunredError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # The text writers print an integer longer than Python's int-to-str
        # limit (a result can be a few digits longer than the inputs); the
        # document writer raises int_limit_error() itself.  Any other
        # ValueError is a bug and keeps its traceback.
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: {int_limit_error()}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
