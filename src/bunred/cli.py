"""Command-line front end: reduce, sweep, verify, chi, solve-lemma,
generic-hom, scan-splittings.

Exit codes: 0 success and (where applicable) valid certificate, 1 domain
error or invalid certificate, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .diophantine import solve_lemma
from .errors import BaseCaseReached, BunredError
from .euler import euler_form
from .generic_hom import generic_hom, generic_morphism_kind, no_bad_splitting_scan
from .reduction import (
    BaseStep,
    ReductionTrace,
    StepNode,
    VerificationReport,
    node_depth,
    reduce,
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
        if report.ok:
            lines.append(f"certificate VALID ({len(report.checks)} checks)")
        else:
            lines.append(f"certificate INVALID ({len(report.failures())} failed checks)")
            for c in report.failures():
                lines.append(f"  FAIL {c.path}: {c.name} {c.detail}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_reduce(args: argparse.Namespace) -> int:
    ctx = GenusContext(args.genus)
    trace = reduce(ctx, SheafType(args.rank, args.degree))
    if args.format == "json":
        # the document records only the verdict, so no report is built
        ok = trace_ok(trace, {})
        _emit(dumps(trace, valid=ok), args.out)
    else:
        report = verify_trace(trace, strict=False)
        ok = report.ok
        _emit(format_trace_text(trace, report), args.out)
    return 0 if ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    # empty ranges are allowed and sweep vacuously (exit 0, empty table)
    if any(g < 2 for g in args.genus):
        raise BunredError("sweep genus values must be >= 2")
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
        _emit(_sweep_json(rows, all_valid), args.out)
    else:
        lines = [f"{'g':>3} {'r':>4} {'d':>5} {'h':>4} {'n':>6} {'depth':>6} valid"]
        for g, r, d, h, n, depth, valid in rows:
            lines.append(
                f"{g:>3} {r:>4} {d:>5} {h:>4} {n:>6} {depth:>6} {'yes' if valid else 'NO'}"
            )
        lines.append(f"{len(rows)} cases, {sum(1 for row in rows if row[-1])} valid")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_valid else 1


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


def _cmd_verify(args: argparse.Namespace) -> int:
    trace = load(args.file)
    report = verify_trace(trace, strict=False)
    if args.format == "json":
        doc = {
            "valid": report.ok,
            "checks": [
                {"path": c.path, "name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = []
        for c in report.checks:
            lines.append(f"{'PASS' if c.passed else 'FAIL'} {c.path}: {c.name}"
                         + (f" ({c.detail})" if c.detail and not c.passed else ""))
        lines.append(
            f"certificate {'VALID' if report.ok else 'INVALID'} ({len(report.checks)} checks)"
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.ok else 1


def _cmd_chi(args: argparse.Namespace) -> int:
    ctx = GenusContext(args.genus)
    t1, t2 = SheafType(*args.t1), SheafType(*args.t2)
    value = euler_form(ctx, t1, t2)
    if args.format == "json":
        _emit(json.dumps({"genus": args.genus, "t1": str(t1), "t2": str(t2), "chi": value}) + "\n",
              args.out)
    else:
        _emit(f"chi({t1}, {t2}; g={args.genus}) = {value}\n", args.out)
    return 0


def _cmd_solve_lemma(args: argparse.Namespace) -> int:
    ctx = GenusContext(args.genus)
    t = SheafType(args.rank, args.degree)
    try:
        sol = solve_lemma(ctx, t)
    except BaseCaseReached:
        _emit(f"Bun{t}: base case (rank = hcf); reduction is a twist\n", args.out)
        return 0
    if args.format == "json":
        doc = {"rF": sol.rF, "dF": sol.dF, "r1": sol.r1, "d1": sol.d1, "h": sol.h, "h1": sol.h1}
        _emit(json.dumps(doc) + "\n", args.out)
    else:
        _emit(
            f"Bun{t}: rF={sol.rF} dF={sol.dF} r1={sol.r1} d1={sol.d1} h={sol.h} h1={sol.h1}\n",
            args.out,
        )
    return 0


def _cmd_generic_hom(args: argparse.Namespace) -> int:
    ctx = GenusContext(args.genus)
    t1, t2 = SheafType(*args.t1), SheafType(*args.t2)
    rep = generic_hom(ctx, t1, t2)
    if not rep.covered:
        _emit(f"hom({t1}, {t2}; g={args.genus}): not covered (chi < 0)\n", args.out)
        return 0
    kind = ""
    if rep.hom_dim >= 1:
        kind = f" ; generic morphism: {generic_morphism_kind(ctx, t1, t2).value}"
    _emit(
        f"hom({t1}, {t2}; g={args.genus}) = {rep.hom_dim}, ext = {rep.ext_dim}{kind}\n",
        args.out,
    )
    return 0


def _cmd_scan_splittings(args: argparse.Namespace) -> int:
    ctx = GenusContext(args.genus)
    t1, t2 = SheafType(*args.t1), SheafType(*args.t2)
    rep = no_bad_splitting_scan(ctx, t1, t2, args.bound)
    _emit(
        f"scan({t1}, {t2}; g={args.genus}, bound={args.bound}): "
        f"{rep.examined} splittings examined, {rep.violations} violations\n",
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bunred",
        description="Exact-arithmetic reduction certificates for moduli stacks "
        "of vector bundles on curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_type=False, with_rd=False):
        p.add_argument("--genus", "-g", type=int, required=True)
        if with_rd:
            p.add_argument("--rank", "-r", type=int, required=True)
            p.add_argument("--degree", "-d", type=int, required=True)
        if with_type:
            p.add_argument("--t1", type=_parse_pair, required=True, metavar="r,d")
            p.add_argument("--t2", type=_parse_pair, required=True, metavar="r,d")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("reduce", help="build and verify one reduction certificate")
    add_common(p, with_rd=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("sweep", help="run a grid of reductions and tabulate")
    p.add_argument("--genus", "-g", type=_parse_range, required=True, metavar="a|a..b")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--degree-range", type=_parse_range, required=True, metavar="a..b")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--traces-dir", metavar="DIR")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="verify a serialized trace document")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chi", help="evaluate the Euler form chi(t1, t2)")
    add_common(p, with_type=True)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("solve-lemma", help="solve the window equation for one type")
    add_common(p, with_rd=True)
    p.set_defaults(func=_cmd_solve_lemma)

    p = sub.add_parser("generic-hom", help="generic Hom/Ext dimensions for a pair of types")
    add_common(p, with_type=True)
    p.set_defaults(func=_cmd_generic_hom)

    p = sub.add_parser("scan-splittings", help="exhaustive bad-splitting scan for a pair")
    add_common(p, with_type=True)
    p.add_argument("--bound", type=int, default=20)
    p.set_defaults(func=_cmd_scan_splittings)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BunredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
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
