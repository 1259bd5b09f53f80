"""The benchmark's workloads: which `bunred` commands one pass runs, and how
each command's output is checked.

Every workload draws its inputs from a fixed pool built from POOL_SEED; the
run's --seed picks from the pool and sets the order of the ops.  A fixed
pool lets expected.json hold the sha256 of every command's output at the
commit that recorded it, whatever seed a run uses.  Strata have fixed sizes
and each pool is only a little larger than what a pass takes from it, so
every seed gives a pass of nearly the same cost, and the median and 90th
percentile over a pass's distinct commands fall inside a stratum rather than
on a boundary between two.  A pass runs each of its commands several times,
shuffled, so that run.py can time every command at several moments of the
run.  With seed None a workload returns its whole pool, each command once.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

import oracle

POOL_SEED = 511660


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass."""

    key: str  # names the command in expected.json
    argv: list[str]
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> problem or None


def _pool_rng(name: str) -> random.Random:
    return random.Random(f"{name}/{POOL_SEED}")


def _pool_size(per_pass: int) -> int:
    return per_pass + max(1, per_pass // 10)


def _pick(rng: random.Random | None, items: list, count: int) -> list:
    """`count` items of one stratum; the whole stratum when rng is None."""
    return list(items) if rng is None else rng.sample(items, count)


# --------------------------------------------------------------------------
# sweep_grid: the 900-case grid genus 2..4 x rank 1..12 x degree -12..12,
# as one `sweep --format json` command per genus and block of five degrees.
# Subtrees are only shared between cases of the same genus, and mostly
# between nearby degrees.  The grid is small and split so that each command
# takes some twenty milliseconds and can be timed many times in a run (see
# run.py).  The seed only orders the commands.

SWEEP_GENERA = range(2, 5)
SWEEP_RANKS = range(1, 13)
SWEEP_DEGREE_BLOCKS = [range(lo, lo + 5) for lo in range(-12, 13, 5)]
SWEEP_REPEATS = 10  # runs of each command per pass


def _check_sweep(g: int, degrees: range) -> Callable[[int, str], str | None]:
    grid = [(g, r, d) for r in SWEEP_RANKS for d in degrees]

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        doc = json.loads(out)
        rows = doc["rows"]
        if doc["cases"] != len(grid) or len(rows) != len(grid) or doc["all_valid"] is not True:
            return f"{doc['cases']} cases, {len(rows)} rows, all_valid={doc['all_valid']}"
        for row, (g_, r, d) in zip(rows, grid):
            if (row["genus"], row["rank"], row["degree"]) != (g_, r, d):
                return f"row for ({g_},{r},{d}) is {row}"
            h, n = math.gcd(r, d), oracle.total_affine_dim(g_, r, d)
            if row["h"] != h or row["n"] != n or row["valid"] is not True:
                return f"wrong row {row}"
        return None

    return check


def sweep_grid(seed: int | None, workdir: str) -> list[Op]:
    ops = []
    for g in SWEEP_GENERA:
        for degrees in SWEEP_DEGREE_BLOCKS:
            argv = ["sweep", "--genus", str(g), "--max-rank", str(SWEEP_RANKS[-1]),
                    f"--degree-range={degrees[0]}..{degrees[-1]}", "--format", "json"]
            ops += [Op(" ".join(argv), argv, _check_sweep(g, degrees))] * (1 if seed is None else SWEEP_REPEATS)
    if seed is not None:
        random.Random(seed).shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# bigint_reduce: `reduce --format json` at 6, 30, 100 and 300 rank digits.
# Per pass 20/2/2/4 distinct commands: their median falls inside the 6-digit
# stratum and their 90th percentile inside the 300-digit one.  (Commands of
# some tens of milliseconds that build megabytes, like the 30-digit ones,
# time less steadily than either.)  Every pass runs all of the 6-digit pool,
# so the median does not depend on the seed, and all of the 300-digit pool,
# whose largest output sets peak_rss_mb.

# rank digits: (commands per pass, pool size, runs of each command per pass)
BIGINT_STRATA = {6: (20, 20, 40), 30: (2, 3, 16), 100: (2, 3, 4), 300: (4, 4, 2)}


def _check_reduce(g: int, r: int, d: int) -> Callable[[int, str], str | None]:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        doc = json.loads(out)
        det = doc["composite_det"]
        if (doc["genus"], doc["input"]) != (g, {"rank": r, "degree": d}) or doc["h"] != math.gcd(r, d):
            return "wrong genus, input or h"
        if doc["total_affine_dim"] != oracle.total_affine_dim(g, r, d):
            return "total_affine_dim is not (g-1)(r^2-h^2)"
        if det["sign"] * d + det["shift"] != 0:
            return "composite_det does not send the degree to 0"
        if doc["valid"] is not True:
            return "certificate not valid"
        return None

    return check


def bigint_reduce(seed: int | None, workdir: str) -> list[Op]:
    pool_rng = _pool_rng("bigint_reduce")
    rng = None if seed is None else random.Random(seed)
    ops = []
    for digits, (per_pass, pool_size, repeats) in BIGINT_STRATA.items():
        pool = [
            (
                pool_rng.randint(2, 4),
                pool_rng.randrange(10 ** (digits - 1), 10**digits),
                pool_rng.randrange(1 - 10**digits, 10**digits),
            )
            for _ in range(pool_size)
        ]
        for g, r, d in _pick(rng, pool, per_pass):
            argv = ["reduce", "-g", str(g), "-r", str(r), f"--degree={d}", "--format", "json"]
            op = Op(" ".join(argv), argv, _check_reduce(g, r, d))
            ops += [op] * (1 if rng is None else repeats)
    if rng is not None:
        rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# verify_docs: `verify FILE` on trace documents the benchmark writes itself.
# 20 rank sizes, log-spaced from 1 to VERIFY_DIGITS digits, one document
# each, each verified VERIFY_REPEATS times per pass.  The seed perturbs a
# quarter of the documents, choosing one of VERIFY_VARIANTS perturbations for
# each; the documents' sizes, and so the pass's cost, do not depend on the
# seed.

VERIFY_SIZES = 20
# Larger documents take tens of milliseconds to verify and build megabytes,
# which times less steadily; bigint_reduce verifies 300-digit traces.
VERIFY_DIGITS = 30
VERIFY_PERTURBED = 5
VERIFY_VARIANTS = 3
VERIFY_REPEATS = 10


def _verify_pool() -> list[list[tuple]]:
    """Per size: (key, genus, rank, degree, perturbation or None) specs, intact first."""
    rng = _pool_rng("verify_docs")
    pool = []
    for i in range(VERIFY_SIZES):
        digits = round(VERIFY_DIGITS ** (i / (VERIFY_SIZES - 1)))
        g = rng.randint(2, 6)
        while True:
            r = rng.randrange(10 ** (digits - 1), 10**digits)
            d = rng.randrange(1 - 10**digits, 10**digits)
            if d % r:  # a perturbation needs a composite node
                break
        perturbs = [None] + [(rng.randrange(10**6), rng.choice(oracle.PERTURBABLE_FIELDS))
                             for _ in range(VERIFY_VARIANTS)]
        pool.append([(f"s{i:02d}-{j}", g, r, d, p) for j, p in enumerate(perturbs)])
    return pool


def _check_verify(perturbed: bool) -> Callable[[int, str], str | None]:
    want_rc, want_last = (1, "certificate INVALID") if perturbed else (0, "certificate VALID")

    def check(rc: int, out: str) -> str | None:
        if rc != want_rc:
            return f"exit code {rc}, expected {want_rc}"
        if not out.rstrip("\n").rsplit("\n", 1)[-1].startswith(want_last):
            return f"last line does not start with {want_last!r}"
        return None

    return check


def verify_docs(seed: int | None, workdir: str) -> list[Op]:
    rng = None if seed is None else random.Random(seed)
    docs_dir = os.path.join(workdir, "docs")
    os.makedirs(docs_dir, exist_ok=True)
    for name in os.listdir(docs_dir):
        if name.endswith(".json"):
            os.remove(os.path.join(docs_dir, name))
    ops = []
    perturbed = set() if rng is None else set(rng.sample(range(VERIFY_SIZES), VERIFY_PERTURBED))
    for i, specs in enumerate(_verify_pool()):
        if rng is not None:
            specs = [rng.choice(specs[1:]) if i in perturbed else specs[0]]
        for key, g, r, d, perturb in specs:
            path = os.path.join(docs_dir, key + ".json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(oracle.trace_document(g, r, d, perturb))
            ops.append(Op(f"verify {key}", ["verify", path], _check_verify(perturb is not None)))
    if rng is not None:
        ops *= VERIFY_REPEATS
        rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# splitting_scan: `scan-splittings` on pairs with ranks <= 8, |degree| <= 20,
# chi >= 0 and a bound near 2*10^3.  Its cost is min(r1, r2)*(2*bound + 1)
# candidate splittings, so strata are by min(r1, r2); the median over a
# pass's 20 distinct commands falls inside the m = 4 stratum and the 90th
# percentile inside m = 7.

SCAN_STRATA = {1: 3, 2: 2, 3: 2, 4: 6, 5: 1, 6: 2, 7: 3, 8: 1}  # min rank: commands per pass
SCAN_REPEATS = 5  # runs of each command per pass
SCAN_LINE = re.compile(r"^scan\(.*\): (\d+) splittings examined, 0 violations\n$")


def _check_scan(rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if not SCAN_LINE.match(out):
        return f"unexpected output {out!r}"
    return None


def splitting_scan(seed: int | None, workdir: str) -> list[Op]:
    pool_rng = _pool_rng("splitting_scan")
    rng = None if seed is None else random.Random(seed)
    ops = []
    for m, per_pass in SCAN_STRATA.items():
        pool = []
        while len(pool) < _pool_size(per_pass):
            g = pool_rng.randint(2, 4)
            r1, r2 = m, pool_rng.randint(m, 8)
            if pool_rng.random() < 0.5:
                r1, r2 = r2, r1
            d1, d2 = pool_rng.randint(-20, 20), pool_rng.randint(-20, 20)
            if (1 - g) * r1 * r2 + r1 * d2 - r2 * d1 >= 0:
                pool.append((g, r1, d1, r2, d2, pool_rng.randint(1950, 2050)))
        for g, r1, d1, r2, d2, bound in _pick(rng, pool, per_pass):
            argv = ["scan-splittings", "-g", str(g), "--t1", f"{r1},{d1}", "--t2", f"{r2},{d2}",
                    "--bound", str(bound)]
            ops += [Op(" ".join(argv), argv, _check_scan)] * (1 if rng is None else SCAN_REPEATS)
    if rng is not None:
        rng.shuffle(ops)
    return ops


WORKLOADS = {
    "sweep_grid": sweep_grid,
    "verify_docs": verify_docs,
    "bigint_reduce": bigint_reduce,
    "splitting_scan": splitting_scan,
}
