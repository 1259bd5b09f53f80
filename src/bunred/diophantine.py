"""Window-constrained linear Diophantine solver driving the reduction step.

For a type t = (r, d) with h = hcf(r, d) and r > h, there is exactly one
integer pair (r_F, d_F) satisfying

    (1 - g)*r_F*r + r_F*d - r*d_F = h        (the Euler form chi(t_F, t) = h)
    r < h*r_F < 2r                           (the rank window)

The reduced type is then r1 = h*r_F - r, d1 = h*d_F - d with h1 = hcf(r1, d1)
a multiple of h and r1/h1 < r/h strictly, which bounds the recursion depth.

Two independent routes are provided: solve_lemma (a modular inverse plus
window placement) and solve_lemma_bruteforce (exhaustive window scan, the
test oracle).  solve_lemma checks nothing it computes: the verifier
re-derives every solution in a certificate, and the tests compare the routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BaseCaseReached, DomainError, TheoremContradicted
from .types import GenusContext, SheafType, require_genus_ge_2


@dataclass(frozen=True)
class LemmaSolution:
    """Solution record: the unique (rF, dF) in the window plus derived data.

    Deliberately a dumb record; invariants are established by the solvers and
    re-checked by the trace verifier, never by this constructor (so that
    tampered serialized certificates can be represented and then rejected
    semantically).
    """

    rF: int
    dF: int
    r1: int
    d1: int
    h: int
    h1: int


def _check_preconditions(ctx: GenusContext, t: SheafType) -> int:
    require_genus_ge_2(ctx)
    if t.rank < 1:
        raise DomainError(f"reduction step needs rank >= 1, got {t}")
    h = math.gcd(t.rank, t.degree)
    if t.rank == h:
        raise BaseCaseReached(f"rank equals hcf for {t}; reduction is a twist")
    return h


def _solution(t: SheafType, h: int, rF: int, dF: int) -> LemmaSolution:
    """The record of the window solution (rF, dF) of t, h = hcf(t)."""
    r1 = h * rF - t.rank
    d1 = h * dF - t.degree
    return LemmaSolution(rF, dF, r1, d1, h, math.gcd(r1, d1))


def solve_lemma(ctx: GenusContext, t: SheafType) -> LemmaSolution:
    """Solve the window equation by a modular inverse.

    Modulo r the equation reads r_F * d = h, that is r_F * (d/h) = 1 modulo
    m = r/h, so r_F is congruent modulo m to the inverse c of d/h.  m >= 2
    because r > h, so c lies in 1..m-1 and r_F = m + c is the one
    representative in the open window (m, 2m); d_F is the integer the
    equation then defines.  The inverse is computed by the interpreter
    (pow(x, -1, m)), not by a Python loop.  Nothing is re-checked here.

    Raises BaseCaseReached when rank == hcf(rank, degree); the caller handles
    that case by twisting.
    """
    h = _check_preconditions(ctx, t)
    g, r, d = ctx.genus, t.rank, t.degree
    m = r // h
    rF = m + pow(d // h, -1, m)
    return _solution(t, h, rF, ((1 - g) * rF * r + rF * d - h) // r)


def solve_lemma_bruteforce(ctx: GenusContext, t: SheafType) -> LemmaSolution:
    """Independent oracle: scan every r_F in the open window and keep those with
    integral d_F.  Exactly one hit must exist."""
    h = _check_preconditions(ctx, t)
    g, r, d = ctx.genus, t.rank, t.degree
    m = r // h
    hits = []
    for rF in range(m + 1, 2 * m):
        num = (1 - g) * rF * r + rF * d - h
        if num % r == 0:
            hits.append((rF, num // r))
    if len(hits) != 1:
        raise TheoremContradicted(
            f"window scan for {t} found {len(hits)} solutions, expected exactly 1"
        )
    return _solution(t, h, *hits[0])
