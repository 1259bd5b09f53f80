"""Window-constrained linear Diophantine solver driving the reduction step.

For a type t = (r, d) with h = hcf(r, d) and r > h, there is exactly one
integer pair (r_F, d_F) satisfying

    (1 - g)*r_F*r + r_F*d - r*d_F = h        (the Euler form chi(t_F, t) = h)
    r < h*r_F < 2r                           (the rank window)

The reduced type is then r1 = h*r_F - r, d1 = h*d_F - d with h1 = hcf(r1, d1)
a multiple of h and r1/h1 < r/h strictly, which bounds the recursion depth.

Two independent routes are provided: solve_lemma (a modular inverse plus
window placement) and solve_lemma_bruteforce (exhaustive window scan).  They
must always agree; the brute-force route is the test oracle for the fast one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BaseCaseReached, InternalInvariantViolation, InvalidType
from .types import GenusContext, SheafType, hcf_of_type, require_genus_ge_2


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
        raise InvalidType(f"reduction step needs rank >= 1, got {t}")
    h = hcf_of_type(t)
    if t.rank == h:
        raise BaseCaseReached(f"rank equals hcf for {t}; reduction is a twist")
    return h


def _finish(ctx: GenusContext, t: SheafType, h: int, rF: int, dF: int) -> LemmaSolution:
    g, r, d = ctx.genus, t.rank, t.degree
    if (1 - g) * rF * r + rF * d - r * dF != h:
        raise InternalInvariantViolation(f"solution ({rF},{dF}) fails the defining equation")
    if not r < h * rF < 2 * r:
        raise InternalInvariantViolation(f"solution rF={rF} is outside the window ({r},{2*r})")
    r1 = h * rF - r
    d1 = h * dF - d
    h1 = math.gcd(r1, d1)
    if h1 % h != 0:
        raise InternalInvariantViolation(f"h1={h1} is not a multiple of h={h}")
    if not r1 * h < r * h1:
        raise InternalInvariantViolation(f"measure r1/h1 did not decrease for {t}")
    return LemmaSolution(rF=rF, dF=dF, r1=r1, d1=d1, h=h, h1=h1)


def solve_lemma(ctx: GenusContext, t: SheafType) -> LemmaSolution:
    """Solve the window equation by a modular inverse.

    h is also hcf(r, (1-g)r + d), so r_F * ((1-g)r + d) = h (mod r) is solvable
    and its solutions form one residue class modulo m = r/h, that of the
    inverse of ((1-g)r + d)/h modulo m; exactly one representative lies in the
    open window (m, 2m).  gcd and the inverse are computed by the interpreter
    (math.gcd, pow(x, -1, m)), not by a Python loop.

    Raises BaseCaseReached when rank == hcf(rank, degree); the caller handles
    that case by twisting.
    """
    h = _check_preconditions(ctx, t)
    g, r, d = ctx.genus, t.rank, t.degree
    m = r // h
    a = ((1 - g) * r + d) % r
    h0 = math.gcd(a, r)
    if h0 != h:
        raise InternalInvariantViolation(f"hcf({a}, {r}) = {h0}, expected {h}")
    c = pow(a // h, -1, m)
    if c == 0:
        raise InternalInvariantViolation(f"no window representative exists for {t}")
    rF = m + c
    num = (1 - g) * rF * r + rF * d - h
    if num % r != 0:
        raise InternalInvariantViolation(f"dF is not integral for {t} at rF={rF}")
    return _finish(ctx, t, h, rF, num // r)


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
        raise InternalInvariantViolation(
            f"window scan for {t} found {len(hits)} solutions, expected exactly 1"
        )
    rF, dF = hits[0]
    return _finish(ctx, t, h, rF, dF)
