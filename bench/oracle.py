"""Reference arithmetic for the benchmark, written without importing bunred.

The benchmark checks bunred's outputs against these closed forms and builds
the trace documents for the verify workload with them, so neither the checks
nor the inputs come from the code under test.

The window solution is found by a modular inverse: with r' = r/h, d' = d/h
and a = (1-g) r' + d', the equation (1-g) rF r + rF d - r dF = h reduces to
a rF - r' dF = 1, so rF is the representative of a^-1 mod r' in (r', 2r').
"""

from __future__ import annotations

import json
import math

DOC_VERSION = 1

# Integer fields of a composite node that a perturbed document changes by +1.
# Each one is re-derived by a named check, and none makes the document
# unparsable (ranks only grow, determinant signs are left alone).
PERTURBABLE_FIELDS = ("rF", "dF", "r1", "d1", "h1", "rkV", "rho_affine", "hecke_affine", "det_shift")


def total_affine_dim(g: int, r: int, d: int) -> int:
    """(g-1)(r^2 - h^2), h = gcd(r, d)."""
    h = math.gcd(r, d)
    return (g - 1) * (r * r - h * h)


def window_solution(g: int, r: int, d: int) -> tuple[int, int]:
    """The unique (rF, dF) with chi((rF,dF),(r,d)) = h and r < h rF < 2r; needs r > h."""
    h = math.gcd(r, d)
    r_, d_ = r // h, d // h
    a = (1 - g) * r_ + d_
    r_f = pow(a, -1, r_) + r_
    d_f, rem = divmod(a * r_f - 1, r_)
    if rem:
        raise ArithmeticError(f"window equation has no integer dF for ({r},{d}) at genus {g}")
    return r_f, d_f


def _node(g: int, r: int, d: int) -> tuple[dict, tuple[int, int], int]:
    """(node document, composite determinant map (sign, shift), affine total)."""
    h = math.gcd(r, d)
    if r == h:
        twist = -(d // r)
        doc = {"kind": "base", "rank": r, "degree": d, "twist_degree": twist}
        return doc, (1, r * twist), 0
    r_f, d_f = window_solution(g, r, d)
    r1, d1 = h * r_f - r, h * d_f - d
    h1 = math.gcd(r1, d1)
    rk_v = (1 - g) * r1 * r_f + r1 * d_f - r_f * d1
    mu1, det1, aff1 = _node(g, r1, d1)
    mu2, det2, aff2 = _node(g, h1, -h)
    maps = [(-1, h * d_f), det1, (1, -h), det2]
    sign, shift = 1, 0
    for s, c in maps:
        sign, shift = s * sign, s * shift + c
    rho, hecke = h * (rk_v - h1), h * (h1 - h)
    doc = {
        "kind": "composite",
        "rF": r_f,
        "dF": d_f,
        "r1": r1,
        "d1": d1,
        "h1": h1,
        "rkV": rk_v,
        "rho_affine": rho,
        "hecke_affine": hecke,
        "det_maps": [{"sign": s, "shift": c} for s, c in maps],
        "mu1": mu1,
        "mu2": mu2,
    }
    return doc, (sign, shift), rho + hecke + aff1 + aff2


def trace_document(g: int, r: int, d: int, perturb: tuple[int, str] | None = None) -> str:
    """Version-1 trace document for Bun(r, d) at genus g, as `bunred reduce` would
    serialize it (sorted keys, two-space indent, trailing newline).

    perturb = (k, field) adds 1 to `field` of the k-th composite node in
    pre-order, counted modulo the number of composite nodes.
    """
    root, (sign, shift), affine = _node(g, r, d)
    if affine != total_affine_dim(g, r, d):
        raise ArithmeticError(f"affine dimensions of ({r},{d}) at genus {g} do not add up")
    if sign * d + shift != 0:
        raise ArithmeticError(f"determinant map of ({r},{d}) at genus {g} misses 0")
    if perturb is not None:
        _perturb(root, *perturb)
    doc = {
        "version": DOC_VERSION,
        "genus": g,
        "input": {"rank": r, "degree": d},
        "h": math.gcd(r, d),
        "total_affine_dim": affine,
        "composite_det": {"sign": sign, "shift": shift},
        "root": root,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _perturb(root: dict, k: int, field: str) -> None:
    composites = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node["kind"] == "composite":
            composites.append(node)
            stack.append(node["mu2"])
            stack.append(node["mu1"])
    if not composites:
        raise ValueError("a perturbed document needs a composite node")
    node = composites[k % len(composites)]
    if field == "det_shift":
        node["det_maps"][0]["shift"] += 1
    else:
        node[field] += 1


def scan_visited(r1: int, r2: int, bound: int) -> int:
    """Candidate splittings the exhaustive scan walks: middle rank 1..min(r1, r2)
    times middle degree -bound..bound."""
    return min(r1, r2) * (2 * bound + 1)
