import math
import random
from dataclasses import replace

import pytest

from bunred import (
    BaseStep,
    CertificateInvalid,
    CompositeStep,
    DegreeAffineMap,
    DomainError,
    GenusContext,
    LemmaSolution,
    ParseError,
    SheafType,
    dumps,
    loads,
    node_affine_total,
    node_depth,
    reduce,
    solve_lemma,
    verify_trace,
)
from bunred import reduction, serialize
from bunred.affine import _fold_det
from bunred.cli import format_trace_text

G2 = GenusContext(2)


def test_golden_trace_rank2_degree1():
    tr = reduce(G2, SheafType(2, 1))
    root = tr.root
    assert isinstance(root, CompositeStep)
    assert root.sol == LemmaSolution(rF=3, dF=-2, r1=1, d1=-3, h=1, h1=1)
    assert root.rkV == 4
    assert root.rho_affine == 3 and root.hecke_affine == 0
    assert root.mu1 == BaseStep(SheafType(1, -3), twist_degree=3)
    assert root.mu2 == BaseStep(SheafType(1, -1), twist_degree=1)
    assert root.det_maps == (
        DegreeAffineMap(-1, -2),
        DegreeAffineMap(1, 3),
        DegreeAffineMap(1, -1),
        DegreeAffineMap(1, 1),
    )
    assert tr.total_affine_dim == 3
    assert tr.composite_det == DegreeAffineMap(-1, 1)
    assert tr.composite_det.apply(1) == 0
    assert verify_trace(tr).ok


def test_golden_trace_rank4_degree2():
    tr = reduce(G2, SheafType(4, 2))
    root = tr.root
    assert root.sol == LemmaSolution(rF=3, dF=-2, r1=2, d1=-6, h=2, h1=2)
    assert root.rkV == 8
    assert root.rho_affine == 12 and root.hecke_affine == 0
    assert root.mu1 == BaseStep(SheafType(2, -6), twist_degree=3)
    assert root.mu2 == BaseStep(SheafType(2, -2), twist_degree=1)
    assert tr.total_affine_dim == 12
    assert tr.composite_det.apply(2) == 0
    assert verify_trace(tr).ok


def test_golden_trace_base_case():
    tr = reduce(G2, SheafType(3, 0))
    assert tr.root == BaseStep(SheafType(3, 0), twist_degree=0)
    assert tr.total_affine_dim == 0
    assert tr.composite_det == DegreeAffineMap(1, 0)
    assert verify_trace(tr).ok


def test_golden_trace_genus3():
    tr = reduce(GenusContext(3), SheafType(3, 1))
    assert tr.root.sol.rF == 4 and tr.root.sol.dF == -7
    assert tr.root.rkV == 17
    assert tr.total_affine_dim == 16
    assert verify_trace(tr).ok


def test_reduce_domain_errors():
    with pytest.raises(DomainError):
        reduce(GenusContext(1), SheafType(2, 1))
    with pytest.raises(DomainError, match=r"reduction needs rank >= 1, got \(0,3\)"):
        reduce(G2, SheafType(0, 3))


def test_composite_is_unequal_to_other_classes():
    root = reduce(G2, SheafType(2, 1)).root
    assert root.__eq__(root.mu1) is NotImplemented
    assert root.__eq__(5) is NotImplemented
    assert root != root.mu1 and root.mu1 != root
    assert root != 5


def test_compose_det_examples():
    maps = [
        DegreeAffineMap(-1, -2),
        DegreeAffineMap(1, 3),
        DegreeAffineMap(1, -1),
        DegreeAffineMap(1, 1),
    ]
    assert _fold_det(maps) == (-1, 1)
    assert _fold_det([]) == (1, 0)
    m = DegreeAffineMap(-1, 7)
    assert _fold_det([m, m]) == (1, 0)  # a reflection is an involution


def _perturbed(trace, **root_fields):
    return replace(trace, root=replace(trace.root, **root_fields))


def test_perturbed_dF_fails_euler_equation():
    tr = reduce(G2, SheafType(2, 1))
    bad = _perturbed(tr, sol=replace(tr.root.sol, dF=-1))
    report = verify_trace(bad, strict=False)
    assert "euler_equation" in report.failed_names()
    with pytest.raises(CertificateInvalid) as exc:
        verify_trace(bad)
    assert exc.value.check == "euler_equation" and exc.value.path == "root"


def test_perturbed_rkv_fails_hom_bundle_rank():
    tr = reduce(G2, SheafType(2, 1))
    for delta in (-1, 1):
        bad = _perturbed(tr, rkV=tr.root.rkV + delta)
        report = verify_trace(bad, strict=False)
        assert "hom_bundle_rank" in report.failed_names()
        with pytest.raises(CertificateInvalid) as exc:
            verify_trace(bad)
        assert exc.value.check == "hom_bundle_rank"


def test_perturbed_total_fails_affine_check():
    tr = reduce(G2, SheafType(2, 1))
    bad = replace(tr, total_affine_dim=4)
    report = verify_trace(bad, strict=False)
    assert report.failed_names() == {"total_affine_dim"}


def test_perturbed_det_shift_fails_det_segments():
    tr = reduce(G2, SheafType(2, 1))
    maps = list(tr.root.det_maps)
    maps[2] = DegreeAffineMap(maps[2].sign, maps[2].shift + 1)
    bad = _perturbed(tr, det_maps=tuple(maps))
    report = verify_trace(bad, strict=False)
    assert "det_segments" in report.failed_names()


def test_trace_invariants_on_grid():
    for g in range(2, 4):
        ctx = GenusContext(g)
        for r in range(1, 11):
            for d in range(-10, 11):
                t = SheafType(r, d)
                tr = reduce(ctx, t)
                h = math.gcd(r, d)
                assert tr.h == h
                assert tr.total_affine_dim == (g - 1) * (r * r - h * h)
                assert tr.composite_det.sign in (1, -1)
                assert tr.composite_det.apply(d) == 0
                assert node_depth(tr.root) <= r
                assert node_affine_total(tr.root) == tr.total_affine_dim
                assert _target(tr.root) == SheafType(h, 0)


def _target(node):
    # final stack of the composite chain: base steps twist to degree 0,
    # composite steps end where their second child ends
    if isinstance(node, BaseStep):
        return SheafType(node.t.rank, node.t.degree + node.t.rank * node.twist_degree)
    return _target(node.mu2)


def test_second_child_reduces_hecke_target():
    tr = reduce(G2, SheafType(6, 4))
    root = tr.root
    assert root.mu2.t == SheafType(root.sol.h1, -root.sol.h)
    assert math.gcd(root.sol.h1, root.sol.h) == root.sol.h
    rep = verify_trace(tr)
    assert rep.ok
    # every graph-map precondition along the tree passed
    names = {(c.path, c.name) for c in rep.checks if c.name == "graph_map_precondition"}
    assert all(c.passed for c in rep.checks if c.name == "graph_map_precondition")
    assert len(names) >= 1


def _occurrences(root):
    """Every node of the tree, one entry per occurrence of a shared node."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, CompositeStep):
            stack += [node.mu1, node.mu2]
    return nodes


@pytest.mark.parametrize(
    "g, rank, degree",
    [(3, 12, 5), (4, 9, 2), (4, 10**29 + 7, 10**28 + 3), (2, 3**200, -(2**300) - 1)],
)
def test_one_solve_and_one_node_per_distinct_type(monkeypatch, g, rank, degree):
    solved = []

    def counting_solve(ctx, t):
        solved.append(t)
        return solve_lemma(ctx, t)

    monkeypatch.setattr(reduction, "solve_lemma", counting_solve)
    root = reduce(GenusContext(g), SheafType(rank, degree)).root
    nodes = _occurrences(root)
    by_type = {}
    for node in nodes:
        by_type.setdefault(node.t, set()).add(id(node))
    composite_types = {n.t for n in nodes if isinstance(n, CompositeStep)}
    assert len(solved) == len(set(solved)) == len(composite_types)
    assert len(by_type) < len(nodes)  # some type repeats
    assert all(len(ids) == 1 for ids in by_type.values())


def test_reduce_calls_share_nothing():
    a = reduce(GenusContext(3), SheafType(12, 5))
    b = reduce(GenusContext(3), SheafType(12, 5))
    assert a == b
    ids_a = {id(n) for n in _occurrences(a.root)}
    assert not ids_a & {id(n) for n in _occurrences(b.root)}
    assert a.root is not b.root


def test_a_base_root_enters_the_table():
    table = {}
    assert reduce(GenusContext(2), SheafType(3, 0), built=table).root is table[3, 0]


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("g", [2, 3])
def test_a_shared_table_changes_nothing(g, order):
    ctx = GenusContext(g)
    ranks = range(1, 13) if order == "ascending" else range(12, 0, -1)
    grid = [SheafType(r, d) for r in ranks for d in range(-12, 13)]
    built = {}
    for t in grid:
        shared = reduce(ctx, t, built=built)
        fresh = reduce(ctx, t)
        assert shared == fresh and dumps(shared) == dumps(fresh)
    # a later case is made from the nodes an earlier one built
    assert reduce(ctx, SheafType(12, 5), built=built).root is built[12, 5]
    # every occurrence of every node of a shared tree is the table's node
    for t in grid:
        for node in _occurrences(reduce(ctx, t, built=built).root):
            assert node is built[node.t.rank, node.t.degree]


def test_depth_bound_admits_a_tree_of_equal_depth(monkeypatch):
    trace = reduce(G2, SheafType(10**29 + 7, 10**28 + 3))
    depth = node_depth(trace.root)
    monkeypatch.setattr(serialize, "MAX_TREE_DEPTH", depth)
    assert serialize.MAX_TREE_DEPTH == depth
    doc = dumps(trace)
    assert loads(doc) == trace
    # one level less: neither written nor read
    monkeypatch.setattr(serialize, "MAX_TREE_DEPTH", depth - 1)
    with pytest.raises(DomainError, match="^the reduction tree is deeper than the recursion"):
        dumps(trace)
    with pytest.raises(ParseError, match=r"^\$: document nested too deeply$"):
        loads(doc)


def test_the_depth_bound_is_tested_after_the_base_test(monkeypatch):
    # the bound is checked at each node's own level, the root's being 1: a
    # base root is written under a bound of 1, a composite root is refused
    # there, and under a bound of 2 its base children sit at the bound
    monkeypatch.setattr(serialize, "MAX_TREE_DEPTH", 1)
    assert loads(dumps(reduce(G2, SheafType(3, 0)))).root == BaseStep(SheafType(3, 0), 0)
    trace = reduce(G2, SheafType(2, 1))
    with pytest.raises(DomainError, match="^the reduction tree is deeper than the recursion"):
        dumps(trace)
    monkeypatch.setattr(serialize, "MAX_TREE_DEPTH", 2)
    root = trace.root
    assert isinstance(root.mu1, BaseStep) and isinstance(root.mu2, BaseStep)
    assert node_depth(root) == 2
    assert loads(dumps(trace)) == trace


# Seeded ranks of ~650 digits whose trees are as deep as a document holds
# (MAX_TREE_DEPTH, 940 levels), or nearly: (seed, digits, depth).  json.loads
# reads them back from pytest's stack, some 30 frames deep.
DEEP_SEEDS = [("deep/80", 635, 940), ("deep/355", 650, 938)]


@pytest.mark.parametrize("seed, digits, depth", DEEP_SEEDS, ids=[s for s, _, _ in DEEP_SEEDS])
def test_deepest_trees_are_written_and_read_back(seed, digits, depth):
    rng = random.Random(seed)
    assert rng.randrange(625, 660) == digits
    rank = rng.randrange(10 ** (digits - 1), 10**digits)
    trace = reduce(G2, SheafType(rank, rng.randrange(-rank, rank)))
    assert node_depth(trace.root) == depth <= serialize.MAX_TREE_DEPTH
    text = format_trace_text(trace)
    assert text.count("\n") == len(_occurrences(trace.root)) + 3
    # the document `reduce --format json` writes; rewriting the parsed
    # document gives back the same bytes
    doc = dumps(trace, valid=True)
    back = loads(doc)
    assert dumps(back, valid=True) == doc
    assert verify_trace(back).ok
    assert back == trace and hash(back) == hash(trace)
    # change one field of the deepest node: the traces are no longer equal
    path = [back.root]
    while isinstance(path[-1], CompositeStep):
        node = path[-1]
        path.append(node.mu1 if node_depth(node.mu1) >= node_depth(node.mu2) else node.mu2)
    assert len(path) == depth
    changed = replace(path[-1], twist_degree=path[-1].twist_degree + 1)
    for parent, child in zip(path[-2::-1], path[:0:-1]):
        changed = replace(parent, **{"mu1" if parent.mu1 is child else "mu2": changed})
    assert replace(back, root=changed) != trace
