import os
import random
import subprocess
import sys
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings

import srsg.iso as iso
from conftest import FIXTURES, cube, kmm, petersen, relabel, rook, shrikhande, signed_graphs
from srsg.catalog import build, build_underlying, list_names
from srsg.core import all_positive, from_signed_edges, negation, ugraph_from_edges
from srsg.iso import (
    _canonical_search,
    _initial_cells,
    _refine,
    _witness,
    are_isomorphic,
    automorphism_count,
    canonical_form,
    canonical_labeling,
    canonical_representative,
    decode_canonical,
    fingerprint,
)
from srsg.regularity import SrsgParams, extract_params
from srsg.sgio import read_graph6_file


def apply_perm(g, perm):
    return from_signed_edges(g.n, [(perm[u], perm[v], s) for u, v, s in g.edges()])


@given(signed_graphs(max_n=8))
def test_canonical_form_relabelling_invariance(g):
    rng = random.Random(g.n * 1000 + g.edge_count())
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(g) == canonical_form(apply_perm(g, perm))


def test_catalog_graphs_invariant_under_permutations():
    from srsg.catalog import list_names

    rng = random.Random(20240)
    for name in list_names():
        g = build(name).graph
        key = canonical_form(g)
        reps = 100 if g.n <= 9 else 25
        for _ in range(reps):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(apply_perm(g, perm)) == key


def test_catalog_entries_pairwise_distinct():
    assert canonical_form(build("S2_8").graph) != canonical_form(build("S3_8").graph)
    s48 = build("S4_8").graph
    assert canonical_form(s48) != canonical_form(negation(s48))


def test_decode_round_trip():
    g = build("S_9").graph
    enc = canonical_form(g)
    assert canonical_form(decode_canonical(enc)) == enc
    assert decode_canonical(enc) == canonical_representative(g)


@given(signed_graphs(max_n=7))
def test_witness_is_verified_mapping(g):
    rng = random.Random(42 + g.n)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = apply_perm(g, perm)
    ok, w = are_isomorphic(g, h)
    assert ok
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.sign(u, v) == h.sign(w[u], w[v])


def test_param_invariant_fast_path():
    assert are_isomorphic(build("S2_8").graph, build("S4_8").graph) == (False, None)
    # graphs of different orders are decided before any invariant
    assert are_isomorphic(build("S2_8").graph, build("S_9").graph) == (False, None)


def test_fingerprint_short_circuit():
    a = from_signed_edges(3, [(0, 1, 1), (1, 2, 1)])
    b = from_signed_edges(3, [(0, 1, 1), (1, 2, -1)])
    assert fingerprint(a) != fingerprint(b)
    assert fingerprint(a) == fingerprint(apply_perm(a, [2, 1, 0]))


def test_negation_metamorphic():
    # building the negation two ways gives the same canonical form
    g = build("S_9").graph
    direct = negation(g)
    rebuilt = from_signed_edges(g.n, [(u, v, -s) for u, v, s in g.edges()])
    assert canonical_form(direct) == canonical_form(rebuilt)


def brute_automorphism_count(u):
    count = 0
    for perm in permutations(range(u.n)):
        if all(
            u.adjacent(a, b) == u.adjacent(perm[a], perm[b])
            for a in range(u.n)
            for b in range(a + 1, u.n)
        ):
            count += 1
    return count


def test_automorphism_count_examples():
    k4 = ugraph_from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert automorphism_count(k4) == 24
    assert automorphism_count(build_underlying("K66")) == 1036800
    pet = ugraph_from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
         (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )
    assert automorphism_count(pet) == 120


def test_automorphism_count_matches_brute_force_small():
    rng = random.Random(99)
    cases = [
        ugraph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        ugraph_from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        ugraph_from_edges(6, [(0, 1), (2, 3), (4, 5)]),
    ]
    for _ in range(5):
        n = rng.randint(4, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        cases.append(ugraph_from_edges(n, edges))
    for u in cases:
        assert automorphism_count(u) == brute_automorphism_count(u)


@given(signed_graphs(max_n=6))
def test_automorphism_count_of_a_signed_graph_matches_brute_force(g):
    """A signed graph's count is the order of its sign-preserving group, by
    brute force over every permutation; an unsigned graph's is that of its
    all-positive signing."""
    brute = sum(
        all(g.sign(a, b) == g.sign(p[a], p[b]) for a in range(g.n) for b in range(a + 1, g.n))
        for p in permutations(range(g.n))
    )
    assert automorphism_count(g) == brute
    u = g.underlying()
    assert automorphism_count(u) == automorphism_count(all_positive(u))


def cycles(*lengths):
    """Disjoint union of cycles: regular and triangle-free, so refinement
    alone leaves cycles of different lengths in one cell."""
    edges, base = [], 0
    for k in lengths:
        edges += [(base + i, base + (i + 1) % k) for i in range(k)]
        base += k
    return ugraph_from_edges(base, edges)


SYMMETRIC_SMALL = [
    *(("K%d,%d" % (m, m), kmm(m)) for m in range(1, 5)),
    *(("C%d" % n, cycles(n)) for n in range(3, 9)),
    ("Q3", cube(3)),
    ("2K3", ugraph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
    ("K3,3-PM", ugraph_from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3) if i != j])),
]


@pytest.mark.parametrize("name,u", SYMMETRIC_SMALL, ids=[n for n, _ in SYMMETRIC_SMALL])
def test_automorphism_count_symmetric_brute_force(name, u):
    assert automorphism_count(u) == brute_automorphism_count(u)


FORMULA_CASES = [
    *(("K%d,%d" % (m, m), kmm(m), 2 * factorial(m) ** 2) for m in range(1, 9)),
    ("rook3", rook(3), 2 * factorial(3) ** 2),
    ("rook4", rook(4), 2 * factorial(4) ** 2),
    ("Q4", cube(4), 384),
    ("C16", cycles(16), 32),
    ("Petersen", petersen(), 120),
    ("C4+C5", cycles(4, 5), 8 * 10),
    ("C4+C8", cycles(4, 8), 8 * 16),
    ("C4+C4+C6", cycles(4, 4, 6), 2 * 8 * 8 * 12),
    ("C5+C10", cycles(5, 10), 10 * 20),
    *(("K%d,%d" % (m, m), kmm(m), 2 * factorial(m) ** 2) for m in (*range(9, 17), 20, 24, 32)),
    *(("rook%d" % m, rook(m), 2 * factorial(m) ** 2) for m in range(5, 9)),
    *(("C%d" % n, cycles(n), 2 * n) for n in range(17, 65)),
]


# the labelling picks the first path the count is read from, so every case
# is also counted under a few relabellings
FORMULA_CASES += [
    (f"{name}~{seed}", relabel(u, seed), order)
    for name, u, order in list(FORMULA_CASES)
    for seed in (1, 2, 3)
]


@pytest.mark.parametrize("name,u,order", FORMULA_CASES, ids=[c[0] for c in FORMULA_CASES])
def test_automorphism_count_closed_formulas(name, u, order):
    assert automorphism_count(u) == order


def test_automorphism_count_matches_vf2():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    rng = random.Random(7)
    cases = [petersen(), cycles(10), cube(3), kmm(3), rook(3), cycles(4, 5), cycles(4, 6),
             ugraph_from_edges(10, [(i, (i + d) % 10) for i in range(10) for d in (1, 4)])]
    for _ in range(8):
        n = rng.randint(7, 10)
        cases.append(ugraph_from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]))
    for u in cases:
        G = nx.Graph()
        G.add_nodes_from(range(u.n))
        G.add_edges_from((a, b) for a in range(u.n) for b in range(a + 1, u.n) if u.adjacent(a, b))
        assert automorphism_count(u) == sum(1 for _ in GraphMatcher(G, G).isomorphisms_iter())


def random_signings():
    """Seeded random signings of K_{m,m} (m <= 6) and rook m x m (m <= 5),
    each edge negative with probability p; a small p leaves a large group.
    Small p only up to n = 9, as VF2 lists every automorphism."""
    rng = random.Random(14)
    hosts = [kmm(m) for m in range(2, 7)] + [rook(m) for m in range(2, 6)]
    for u in hosts:
        for p in (0.0, 0.1, 0.25, 0.5) if u.n <= 9 else (0.25, 0.5):
            yield from_signed_edges(u.n, [(a, b, -1 if rng.random() < p else 1) for a, b in u.edges()])
    for m in (4, 5):  # a negative perfect matching: a group of order 2 * m!
        yield from_signed_edges(2 * m, [(i, m + j, -1 if i == j else 1) for i in range(m) for j in range(m)])


def test_search_group_order_matches_vf2_signed():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def same_sign(x, y):
        return x["s"] == y["s"]

    for k, g in enumerate(random_signings()):
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from((a, b, {"s": s}) for a, b, s in g.edges())
        vf2 = sum(1 for _ in GraphMatcher(G, G, edge_match=same_sign).isomorphisms_iter())
        enc, _, _, group_order = _canonical_search(g)
        assert group_order == vf2, k
        for seed in (1, 2, 3):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            assert canonical_form(apply_perm(g, perm)) == enc, (k, seed)


def count_leaves(monkeypatch):
    """Patch iso._encode to count the leaves searches reach from now on."""
    leaves = [0]
    encode = iso._encode

    def counted(*args):
        leaves[0] += 1
        return encode(*args)

    monkeypatch.setattr(iso, "_encode", counted)
    return leaves


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("u,m", [(rook(7), 7), (kmm(12), 12)], ids=["rook7", "K12,12"])
def test_automorphism_leaves_jump_back(monkeypatch, u, m, seed):
    """A leaf with the first leaf's encoding sends the search back to its
    deepest common ancestor with the first leaf, so a vertex-transitive
    host reaches at most n leaves under any labelling (without the jump,
    rook 7x7 reaches 337 to 6,908 leaves under these labellings and
    K12,12 134)."""
    leaves = count_leaves(monkeypatch)
    g = all_positive(relabel(u, seed))
    assert _canonical_search(g)[3] == 2 * factorial(m) ** 2
    assert 0 < leaves[0] <= g.n


def test_kmm_twins_leave_two_leaves(monkeypatch):
    """Each side of K_{m,m} is a twin class, so the twin transpositions
    seeded at the root join it at once: the search reaches the first leaf
    and the one the side swap gives (K32,32 reached 64 without them)."""
    leaves = count_leaves(monkeypatch)
    for m in range(1, 33):
        for seed in (0, 1):
            u = kmm(m) if seed == 0 else relabel(kmm(m), seed)
            leaves[0] = 0
            assert _canonical_search(all_positive(u))[3] == 2 * factorial(m) ** 2
            assert 0 < leaves[0] <= 2, (m, seed)


def iso_witness_inputs():
    """Every catalog entry, every target, K_{m,m} (m <= 12), rook m x m
    (m <= 7) and unions of cycles of two lengths, whose search reaches a
    leaf of larger encoding first (C5+C10 in its own labelling)."""
    for name in list_names():
        yield build(name).graph
    targets = os.path.join(FIXTURES, "targets")
    for fname in sorted(os.listdir(targets)):
        for u in read_graph6_file(os.path.join(targets, fname)):
            yield all_positive(u)
    for m in range(1, 13):
        yield all_positive(kmm(m))
    for m in range(2, 8):
        yield all_positive(rook(m))
    for k in range(3, 7):
        yield all_positive(cycles(k, 2 * k))


def test_iso_witness_is_the_full_searches_witness():
    """are_isomorphic searches h only until a leaf matches g's canonical
    form; that leaf is the one h's full search returns, so the witness maps
    g's canonical labelling onto h's."""
    rng = random.Random(18)
    count = 0
    for g in iso_witness_inputs():
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = apply_perm(g, perm)
            ok, w = are_isomorphic(g, h)
            assert ok
            assert w == _witness(canonical_labeling(g)[1], canonical_labeling(h)[1])
            count += 1
    assert count > 60


def test_rook4_and_shrikhande_are_not_isomorphic():
    """Both are srg(16,6,2,2) with six triangles at each vertex, so the
    fingerprint does not decide them and h's search runs to its end with no
    match."""
    a, b = all_positive(rook(4)), all_positive(shrikhande())
    assert fingerprint(a) == fingerprint(b)
    assert extract_params(a) == extract_params(b) is not None
    assert are_isomorphic(a, b) == (False, None)
    assert are_isomorphic(b, a) == (False, None)


def test_petersen_and_pentagonal_prism_are_not_isomorphic():
    """Both are cubic on 10 vertices with no triangle, so their fingerprints
    agree, while only the Petersen graph is strongly regular: the searches
    alone decide the pair, in agreement with networkx VF2."""
    nx = pytest.importorskip("networkx")
    prism = ugraph_from_edges(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                              + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    a, b = all_positive(petersen()), all_positive(prism)
    assert fingerprint(a) == fingerprint(b)
    assert (extract_params(a), extract_params(b)) == (SrsgParams(10, 3, 0, None, 1), None)
    assert are_isomorphic(a, b) == (False, None)
    assert are_isomorphic(b, a) == (False, None)
    assert not nx.is_isomorphic(*(nx.Graph(list(g.edges())) for g in (petersen(), prism)))


def test_search_generators_are_automorphisms():
    graphs = [build(name).graph for name in list_names()]
    graphs += [all_positive(kmm(4)), all_positive(rook(3)), all_positive(cube(3))]
    graphs.append(from_signed_edges(8, [(i, 4 + j, 1 if i != j else -1) for i in range(4) for j in range(4)]))
    found = 0
    for g in graphs:
        _, _, gens, _ = _canonical_search(g)
        found += len(gens)
        for p in gens:
            assert sorted(p) == list(range(g.n))
            assert all(g.sign(p[u], p[v]) == s for u, v, s in g.edges())
    assert found > 0


def brute_signed_group_order(g):
    return sum(
        1 for perm in permutations(range(g.n))
        if all(g.sign(perm[u], perm[v]) == s for u, v, s in g.edges())
    )


def small_signed_graphs():
    """Signed graphs with n <= 7, symmetric ones first, then seeded random."""
    yield from_signed_edges(7, [])
    yield from_signed_edges(7, [(u, v, 1) for u in range(7) for v in range(u + 1, 7)])
    yield from_signed_edges(6, [(i, (i + 1) % 6, (-1) ** i) for i in range(6)])
    yield from_signed_edges(6, [(i, 3 + j, -1 if i == j else 1) for i in range(3) for j in range(3)])
    yield from_signed_edges(4, [(u, v, -1 if (u, v) in ((0, 1), (2, 3)) else 1)
                                for u in range(4) for v in range(u + 1, 4)])
    yield from_signed_edges(7, [(i, (i + d) % 7, 1 if d == 1 else -1) for i in range(7) for d in (1, 2)])
    rng = random.Random(11)
    for _ in range(24):
        n = rng.randint(3, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        yield from_signed_edges(n, [(u, v, rng.choice((1, -1))) for u, v in pairs])


def test_search_group_order_matches_brute_force_signed():
    for g in small_signed_graphs():
        assert _canonical_search(g)[3] == brute_signed_group_order(g)


def test_automorphism_count_path17():
    assert automorphism_count(ugraph_from_edges(17, [(u, u + 1) for u in range(16)])) == 2


def full_refine(pos, neg, cells):
    """Oracle: equitable refinement counting into every cell every round."""
    cells = [list(c) for c in cells]
    changed = True
    while changed:
        changed = False
        masks = []
        for c in cells:
            m = 0
            for v in c:
                m |= 1 << v
            masks.append(m)
        new_cells = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            keyed = {}
            for v in cell:
                key = tuple(
                    ((pos[v] & m).bit_count(), (neg[v] & m).bit_count()) for m in masks
                )
                keyed.setdefault(key, []).append(v)
            if len(keyed) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(keyed):
                    new_cells.append(keyed[key])
        cells = new_cells
    return cells


def to_masks(cells):
    return [sum(1 << v for v in cell) for cell in cells]


def to_lists(cells):
    """Bitmask cells as ascending vertex lists, the list partition's form."""
    return [[v for v in range(m.bit_length()) if (m >> v) & 1] for m in cells]


def refine_inputs():
    """Seeded random signed graphs with n <= 24, sparse to dense, then
    symmetric hosts whose equitable partitions keep large cells."""
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(2, 24)
        p = rng.choice((0.15, 0.3, 0.5, 0.8))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        yield from_signed_edges(n, [(u, v, rng.choice((1, -1, 1))) for u, v in pairs])
    for u in (kmm(5), rook(4), cube(4), petersen(), cycles(4, 4, 6), cycles(5, 10)):
        yield all_positive(u)
    for name in list_names():
        yield build(name).graph


def test_refine_matches_full_recompute_from_any_partition():
    # (a) every cell fresh, from random ordered partitions
    rng = random.Random(6)
    for g in refine_inputs():
        for _ in range(3):
            labels = [rng.randrange(1 + g.n // 3) for _ in range(g.n)]
            cells = [[v for v in range(g.n) if labels[v] == k] for k in sorted(set(labels))]
            rng.shuffle(cells)
            got = _refine(g.pos, g.neg, to_masks(cells), range(len(cells)))
            assert to_lists(got) == full_refine(g.pos, g.neg, cells)


def test_refine_matches_full_recompute_after_individualising():
    # (b) every child of an equitable partition, with only the new
    # singleton fresh; the partitions are the root's and its children's
    children = 0
    for g in refine_inputs():
        root = full_refine(g.pos, g.neg, to_lists(_initial_cells(g)))
        todo = [(root, 0)]
        while todo:
            cells, depth = todo.pop()
            for target, cell in enumerate(cells):
                for v in cell if len(cell) > 1 else ():
                    child = cells[:target] + [[v], [w for w in cell if w != v]] + cells[target + 1 :]
                    got = to_lists(_refine(g.pos, g.neg, to_masks(child), (target,)))
                    assert got == full_refine(g.pos, g.neg, child)
                    children += 1
                    if depth == 0:
                        todo.append((got, 1))
    assert children > 2000


_OPTIMISED_CHECKS = """
import sys
import srsg.catalog as catalog
import srsg.iso as iso
from srsg.core import from_signed_edges
from srsg.errors import ConstructionInvalid

if __debug__:
    sys.exit("not running under -O")
g = catalog.build("S_9").graph
h = from_signed_edges(g.n, [((u + 1) % g.n, (v + 1) % g.n, s) for u, v, s in g.edges()])
real = iso._canonical_search
calls = []


def wrong_second_order(x, *args):
    enc, order, gens, group_order = real(x, *args)
    calls.append(x)
    if len(calls) == 2:
        order = order[1:] + order[:1]
    return enc, order, gens, group_order


iso._canonical_search = wrong_second_order
try:
    iso.are_isomorphic(g, h)
    print("witness accepted")
except RuntimeError:
    print("witness rejected")
catalog._validate_srg = lambda *args: False
try:
    catalog.build_underlying("GQ22")
    print("construction accepted")
except ConstructionInvalid:
    print("construction rejected")
"""


def test_checks_survive_python_O():
    # a wrong canonical order for the second graph must fail the witness
    # check, and a failed SRG self-check must raise, with asserts stripped
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMISED_CHECKS],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split("\n")
    assert out[:2] == ["witness rejected", "construction rejected"]
