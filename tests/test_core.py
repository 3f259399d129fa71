import random
from itertools import product

import pytest
from hypothesis import given

from conftest import brute_square, brute_two_walks, signed_graphs
from srsg.core import (
    _twin_classes,
    SignedGraph,
    UGraph,
    components,
    from_signed_edges,
    is_balanced,
    negation,
    negative_subgraph,
    net_degree,
    positive_subgraph,
    sign_with,
    square_entries,
    triangle_census,
    two_walk_counts,
    ugraph_from_edges,
)
from srsg.errors import DuplicateEdge, SelfLoop, SizeExceeded, VertexOutOfRange


def test_single_positive_edge():
    g = from_signed_edges(2, [(0, 1, 1)])
    assert g.pos_degree(0) == 1 and g.neg_degree(0) == 0
    assert g.sign(0, 1) == 1 and g.sign(1, 0) == 1


def test_path_with_negative_edge():
    g = from_signed_edges(3, [(0, 1, 1), (1, 2, -1)])
    assert [net_degree(g, v) for v in range(3)] == [1, 0, -1]
    assert two_walk_counts(g, 0, 2) == (0, 1)


def test_duplicate_edge_rejected_both_orientations():
    with pytest.raises(DuplicateEdge):
        from_signed_edges(3, [(0, 1, 1), (0, 1, -1)])
    with pytest.raises(DuplicateEdge):
        from_signed_edges(3, [(0, 1, 1), (1, 0, 1)])


def test_self_loop_and_range_rejected():
    with pytest.raises(SelfLoop):
        from_signed_edges(3, [(1, 1, 1)])
    with pytest.raises(VertexOutOfRange):
        from_signed_edges(3, [(0, 3, 1)])
    with pytest.raises(VertexOutOfRange):
        net_degree(from_signed_edges(2, [(0, 1, 1)]), 5)


def test_invalid_arguments_are_typed_errors():
    g = from_signed_edges(3, [(0, 1, 1), (1, 2, -1)])
    with pytest.raises(ValueError, match="two distinct vertices"):
        two_walk_counts(g, 1, 1)
    with pytest.raises(ValueError, match="has sign 0"):
        from_signed_edges(2, [(0, 1, 0)])
    with pytest.raises(VertexOutOfRange, match=r"\(0, 2\) is not an edge"):
        sign_with(ugraph_from_edges(3, [(0, 1), (1, 2)]), [(0, 2)])


def test_direct_construction_checks_rows():
    # path 0-1-2 as bitmask rows, then one fault at a time
    assert UGraph(3, (0b010, 0b101, 0b010)).edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError, match="row count"):
        UGraph(3, (0b010, 0b101))
    with pytest.raises(VertexOutOfRange):
        UGraph(3, (0b1010, 0b101, 0b010))  # bit 3 on 3 vertices
    with pytest.raises(SelfLoop):
        UGraph(3, (0b011, 0b101, 0b010))
    with pytest.raises(ValueError, match=r"asymmetric adjacency at pair \(0, 2\)"):
        UGraph(3, (0b110, 0b101, 0b010))  # 0 sees 2, 2 does not see 0
    with pytest.raises(ValueError, match=r"asymmetric adjacency at pair \(0, 2\)"):
        UGraph(3, (0b010, 0b101, 0b011))  # 2 sees 0, 0 does not see 2
    with pytest.raises(SizeExceeded):
        UGraph(0, ())


def test_direct_signed_construction_checks_rows():
    # 0-1 positive, 1-2 negative
    g = SignedGraph(3, (0b010, 0b001, 0b000), (0b000, 0b100, 0b010))
    assert g.edges() == [(0, 1, 1), (1, 2, -1)]
    with pytest.raises(ValueError, match="row count"):
        SignedGraph(3, (0b010, 0b001, 0b000), (0b000, 0b100))
    with pytest.raises(VertexOutOfRange):
        SignedGraph(3, (0b010, 0b001, 0b000), (0b1000, 0b100, 0b010))
    with pytest.raises(SelfLoop):
        SignedGraph(3, (0b010, 0b001, 0b000), (0b000, 0b110, 0b010))
    with pytest.raises(ValueError, match="asymmetric"):
        SignedGraph(3, (0b110, 0b001, 0b000), (0b000, 0b100, 0b010))
    # a pair carrying both signs
    with pytest.raises(DuplicateEdge):
        SignedGraph(2, (0b10, 0b01), (0b10, 0b01))
    # a pair positive from 0 and negative from 1
    with pytest.raises(ValueError, match=r"asymmetric adjacency at pair \(0, 1\)"):
        SignedGraph(2, (0b10, 0b00), (0b00, 0b01))


def test_rows_are_stored_as_tuples():
    """A graph is the same value whatever sequence its rows came in, and a
    later change to that sequence leaves the graph, and its validity, as built."""
    rows = [0b010, 0b101, 0b010]
    u, t = UGraph(3, rows), UGraph(3, tuple(rows))
    assert u == t and hash(u) == hash(t)
    rows[0] = 0b110  # asymmetric, had it reached the graph
    assert u.nbr == (0b010, 0b101, 0b010) and u.edges() == [(0, 1), (1, 2)]
    pos, neg = [0b010, 0b001, 0b000], [0b000, 0b100, 0b010]
    g, t = SignedGraph(3, pos, neg), SignedGraph(3, tuple(pos), tuple(neg))
    assert t.adj == (0b010, 0b101, 0b010)  # the cached rows stay out of eq, hash and repr
    assert g == t and hash(g) == hash(t) and repr(g) == repr(t)
    pos[1], neg[2] = 0b101, 0  # pair 1-2 in both signs, and 2 no longer sees 1
    assert (g.pos, g.neg) == ((0b010, 0b001, 0b000), (0b000, 0b100, 0b010))
    assert g.edges() == [(0, 1, 1), (1, 2, -1)]


def _bfs_components(n, adjacent):
    """Components of the graph whose edges are the pairs adjacent(u, v), by
    breadth-first search, each sorted, ordered by least vertex."""
    seen, comps = set(), []
    for s in range(n):
        if s in seen:
            continue
        seen.add(s)
        queue = [s]
        for u in queue:
            for v in range(n):
                if v not in seen and adjacent(u, v):
                    seen.add(v)
                    queue.append(v)
        comps.append(sorted(queue))
    return comps


@given(signed_graphs(min_n=1))
def test_row_queries_match_sign_oracle(g):
    """The shared row queries, on g and on its underlying graph, against an
    oracle read from g.sign alone; balance by a scan of all 2^n switchings."""
    n = g.n
    S = [[g.sign(u, v) for v in range(n)] for u in range(n)]
    degs = [sum(1 for x in row if x) for row in S]
    nets = [sum(row) for row in S]
    edges = [(u, v, S[u][v]) for u in range(n) for v in range(u + 1, n) if S[u][v]]
    comps = _bfs_components(n, lambda u, v: S[u][v] != 0)
    ug = g.underlying()
    for h in (g, ug):
        assert [h.degree(v) for v in range(n)] == h.degrees() == degs
        assert h.edge_count() == len(edges)
        assert h.is_regular() == (len(set(degs)) == 1)
        assert h.is_complete() == all(d == n - 1 for d in degs)
        assert h.is_connected() == (len(comps) == 1)
        assert components(h.adj, n) == comps
    assert g.edges() == edges
    assert ug.edges() == [(u, v) for u, v, _ in edges]
    assert g.net_degrees() == nets
    assert g.is_net_regular() == (len(set(nets)) == 1)
    switchings = product((1, -1), repeat=n)
    assert is_balanced(g) == any(all(sgn == s[u] * s[v] for u, v, sgn in edges) for s in switchings)


def test_size_envelope():
    with pytest.raises(SizeExceeded):
        from_signed_edges(65, [])
    with pytest.raises(SizeExceeded):
        ugraph_from_edges(100, [])


def test_subgraph_views():
    g = from_signed_edges(4, [(0, 1, 1), (1, 2, -1), (2, 3, 1)])
    gp = positive_subgraph(g)
    gn = negative_subgraph(g)
    assert gp.edges() == [(0, 1, 1), (2, 3, 1)]
    assert gn.edges() == [(1, 2, -1)]
    for v in range(4):
        assert g.degree(v) == gp.degree(v) + gn.degree(v)


def test_negation_of_all_positive_regular():
    k4 = from_signed_edges(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    ng = negation(k4)
    assert all(net_degree(ng, v) == -3 for v in range(4))


def test_square_entries_single_edge():
    g = from_signed_edges(2, [(0, 1, 1)])
    assert square_entries(g) == [[1, 0], [0, 1]]


@given(signed_graphs())
def test_square_entries_matches_brute_force(g):
    assert square_entries(g) == brute_square(g)


@given(signed_graphs())
def test_two_walks_agree_with_square(g):
    sq = square_entries(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            p, q = two_walk_counts(g, u, v)
            assert p - q == sq[u][v]
            assert p + q == (g.adj_row(u) & g.adj_row(v)).bit_count()
            oracle = brute_two_walks(g, u, v)
            assert (p, q) == oracle
            assert sq[u][v] == sq[v][u] == oracle[0] - oracle[1]


@given(signed_graphs())
def test_negation_involution_and_square_invariance(g):
    assert negation(negation(g)) == g
    assert square_entries(negation(g)) == square_entries(g)


@given(signed_graphs())
def test_degree_split(g):
    for v in range(g.n):
        assert g.degree(v) == g.pos_degree(v) + g.neg_degree(v)
        assert net_degree(g, v) == g.pos_degree(v) - g.neg_degree(v)


def test_balance_trivial_cases():
    allpos = from_signed_edges(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    assert is_balanced(allpos)
    tri = from_signed_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])
    assert not is_balanced(tri)


@given(signed_graphs(max_n=8))
def test_switched_all_positive_is_balanced(g):
    # signs sigma(uv) = s(u)s(v) make every cycle positive by construction
    s = [1 if v % 2 else -1 for v in range(g.n)]
    edges = [(u, v, s[u] * s[v]) for u, v, _ in g.edges()]
    assert is_balanced(from_signed_edges(g.n, edges))


def test_triangle_census_k3_cases():
    k3 = from_signed_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    assert triangle_census(k3).counts == (1, 0, 0, 0)
    m3 = from_signed_edges(3, [(0, 1, -1), (0, 2, -1), (1, 2, -1)])
    assert triangle_census(m3).counts == (0, 0, 0, 1)


@given(signed_graphs())
def test_triangle_census_matches_brute_triples(g):
    counts = [0, 0, 0, 0]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            for w in range(v + 1, g.n):
                signs = (g.sign(u, v), g.sign(u, w), g.sign(v, w))
                if 0 not in signs:
                    counts[signs.count(-1)] += 1
    assert triangle_census(g).counts == tuple(counts)


@given(signed_graphs())
def test_triangle_census_total_is_trace_oracle(g):
    n = g.n
    A = [[1 if g.sign(i, j) != 0 else 0 for j in range(n)] for i in range(n)]
    A2 = [[sum(A[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    tr3 = sum(A2[i][j] * A[j][i] for i in range(n) for j in range(n))
    assert triangle_census(g).total == tr3 // 6


@given(signed_graphs())
def test_balanced_has_no_unbalanced_triangles(g):
    if is_balanced(g):
        assert triangle_census(g).unbalanced == 0


def blown_up_signings():
    """Seeded random signed graphs with twins of every kind: each vertex of
    a random base signing is replaced by a class of copies, joined to one
    another by no edge, all positive or all negative edges."""
    rng = random.Random(21)
    for _ in range(200):
        k = rng.randint(1, 5)
        base = {(a, b): rng.choice((0, 1, -1)) for a in range(k) for b in range(a + 1, k)}
        inner = [rng.choice((0, 1, -1)) for _ in range(k)]
        n = rng.randint(1, 10)
        of = [rng.randrange(k) for _ in range(n)]
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                a, b = sorted((of[u], of[v]))
                s = inner[a] if a == b else base[(a, b)]
                if s:
                    edges.append((u, v, s))
        yield from_signed_edges(n, edges)


def test_twin_classes_are_the_transposition_automorphisms():
    # u, v are twins iff every other vertex sees them with the same sign
    for g in blown_up_signings():
        twins = {
            (u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if all(g.sign(u, x) == g.sign(v, x) for x in range(g.n) if x not in (u, v))
        }
        classes = _twin_classes(g.pos, g.neg)
        assert all(cls == sorted(cls) and len(cls) > 1 for cls in classes)
        assert sum(len(cls) for cls in classes) == len({v for cls in classes for v in cls})
        assert {(u, v) for cls in classes for i, u in enumerate(cls) for v in cls[i + 1:]} == twins
