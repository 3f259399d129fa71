import os
import random

import pytest
from hypothesis import strategies as st

from srsg.core import SignedGraph, from_signed_edges, ugraph_from_edges
from srsg.search import SearchConfig, search_catalog
from srsg.sgio import read_graph6_file

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
# the six degree-6 sweep searches: (hosts, rho)
SWEEP = (("order10", 0), ("order10", 2), ("order10", 4), ("order9", 0), ("order9", 2), ("K8,8", 4))


@st.composite
def signed_graphs(draw, min_n=2, max_n=9):
    """Random signed graphs: each pair independently absent, positive or negative."""
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    cells = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    edges = []
    t = 0
    for u in range(n):
        for v in range(u + 1, n):
            if cells[t] == 1:
                edges.append((u, v, 1))
            elif cells[t] == 2:
                edges.append((u, v, -1))
            t += 1
    return from_signed_edges(n, edges)


@pytest.fixture(scope="session")
def fixtures_dir():
    assert os.path.isdir(FIXTURES), "fixtures/ missing; run scripts/make_fixtures.py"
    return FIXTURES


def brute_square(g: SignedGraph):
    """Independent A^2 oracle: dense sign matrix, triple loop."""
    n = g.n
    A = [[g.sign(i, j) if i != j else 0 for j in range(n)] for i in range(n)]
    return [[sum(A[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def brute_two_walks(g: SignedGraph, u: int, v: int):
    """Independent 2-walk oracle: (positive, negative) walks u-w-v counted from g.sign."""
    signs = [g.sign(u, w) * g.sign(w, v) for w in range(g.n)]
    return (signs.count(1), signs.count(-1))


def brute_extract(g: SignedGraph):
    """Independent parameter extraction straight from the definition."""
    n = g.n
    degs = [sum(1 for j in range(n) if g.sign(i, j) != 0) for i in range(n)]
    if len(set(degs)) != 1 or degs[0] == 0:
        return None
    complete = all(g.sign(i, j) != 0 for i in range(n) for j in range(n) if i != j)
    homogeneous = (
        all(g.sign(i, j) >= 0 for i in range(n) for j in range(n))
        or all(g.sign(i, j) <= 0 for i in range(n) for j in range(n))
    )
    if complete and homogeneous:
        return None
    sq = brute_square(g)
    vals = {"a": set(), "b": set(), "c": set()}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            s = g.sign(i, j)
            key = "a" if s == 1 else ("b" if s == -1 else "c")
            vals[key].add(sq[i][j])
    if any(len(v) > 1 for v in vals.values()):
        return None
    pick = lambda k: next(iter(vals[k])) if vals[k] else None
    return (n, degs[0], pick("a"), pick("b"), pick("c"))


def kmm(m):
    """Complete bipartite graph K_{m,m}: sides 0..m-1 and m..2m-1."""
    return ugraph_from_edges(2 * m, [(i, m + j) for i in range(m) for j in range(m)])


def rook(m):
    """m x m rook graph: vertex i*m + j, adjacent when sharing a row or a column."""
    return ugraph_from_edges(
        m * m,
        [(u, v) for u in range(m * m) for v in range(u + 1, m * m)
         if u // m == v // m or u % m == v % m],
    )


def shrikhande():
    """The Cayley graph on Z4 x Z4 with connection set +-(1,0), +-(0,1), +-(1,1)."""
    steps = ((1, 0), (0, 1), (1, 1))
    return ugraph_from_edges(
        16, [(4 * x + y, 4 * ((x + dx) % 4) + (y + dy) % 4) for x in range(4) for y in range(4) for dx, dy in steps]
    )


def cube(d):
    """d-dimensional hypercube Q_d: vertices 0..2^d-1, adjacent when one bit apart."""
    n = 1 << d
    return ugraph_from_edges(n, [(u, u ^ (1 << i)) for u in range(n) for i in range(d) if u < u ^ (1 << i)])


def petersen():
    """Petersen graph: outer 5-cycle 0..4, spokes i-(i+5), inner pentagram on 5..9."""
    return ugraph_from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )


def relabel(u, seed):
    """u with its vertices permuted by a seeded shuffle."""
    perm = list(range(u.n))
    random.Random(seed).shuffle(perm)
    return ugraph_from_edges(u.n, [(perm[a], perm[b]) for a, b in u.edges()])


def sweep_stats(jobs=1):
    """search_catalog's stats for each of the six sweep searches, in order."""
    hosts = {
        name: [(f"{name}[{i}]", g) for i, g in enumerate(read_graph6_file(os.path.join(FIXTURES, f"6reg_{name}.g6")))]
        for name in ("order10", "order9")
    }
    hosts["K8,8"] = [("K8,8", kmm(8))]
    return [search_catalog(hosts[name], SearchConfig(rho=rho, jobs=jobs)).stats for name, rho in SWEEP]
