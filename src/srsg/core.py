"""Exact signed-graph primitives.

A signed graph is stored as two tuples of per-vertex bitmasks (one Python int
per row): positive neighbours and negative neighbours.  Bitmasks make
common-neighbour counts O(1) popcounts, which is what the signing search
lives on.  All arithmetic is exact integer arithmetic; the supported
envelope is n <= 64 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DuplicateEdge, SelfLoop, SizeExceeded, VertexOutOfRange

MAX_VERTICES = 64


def _check_vertex(v: int, n: int) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
        raise VertexOutOfRange(f"vertex {v!r} not in range 0..{n - 1}")


def _bits(x: int):
    """The set bits of x, lowest first."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _relabel(rows, perm) -> tuple[int, ...]:
    """Bitmask rows with vertex i renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = sum(1 << perm[j] for j in _bits(row))
    return tuple(out)


def _twin_classes(pos, neg) -> list[list[int]]:
    """The twin classes of a signed graph with two or more members, each
    in ascending order.

    Vertices u and v are twins when every other vertex has the same sign
    towards both, so swapping them is an automorphism.  Twins have equal
    (pos, neg) rows when they are not adjacent, equal (pos | {u}, neg) rows
    when uv is positive and equal (pos, neg | {u}) rows when it is negative,
    so each of those three keys groups its kind in O(n) dict operations.
    If v and w are both twins of u, then w sees u as it sees v and v sees u
    as it sees w, so uv, uw and vw have one sign: the kinds never share a
    vertex, and each key's groups are equivalence classes.  Each row pair is
    packed into one int key.
    """
    n = len(pos)
    keyed: tuple[dict[int, list[int]], ...] = ({}, {}, {})
    for v, (p, q) in enumerate(zip(pos, neg)):
        row = p << n | q
        keyed[0].setdefault(row, []).append(v)
        keyed[1].setdefault(row | 1 << (n + v), []).append(v)
        keyed[2].setdefault(row | 1 << v, []).append(v)
    return [cls for groups in keyed if len(groups) < n for cls in groups.values() if len(cls) > 1]


def _check_size(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise SizeExceeded(f"n={n} outside supported range 1..{MAX_VERTICES}")


def _check_rows(n: int, rows: tuple[int, ...]) -> None:
    """n rows of a symmetric, loop-free adjacency on vertices 0..n-1."""
    _check_size(n)
    if len(rows) != n:
        raise ValueError("adjacency row count does not match n")
    full = (1 << n) - 1
    for v, row in enumerate(rows):
        if row & ~full:
            raise VertexOutOfRange(f"row {v} references vertices >= {n}")
        if (row >> v) & 1:
            raise SelfLoop(f"vertex {v} adjacent to itself")
        while row:
            low = row & -row
            w = low.bit_length() - 1
            if not (rows[w] >> v) & 1:
                raise ValueError(f"asymmetric adjacency at pair ({min(v, w)}, {max(v, w)})")
            row ^= low


class _Rows:
    """The row queries of a graph on vertices 0..n-1 with adjacency bitmask
    rows adj: for a signed graph, the rows of its underlying graph."""

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def is_regular(self) -> bool:
        degs = self.degrees()
        return min(degs) == max(degs)

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(row == full & ~(1 << v) for v, row in enumerate(self.adj))

    def is_connected(self) -> bool:
        return len(components(self.adj, self.n)[0]) == self.n


@dataclass(frozen=True)
class UGraph(_Rows):
    """Unsigned simple graph on vertices 0..n-1; adjacency as bitmask rows."""

    n: int
    nbr: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nbr", tuple(self.nbr))
        _check_rows(self.n, self.nbr)

    @property
    def adj(self) -> tuple[int, ...]:
        return self.nbr

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.nbr[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self.nbr) for v in _bits(row >> (u + 1) << (u + 1))]


def components(nbr: tuple[int, ...] | list[int], n: int) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    seen = 0
    comps = []
    for s in range(n):
        if (seen >> s) & 1:
            continue
        comp = frontier = 1 << s
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= nbr[v]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        comps.append(list(_bits(comp)))
    return comps


def ugraph_from_edges(n: int, edges) -> UGraph:
    """Build an UGraph from an iterable of (u, v) pairs."""
    return UGraph(n, from_signed_edges(n, ((u, v, 1) for u, v in edges)).pos)


@dataclass(frozen=True)
class SignedGraph(_Rows):
    """Signed simple graph: disjoint positive/negative adjacency bitmask rows."""

    n: int
    pos: tuple[int, ...]
    neg: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "pos", tuple(self.pos))
        object.__setattr__(self, "neg", tuple(self.neg))
        # each sign's rows form a simple graph; a pair may carry one sign only
        _check_rows(self.n, self.pos)
        _check_rows(self.n, self.neg)
        for v in range(self.n):
            if self.pos[v] & self.neg[v]:
                raise DuplicateEdge(f"vertex {v} has a neighbour with both signs")

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """The underlying graph's rows, pos | neg, computed once per graph."""
        return tuple(p | q for p, q in zip(self.pos, self.neg))

    # -- local quantities ---------------------------------------------------

    def sign(self, u: int, v: int) -> int:
        """+1, -1 or 0 for the (u, v) entry of the sign matrix."""
        _check_vertex(u, self.n)
        _check_vertex(v, self.n)
        if (self.pos[u] >> v) & 1:
            return 1
        if (self.neg[u] >> v) & 1:
            return -1
        return 0

    def pos_degree(self, v: int) -> int:
        return self.pos[v].bit_count()

    def neg_degree(self, v: int) -> int:
        return self.neg[v].bit_count()

    def net_degrees(self) -> list[int]:
        return [self.pos_degree(v) - self.neg_degree(v) for v in range(self.n)]

    def edges(self) -> list[tuple[int, int, int]]:
        """Edge list (u, v, sign) with u < v, sorted by (u, v)."""
        neg = self.neg
        return [
            (u, v, -1 if (neg[u] >> v) & 1 else 1)
            for u, row in enumerate(self.adj)
            for v in _bits(row >> (u + 1) << (u + 1))
        ]

    def is_net_regular(self) -> bool:
        nets = self.net_degrees()
        return min(nets) == max(nets)

    def is_homogeneous(self) -> bool:
        return all(m == 0 for m in self.pos) or all(m == 0 for m in self.neg)

    def underlying(self) -> UGraph:
        return UGraph(self.n, self.adj)


def from_signed_edges(n: int, edges) -> SignedGraph:
    """Build a SignedGraph from (u, v, sign) triples with sign in {+1, -1}.

    Rejects self-loops, out-of-range vertices and duplicate pairs in either
    orientation, naming the offending datum.
    """
    _check_size(n)
    pos = [0] * n
    neg = [0] * n
    for e in edges:
        u, v, s = e
        _check_vertex(u, n)
        _check_vertex(v, n)
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if s not in (1, -1):
            raise ValueError(f"edge ({u}, {v}) has sign {s!r}, expected +1 or -1")
        if ((pos[u] | neg[u]) >> v) & 1:
            raise DuplicateEdge(f"duplicate edge ({u}, {v})")
        if s == 1:
            pos[u] |= 1 << v
            pos[v] |= 1 << u
        else:
            neg[u] |= 1 << v
            neg[v] |= 1 << u
    return SignedGraph(n, tuple(pos), tuple(neg))


def all_positive(g: UGraph) -> SignedGraph:
    """The signing of g with every edge positive."""
    return SignedGraph(g.n, g.nbr, (0,) * g.n)


def sign_with(g: UGraph, negative_edges) -> SignedGraph:
    """Sign g with the given (u, v) pairs negative and every other edge positive."""
    neg = [0] * g.n
    for u, v in negative_edges:
        if not g.adjacent(u, v):
            raise VertexOutOfRange(f"({u}, {v}) is not an edge of the underlying graph")
        neg[u] |= 1 << v
        neg[v] |= 1 << u
    pos = tuple(g.nbr[v] & ~neg[v] for v in range(g.n))
    return SignedGraph(g.n, pos, tuple(neg))


# -- named operations -------------------------------------------------------


def net_degree(g: SignedGraph, v: int) -> int:
    """Positive degree minus negative degree at v."""
    _check_vertex(v, g.n)
    return g.pos_degree(v) - g.neg_degree(v)


def positive_subgraph(g: SignedGraph) -> SignedGraph:
    """The spanning subgraph keeping only positive edges."""
    return SignedGraph(g.n, g.pos, (0,) * g.n)


def negative_subgraph(g: SignedGraph) -> SignedGraph:
    """The spanning subgraph keeping only negative edges (signs kept as -1).

    Use .underlying() on the result for plain regularity checks.
    """
    return SignedGraph(g.n, (0,) * g.n, g.neg)


def negation(g: SignedGraph) -> SignedGraph:
    """Flip every edge sign; an involution."""
    return SignedGraph(g.n, g.neg, g.pos)


def _walk_split(common: int, neg_u: int, neg_v: int) -> tuple[int, int]:
    """(p, q) of a pair with these common neighbours and negative rows; see _pair_walks."""
    q = ((neg_u ^ neg_v) & common).bit_count()
    return (common.bit_count() - q, q)


def _pair_walks(g: SignedGraph):
    """For each pair u < v, (u, v, code, p, q): code is 0, 1 or 2 when uv is
    positive, negative or absent (the order of a, b, c), and p and q count
    the positive and negative 2-walks between u and v.

    A 2-walk u-w-v runs through a common neighbour w in C = adj[u] & adj[v],
    and its sign sigma(uw)sigma(wv) is -1 exactly when w is in neg[u] ^ neg[v].
    So q = |(neg[u] ^ neg[v]) & C|, p = |C| - q, and (A^2)[u][v] = |C| - 2q.
    """
    pos, neg, adj = g.pos, g.neg, g.adj
    for u in range(g.n):
        pu, nu, au = pos[u], neg[u], adj[u]
        for v in range(u + 1, g.n):
            code = 0 if (pu >> v) & 1 else 1 if (nu >> v) & 1 else 2
            yield (u, v, code, *_walk_split(au & adj[v], nu, neg[v]))


def two_walk_counts(g: SignedGraph, u: int, v: int) -> tuple[int, int]:
    """Counts of positive and negative walks of length 2 between u != v.

    pos + neg equals the number of common neighbours; pos - neg is the
    (u, v) entry of the squared sign matrix (see _pair_walks).
    """
    _check_vertex(u, g.n)
    _check_vertex(v, g.n)
    if u == v:
        raise ValueError("two_walk_counts requires two distinct vertices")
    return _walk_split(g.adj[u] & g.adj[v], g.neg[u], g.neg[v])


def square_entries(g: SignedGraph) -> list[list[int]]:
    """The exact integer matrix A^2 of the sign matrix A."""
    out = [[0] * g.n for _ in range(g.n)]
    for u, d in enumerate(g.degrees()):
        out[u][u] = d
    for u, v, _, p, q in _pair_walks(g):
        out[u][v] = out[v][u] = p - q
    return out


def is_balanced(g: SignedGraph) -> bool:
    """True iff every cycle has positive sign product.

    Decided by spanning-forest switching propagation: assign each vertex a
    sign so that s(u)*s(v) matches the edge sign along a depth-first forest,
    checking every other edge as it is met.
    """
    pos, neg = g.pos, g.neg
    s = [0] * g.n
    for root in range(g.n):
        if s[root]:
            continue
        s[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for row, want in ((pos[u], s[u]), (neg[u], -s[u])):
                for v in _bits(row):
                    if s[v] == 0:
                        s[v] = want
                        stack.append(v)
                    elif s[v] != want:
                        return False
    return True


@dataclass(frozen=True)
class TriangleCensus:
    """Triangle counts keyed by the number of negative edges (0..3)."""

    counts: tuple[int, int, int, int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def unbalanced(self) -> int:
        # sign of a triangle is the product of its edge signs
        return self.counts[1] + self.counts[3]


def _triangle_profiles(g: SignedGraph) -> list[list[int]]:
    """Per vertex, its triangles counted by how many of their three edges
    are negative (0..3).  Each triangle u < v < w is visited once."""
    adj, neg = g.adj, g.neg
    prof = [[0, 0, 0, 0] for _ in range(g.n)]
    for u, row in enumerate(adj):
        for v in _bits(row >> (u + 1) << (u + 1)):
            uv_neg = (neg[u] >> v) & 1
            for w in _bits(row & adj[v] >> (v + 1) << (v + 1)):
                k = uv_neg + ((neg[u] >> w) & 1) + ((neg[v] >> w) & 1)
                prof[u][k] += 1
                prof[v][k] += 1
                prof[w][k] += 1
    return prof


def triangle_census(g: SignedGraph) -> TriangleCensus:
    """Count triangles by how many of their three edges are negative."""
    # every triangle is in the profiles of its three vertices
    return TriangleCensus(tuple(sum(col) // 3 for col in zip(*_triangle_profiles(g))))
