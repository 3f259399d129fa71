"""Exhaustive search for net-regular strongly regular signings.

Given an r-regular underlying graph and a target net-degree rho, every
valid signing has a k-regular negative subgraph with k = (r - rho)/2, so
the search enumerates k-regular spanning subgraphs and keeps the signings
whose squared sign matrix is constant on each entry class.

Edges are decided in lexicographic (min, max) order, which groups them
into per-vertex blocks: when block u closes, every edge at u is decided,
so u is "complete" and each pair (t, u) with t complete has its final
squared-matrix entry.  The first completed pair of each entry class sets
its value, later pairs must have it, and inconsistent subtrees are cut.  A
parameter filter only narrows which value may be set (see _search_raw).
The degree-cap prune rejects blocks that overshoot k or leave a vertex
unable to reach it.

The DFS keeps the negative rows only.  An edge of a decided block that is
not negative is positive, so a complete vertex's positive row is its host
row minus its negative row, and a completed pair t < u has the entry
|C| - 2 * popcount((neg[t] ^ neg[u]) & C) over its common neighbours C, by
the rule that core._pair_walks derives.

search_srsg's DFS, filtered or not, also looks ahead, by a forward check
that cuts only subtrees holding no accepted leaf, so the leaves and their
order are those of the DFS without it.  Each entry class has one span,
which holds the class's entry in every accepted leaf below the state.  A
learned class's span is its value.  The host is r-regular, so every vertex
of a leaf has r - k positive and k negative neighbours and n - 1 - r
non-neighbours, and every accepted leaf's entries a, b, c satisfy a(r - k) +
bk + c(n - 1 - r) = rho^2 - r, the row sum of the off-diagonal entries of
A^2 (eq. (3), halved).  So once every class with a nonzero coefficient but
one is learned, the value the identity derives for the last one is the
value every accepted leaf below has: that value is its span, and a subtree
where it is not an integer, or not admitted, holds no accepted leaf.  Every
other class starts with no span.

After block u, take a pair (t, v) with t <= u < v.  Its class is known, as
sigma(tv) is decided.  Its entry sums sigma(tw)sigma(vw) over the common
neighbours w; the terms of w <= u are decided, and for w > u sigma(tw) is
known and sigma(vw) open.  Vertex v takes exactly k - negc[v] more negative
edges among its open edges, and that bounds the entry to a span |C| +
2[lo - d, hi - d], whose values all have the parity of |C|.  Every
completion of the state has the pair's entry in its span, and every
accepted leaf below gives all pairs of a class one entry, in the class's
span: so when a pair's span misses the class's span or differs from it in
parity, none is accepted, and otherwise the class's span narrows to their
meet.  An accepted leaf also meets the identity with each class somewhere
in its span; when the least and largest sums over the spans miss the
identity's right side, none is accepted.  Each class with a nonzero
coefficient has a span by then: once block u passes the degree
check, u has exactly k negative, r - k positive and n - 1 - r non-adjacent
pairs, each either closed, so that its class is learned, or a pair (u, v)
with v > u, checked after block u, so that its class has a span; and a
class's coefficient is nonzero exactly when u has a pair of it.  Only the
pairs whose span block u can move are checked: (u, v) for every v > u, and
(t, v) for t < u and v a later neighbour of u.  A pair whose class value is
learned after its last check waits for the next block that moves it, which
only delays a cut.

search_srsg does not search the host in the labelling it is given.  It
relabels the host into a greedy order computed from its canonical form (see
_search_order, which computes it once per host per process), so the tree,
and every counter, is the same for every labelling of the host.  A
relabelling is an isomorphism of hosts: it maps the host's signings one to
one onto the relabelled host's, each to an isomorphic signing with the
same parameters, so the set of classes found is unchanged.  Each leaf is mapped back to the input labels before it is
verified, so the hits of dedupe "none" are signings of the host as given;
the iso modes report decoded canonical forms, which no labelling changes.
A search that needs no DFS (no negative degree fits the net degree, or
n * k is odd, when no k-regular subgraph exists) is answered with an
empty exhaustive report and a note.

Reports are deterministic: fixed edge order, canonical representatives,
sorted output, and identical results for any worker count.  Each host's
tree is walked by one DFS in one process; jobs only spreads a catalog's
hosts over worker processes.  Each host's DFS stops at node budget + 1, so
a report is exhaustive exactly when the tree has at most node_budget
nodes, at any jobs.

The worker pool is started at the first catalog call with jobs > 1 and at
least two hosts, and serves every later call of the process with the same
jobs; another jobs value or a forked child gets a new pool, and no worker
sees a later change to this module.  A call sends its hosts in about two
chunks per worker, not one round trip each (see _pool_map).  At a normal
exit concurrent.futures joins the workers; a worker whose parent is gone
exits by itself, whatever the start method.

Under the iso modes the DFS walks a smaller tree, one block choice per set
of choices that a swap of interchangeable vertices maps onto each other.
Host vertices x != w are twins when their host rows are equal once each
ignores the other (the sides of K_{m,m}, the parts of K3,3,3).  At block u,
two later twins whose negative edges to the decided vertices 0..u-1 are the
same lie in one cell, and within each cell the choice must be a prefix: the
first i vertices negative, the rest positive (the cell rule of Crawford,
Ginsberg, Luks & Roy 1996, "Symmetry-breaking predicates for search
problems").  This is exact for a search that keeps one signing per class:

- the swap of two cell-mates is a host automorphism that fixes every
  decided edge;
- the leaves accepted below a node are exactly the completions of its
  state whose negative subgraph is k-regular and whose squared-matrix
  entries are constant on each entry class, equal to the values known so
  far and admitted by the filter's sets; the look-ahead changes none
  of that, as a derived span holds the value every such leaf has and a
  cut subtree holds none of them; under the degree-only DFS (allowed
  None, as scripts/make_fixtures.py walks K_n for its k-factors) they are
  exactly the completions whose negative subgraph is k-regular; an
  automorphism that fixes the state keeps all of that, so the swap maps
  the accepted leaves below a choice S one to one onto those below
  swap(S), each to an isomorphic signing;
- every orbit of the cell permutations on block choices holds exactly one
  prefix-form choice, so by induction from the leaves the reduced tree
  finds a signing of every class the full tree finds;
- the rule only removes children, so the reduced tree's leaves are a
  subsequence of the full tree's, in the same order.

Under dedupe "none" every signing is kept, so the full tree is walked.  The
counters (nodes, leaves, raw hits, prunes) and the node budget count the
tree that was walked.
"""

from __future__ import annotations

import functools
import math
import multiprocessing.connection
import os
import threading
import time
from collections.abc import Iterable
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import combinations, repeat

from .core import SignedGraph, UGraph, _relabel, _twin_classes, all_positive, negation
from .errors import DegreeMismatch, DisconnectedInput
from .iso import canonical_form, canonical_labeling, decode_canonical
from .regularity import SrsgClass, SrsgParams, _eq3_terms, class_of, eq3_holds, extract_params, negative_degree

# not called here, but perfbench's traced runs wrap it among this module's names
from .regularity import classify  # noqa: F401

DEDUPE_MODES = ("iso", "iso-neg", "none")


@dataclass
class SearchStats:
    nodes: int = 0
    leaves: int = 0
    raw_hits: int = 0
    pruned_degree: int = 0
    pruned_pair: int = 0

    def add(self, other: "SearchStats") -> None:
        """Add each counter of other to this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass(frozen=True)
class SearchConfig:
    """Search targets and policies.

    param_filter: the parameter sets a hit may have (None: any).  Its rows
    that fit the host and the identity at rho narrow what the DFS learns.
    dedupe: "none" keeps every signing found, "iso" one per isomorphism
    class, "iso-neg" also drops a class whose negation is a class the same
    host has, with the smaller canonical form.  Every hit is a signing found
    at net degree rho; negation flips it to -rho, so iso-neg differs from
    iso only at rho = 0.  Only "none" walks every signing; the iso modes walk
    the twin-reduced tree (see the module docstring), and the report's
    counters count the tree walked.
    node_budget (None or >= 0) caps the nodes of that tree; on overrun
    the report is flagged non-exhaustive instead of raising.
    jobs (>= 1): worker processes a catalog search spreads its hosts over;
    each host's tree is walked in one process, so a single host ignores it.
    """

    rho: int
    param_filter: tuple[SrsgParams, ...] | None = None
    dedupe: str = "iso"  # "none" | "iso" | "iso-neg"
    node_budget: int | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.dedupe not in DEDUPE_MODES:
            raise ValueError(f"unknown dedupe mode {self.dedupe!r}")
        if self.node_budget is not None and self.node_budget < 0:
            raise ValueError(f"node_budget must be at least 0, got {self.node_budget}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


@dataclass(frozen=True)
class Hit:
    graph: SignedGraph
    params: SrsgParams
    cls: SrsgClass
    canonical: bytes


@dataclass
class SearchReport:
    """The hits of a search over one host or a catalog of hosts.

    per_graph holds one row per host, in input order: raw_hits, nodes,
    leaves, exhaustive, and a note that says why a host needed no search
    (empty otherwise).  Rows of a catalog search also carry the host's name.
    stats holds the deterministic counters; wall_time is the elapsed time of
    the call that made the report.
    """

    rho: int
    hits: list[Hit]
    stats: SearchStats
    exhaustive: bool
    per_graph: list[dict]
    wall_time: float


class _BudgetStop(Exception):
    pass


@functools.lru_cache
def _dfs_tables(nbr: tuple[int, ...]):
    """The tables of _search_raw that k does not change, built whole once
    per host rows per process (cached as _search_order is), all tuples:
    (avail, pairs, tid, twin_block, ahead)."""
    n = len(nbr)
    # avail[u]: the later neighbours of u, whose edges block u decides
    avail = tuple(tuple(w for w in range(u + 1, n) if (nbr[u] >> w) & 1) for u in range(n))
    # pairs[u]: for each t < u, (t, common neighbours, their number, the
    # entry class when tu is not negative: 0 adjacent, 2 non-adjacent)
    pairs = tuple(
        tuple((t, nbr[t] & nbr[u], (nbr[t] & nbr[u]).bit_count(), 0 if (nbr[u] >> t) & 1 else 2) for t in range(u))
        for u in range(n)
    )
    # tid[w]: the least vertex whose host row equals w's once each ignores
    # the other, w's class in the host as an all-positive signed graph
    tid = list(range(n))
    for cls in _twin_classes(nbr, (0,) * n):
        for w in cls:
            tid[w] = cls[0]
    # twin_block[u]: whether avail[u] holds two vertices of one twin class
    twin_block = tuple(len({tid[w] for w in av}) < len(av) for av in avail)
    # ahead[u]: the pairs (t, v), t <= u < v, whose reachable entries may
    # change when block u closes: (t, v, decided and open common neighbours,
    # the number of all and of the open ones, v's other open edges, whether
    # tv is an edge)
    ahead = []
    for u in range(n):
        high = ~((1 << (u + 1)) - 1)
        rows = []
        for t, vs in [(u, range(u + 1, n))] + [(t, avail[u]) for t in range(u)]:
            nt = nbr[t]
            for v in vs:
                common = nt & nbr[v]
                co = common & high
                lam_o = co.bit_count()
                q = (nbr[v] & high).bit_count() - lam_o
                rows.append((t, v, common & ~high, co, common.bit_count(), lam_o, q, (nt >> v) & 1))
        ahead.append(tuple(rows))
    return avail, pairs, tuple(tid), twin_block, tuple(ahead)


def _search_raw(nbr, k, allowed=None, budget=None, stats=None, twins=False, lookahead=False):
    """Block DFS over signings whose negative subgraph is k-regular.

    A generator: yields each leaf lazily, in DFS order, as (pos_rows,
    neg_rows) mask tuples.

    nbr is the tuple of rows of an r-regular host on n >= 1 vertices, and 0 <=
    k <= r: every caller ensures it, and nothing here checks it.  So at block
    u, 0 <= k - negc[u] <= |avail[u]| with no guard: if u has an earlier
    neighbour, the last one t checked k - |avail[u]| <= negc[u] <= k when its
    block passed, as u is in avail[t] and u's neighbours above t are exactly
    avail[u], and no block between t and u touches u; if none, negc[u] = 0
    and |avail[u]| = r >= k.

    allowed: None (degree pruning only), or a triple of the admissible
    squared-matrix entries of (positive, negative, non-adjacent) pairs, a
    frozenset or None (any value) for each class.  A class takes the value
    of its first completed pair if its set admits it (else the node is
    cut); later pairs must have that value.  A class with one admissible
    value is known from the start, on no trail.

    stats: the SearchStats whose nodes, leaves, pruned_degree and
    pruned_pair the DFS adds to (None: a new one); search_srsg passes its
    report's.  With a budget the DFS stops when it reaches node budget + 1,
    so it was cut short exactly when the nodes it counted exceed budget.

    twins: try one block choice per orbit of twin swaps (see the module
    docstring).  The twin class tid[w] of a vertex, like every table that k
    does not change, is computed once per host per process (see
    _dfs_tables).  At block u the later neighbours avail[u] fall into cells
    keyed by
    (tid[w], negm[w]); for w > u, negm[w] holds exactly w's negative edges
    to 0..u-1, so with equal host rows, equal keys mean equal signed rows
    towards every decided vertex.  A choice S is accepted only when S meets
    each cell in a prefix of the cell in avail order; a rejected choice is
    not a node and is not counted.  Only blocks whose avail holds two
    vertices of one twin class look at cells at all.  The argument holds
    with allowed None too, where a leaf is accepted exactly when its
    negative subgraph is k-regular: on K_n, whose vertices are all twins,
    the reduced tree still yields a k-factor of every isomorphism class.
    Off, the full tree is walked and every signing is yielded.

    lookahead: with allowed not None, add the forward check of the module
    docstring, with one span per class; its cuts count in pruned_pair.  A
    class value is learned only in pairs_ok, on the trail, and derived only
    in reachable, for the call.  The leaves are those of lookahead=False, in
    the same order; only the tree shrinks.  search_srsg always looks ahead;
    False keeps the tree the DFS pins pin.

    The state is the negative rows alone.  A block choice S for vertex u
    sets bit u in negm[w] and bumps negc[w] for w in S only, sets the mask
    of S in negm[u], and is undone by XOR of the same bits.  Every other
    edge of the block is positive, which needs no record: the positive row
    of a complete vertex i is nbr[i] & ~negm[i], and the squared-matrix
    entry of a completed pair is read from negm as the module docstring says.
    """
    if stats is None:
        stats = SearchStats()
    n = len(nbr)
    avail, pairs, tid, twin_block, ahead = _dfs_tables(nbr)
    negm = [0] * n
    negc = [0] * n
    bit = [1 << w for w in range(n)]
    # floors[u]: (w, the least negative degree w may have once block u is
    # decided), k minus the edges at w that later blocks still decide
    floors = [[(w, k - (nbr[w] >> (u + 1)).bit_count()) for w in avail[u]] for u in range(n)]
    # learn[c]: the value of class c in every accepted leaf below, once known
    learn = [next(iter(s)) if s is not None and len(s) == 1 else None for s in allowed or (None,) * 3]
    r = nbr[0].bit_count()
    # the identity: eq. (3) at net degree r - 2k, doubled; coef[c] is
    # twice the number of pairs of class c at each vertex, and doubling
    # leaves the quotient and the remainder test alone
    coef, tie_sum = _eq3_terms(n, r, r - 2 * k)
    tie_classes = [c for c in range(3) if coef[c]]

    def pairs_ok(u, trail):
        nu = negm[u]
        for t, common, lam, c in pairs[u]:
            e = lam - 2 * ((negm[t] ^ nu) & common).bit_count()
            if (nu >> t) & 1:
                c = 1
            lv = learn[c]
            if lv is None:
                if allowed[c] is not None and e not in allowed[c]:
                    return False
                learn[c] = e
                trail.append(c)
            elif lv != e:
                return False
        return True

    def reachable(u):
        """Whether every pair of ahead[u] can still reach its class's span,
        and the identity its spans (see the module docstring).  Of a pair's
        open common neighbours w, where sigma(tw) is known, pos are positive
        and nw negative.  If v takes x negative edges to the former and y to
        the latter, the entry is |C| + 2(y - x - d), with d the decided w
        where sigma(tw) != sigma(vw), plus nw; x <= pos, y <= nw, and x + y +
        z = k - negc[v], with z <= q the negatives v takes on its other open
        edges."""
        # a learned class's span is its value, and the one identity class
        # left unlearned starts at the value the identity derives
        lo = learn[:]
        hi = learn[:]
        rest, missing = tie_sum, None
        for c in tie_classes:
            if learn[c] is not None:
                rest -= coef[c] * learn[c]
            elif missing is None:
                missing = c
            else:
                break
        else:
            if missing is not None:
                value, odd = divmod(rest, coef[missing])
                if odd or (allowed[missing] is not None and value not in allowed[missing]):
                    return False
                lo[missing] = hi[missing] = value
        for t, v, cd, co, lam, lam_o, q, adj in ahead[u]:
            nt = negm[t]
            c = (nt >> v) & 1 if adj else 2
            nw = (nt & co).bit_count()
            d = ((nt ^ negm[v]) & cd).bit_count() + nw
            m = k - negc[v]
            # the largest y - x: y = min(nw, m), x = max(0, m - q - y)
            y = nw if nw < m else m
            x = m - q - y
            top = y - x if x > 0 else y
            # the least: x = min(pos, m), y = max(0, m - q - x)
            x = lam_o - nw
            if x > m:
                x = m
            y = m - q - x
            bottom = y - x if y > 0 else -x
            low = lam + 2 * (bottom - d)
            high = lam + 2 * (top - d)
            if lo[c] is not None:
                if (low ^ lo[c]) & 1:
                    return False
                if low < lo[c]:
                    low = lo[c]
                if high > hi[c]:
                    high = hi[c]
            if low > high:
                return False
            lo[c], hi[c] = low, high
        # the identity with each class anywhere in its span
        least = most = 0
        for c in tie_classes:
            least += coef[c] * lo[c]
            most += coef[c] * hi[c]
        return least <= tie_sum <= most

    def cell_mates(u):
        """(v, w) for each two vertices of avail[u] that are next to each
        other in one cell: a prefix-form choice holding w holds v."""
        last = {}
        mates = []
        for w in avail[u]:
            key = (tid[w], negm[w])
            if key in last:
                mates.append((last[key], w))
            last[key] = w
        return mates

    def rec(u):
        if u == n:
            stats.leaves += 1
            yield tuple(nbr[i] & ~negm[i] for i in range(n)), tuple(negm)
            return
        floor_u = floors[u]
        ub = 1 << u
        choices = combinations(avail[u], k - negc[u])
        mates = cell_mates(u) if twins and twin_block[u] else None
        if mates:
            choices = (S for S in choices if not any(w in S and v not in S for v, w in mates))
        for S in choices:
            stats.nodes += 1
            if budget is not None and stats.nodes > budget:
                raise _BudgetStop
            sm = 0
            for w in S:
                sm |= bit[w]
                negm[w] |= ub
                negc[w] += 1
            negm[u] |= sm
            for w, floor in floor_u:
                if not floor <= negc[w] <= k:
                    stats.pruned_degree += 1
                    break
            else:
                trail: list[int] = []
                if allowed is None or pairs_ok(u, trail) and (not lookahead or reachable(u)):
                    yield from rec(u + 1)
                else:
                    stats.pruned_pair += 1
                for c in trail:
                    learn[c] = None
            for w in S:
                negm[w] ^= ub
                negc[w] -= 1
            negm[u] ^= sm

    try:
        yield from rec(0)
    except _BudgetStop:
        pass


def _exit_with_parent() -> None:
    """Pool worker initializer: exit once the process that started the worker
    is gone, also when it was killed and never ran the exit hook that joins
    its workers.  The parent sentinel reads end of file then (under fork, once
    the workers forked after this one are gone too); os.getppid() would not
    change under forkserver, where it is the fork server."""
    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


_pool = None  # ((pid, jobs), the ProcessPoolExecutor that process made)


def _pool_map(fn, items, jobs, *more):
    """list(map(fn, items, *more)): in this process at jobs <= 1 or with at
    most one item, otherwise in the process's pool of jobs workers (see the
    module docstring).  The items go out in chunks of ceil(len(items) / (2 *
    jobs)), so each worker takes about two chunks rather than one round trip
    per item.  Results keep the order of items, and the first error a task
    raises is raised here.  A broken pool is dropped and its error raised."""
    global _pool
    if jobs <= 1 or len(items) <= 1:
        return list(map(fn, items, *more))
    pid = os.getpid()
    if _pool is None or _pool[0] != (pid, jobs):
        if _pool is not None and _pool[0][0] == pid:
            _pool[1].shutdown()
        _pool = (pid, jobs), ProcessPoolExecutor(jobs, initializer=_exit_with_parent)
    try:
        return list(_pool[1].map(fn, items, *more, chunksize=max(1, math.ceil(len(items) / (2 * jobs)))))
    except BrokenProcessPool:
        _pool = None
        raise


def enumerate_negative_subgraphs(g: UGraph, k: int):
    """Yield the k-regular spanning subgraphs of g, each once, as sorted
    (u, v) edge tuples, in the fixed lexicographic search order.  An odd
    n * k yields none without a DFS, as search_srsg answers it."""
    if not g.is_regular():
        raise DegreeMismatch("underlying graph is not regular")
    r = g.degree(0)
    if not 0 <= k <= r:
        raise DegreeMismatch(f"k={k} out of range 0..{r}")
    n = g.n
    if _no_dfs_note(n, k):
        return
    for _, neg in _search_raw(g.nbr, k):
        yield tuple((u, w) for u in range(n) for w in range(u + 1, n) if (neg[u] >> w) & 1)


def _allowed_from_filter(compat: list[SrsgParams]):
    return (
        frozenset(p.a for p in compat if p.a is not None),
        frozenset(p.b for p in compat if p.b is not None),
        frozenset(p.c for p in compat if p.c is not None),
    )


@functools.lru_cache
def _search_order(g: UGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The vertex order search_srsg searches g in (order[i] is the vertex at
    position i), and g's rows relabelled into it.

    Start from the canonical labelling of g and take its position 0, then
    repeatedly the vertex with the most neighbours among those taken, ties
    going to the lower canonical position.  A vertex with many earlier
    neighbours completes many pairs as soon as its block closes, so the
    pair prune cuts early.  The order is computed from the canonical form
    alone, so the relabelled rows, and every counter of the search, are the
    same for every labelling of g.

    A host searched at several net degrees, or in several catalog calls,
    gets its order once per process: the answer is cached by g, a frozen
    UGraph equal to another with the same rows, so equal rows share an
    entry and a relabelled host gets its own.  The cache keeps the 128
    hosts used last (lru_cache's default bound); each pool worker keeps its
    own, and a worker forked later starts from the parent's entries.  Both
    parts of the answer are tuples, so no caller can change a cached one.
    """
    _, canon = canonical_labeling(all_positive(g))
    order, rest, taken = canon[:1], canon[1:], 1 << canon[0]
    while rest:
        v = max(rest, key=lambda w: (g.nbr[w] & taken).bit_count())
        rest.remove(v)
        order.append(v)
        taken |= 1 << v
    position = [0] * g.n
    for i, v in enumerate(order):
        position[v] = i
    return tuple(order), _relabel(g.nbr, position)


def _no_dfs_note(n: int, k: int | None) -> str:
    """Why a search for a k-regular negative subgraph on n vertices needs no
    DFS (no such subgraph exists), or "" when it needs one."""
    if k is None:
        return "vacuous: no k-regular negative subgraph fits this net-degree"
    if n * k % 2:
        return "parity: a k-regular subgraph needs n * k even"
    return ""


def _report_order(hits: list[Hit], mode: str) -> list[Hit]:
    """Hits sorted for a report; under the iso modes, one per canonical form.
    A host's iso hits are decoded canonical forms, so the hits of one class
    from several hosts are equal and a catalog merges them by that field."""
    if mode != "none":
        hits = list({h.canonical: h for h in hits}.values())
    return sorted(hits, key=lambda h: (h.canonical, h.graph.pos, h.graph.neg))


def _dedupe_hits(hits: list[Hit], cfg: SearchConfig) -> list[Hit]:
    """One host's report hits from its verified leaves.  Under the iso modes
    a class is shown by its decoded canonical form, with the parameters and
    class of its leaves (both isomorphism invariants).

    iso-neg drops a class when its negation has the smaller canonical form
    and is itself a class of this host.  A signing and its negation share
    their host, so this fold over one host is complete; the class kept is
    one the search found, at net degree rho.  Negation flips the net degree
    to -rho, so a fold can happen only at rho = 0, and only there are the
    negation forms computed."""
    if cfg.dedupe != "none":
        classes = {h.canonical: h for h in hits}
        if cfg.dedupe == "iso-neg" and cfg.rho == 0:
            negs = {key: canonical_form(negation(h.graph)) for key, h in classes.items()}
            classes = {key: h for key, h in classes.items() if not (negs[key] < key and negs[key] in classes)}
        hits = [replace(h, graph=decode_canonical(key)) for key, h in classes.items()]
    return _report_order(hits, cfg.dedupe)


def search_srsg(g: UGraph, cfg: SearchConfig) -> SearchReport:
    """Enumerate all net-degree-rho strongly regular signings of g.

    The underlying graph must be regular (DegreeMismatch otherwise) and
    connected (DisconnectedInput otherwise).  A degree/net-degree
    parity mismatch, or an odd n * k, is answered with an empty exhaustive
    report: no signing exists, which is a result rather than an error.
    """
    if not g.is_regular():
        raise DegreeMismatch("underlying graph is not regular")
    r = g.degree(0)
    if not g.is_connected():
        raise DisconnectedInput("underlying graph is not connected")

    t0 = time.perf_counter()
    stats = SearchStats()

    def report(hits: list[Hit], exhaustive: bool, note: str = "") -> SearchReport:
        row = {
            "raw_hits": stats.raw_hits,
            "nodes": stats.nodes,
            "leaves": stats.leaves,
            "exhaustive": exhaustive,
            "note": note,
        }
        return SearchReport(cfg.rho, hits, stats, exhaustive, [row], time.perf_counter() - t0)

    k = negative_degree(r, cfg.rho)
    note = _no_dfs_note(g.n, k)
    if note:
        return report([], True, note)

    filter_set = None
    allowed = (None, None, None)
    if cfg.param_filter is not None:
        compat = [p for p in cfg.param_filter if p.n == g.n and p.r == r and eq3_holds(p, cfg.rho)]
        if not compat:
            return report([], True, "filter excludes this order, degree or net degree")
        filter_set = set(compat)
        allowed = _allowed_from_filter(compat)

    n, budget = g.n, cfg.node_budget
    order, nbr = _search_order(g)
    # one signing per class suffices under the iso modes: walk the twin-reduced tree
    twins = cfg.dedupe != "none"
    # leaf verification, each leaf as the DFS yields it: recompute parameters
    # exactly and apply the filter, whether or not pair pruning already
    # enforced them
    found: list[Hit] = []
    for pm, nm in _search_raw(nbr, k, allowed, budget, stats, twins=twins, lookahead=True):
        sg = SignedGraph(n, _relabel(pm, order), _relabel(nm, order))
        p = extract_params(sg)
        if p is None or (filter_set is not None and p not in filter_set):
            continue
        found.append(Hit(sg, p, class_of(p), canonical_form(sg)))
    stats.raw_hits = len(found)

    return report(_dedupe_hits(found, cfg), budget is None or stats.nodes <= budget)


def search_catalog(graphs: Iterable[tuple[str, UGraph]], cfg: SearchConfig) -> SearchReport:
    """Search every (name, graph) entry and merge the per-host hits.

    The hosts are spread over cfg.jobs worker processes (see _pool_map), each
    host searched whole by one of them, and merged in input order; one host,
    or jobs = 1, is searched in this process.  wall_time is the elapsed time
    of the whole call.
    """
    t0 = time.perf_counter()
    graphs = list(graphs)
    reports = _pool_map(search_srsg, [g for _, g in graphs], cfg.jobs, repeat(cfg))

    stats = SearchStats()
    per_graph: list[dict] = []
    hits: list[Hit] = []
    for (name, _), rep in zip(graphs, reports):
        stats.add(rep.stats)
        per_graph.append({"name": name, **rep.per_graph[0]})
        hits.extend(rep.hits)

    exhaustive = all(rep.exhaustive for rep in reports)
    return SearchReport(
        cfg.rho, _report_order(hits, cfg.dedupe), stats, exhaustive, per_graph, time.perf_counter() - t0
    )
