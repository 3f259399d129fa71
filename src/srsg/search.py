"""Exhaustive search for net-regular strongly regular signings.

Given an r-regular underlying graph and a target net-degree rho, every
valid signing has a k-regular negative subgraph with k = (r - rho)/2, so
the search enumerates k-regular spanning subgraphs and keeps the signings
whose squared sign matrix is constant on each entry class.

Edges are decided in lexicographic (min, max) order, which groups them
into per-vertex blocks: when block u closes, every edge at u is decided,
so u is "complete" and each pair (t, u) with t complete has its final
squared-matrix entry.  Those entries are checked against the parameter
filter (or against values learned from the first completed pair of each
class) and inconsistent subtrees are cut.  The degree-cap prune rejects
blocks that overshoot k or leave a vertex unable to reach it.

The DFS keeps the negative rows only.  An edge of a decided block that is
not negative is positive, so a complete vertex's positive row is its host
row minus its negative row, and the entry of a completed pair t < u is
|C| - 2 * popcount((neg[t] ^ neg[u]) & C) over its common neighbours C:
a term sigma(tw)sigma(uw) is -1 exactly when one of tw, uw is negative.

Reports are deterministic: fixed edge order, canonical representatives,
sorted output, and identical results for any worker count.  With jobs > 1
the top blocks are split into task prefixes; each task searches the
subtree below its prefix, and the tasks' leaves are concatenated in prefix
order, which is the order of the single DFS.  A node budget bounds the
whole search, not each task: every task runs under the full budget, and
when the nodes of the split and of all tasks together exceed it, the
report is that of the single DFS stopped at node budget + 1, exactly as at
jobs = 1.  So a report is exhaustive exactly when the whole tree has at
most node_budget nodes, whatever the worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations

from .core import SignedGraph, UGraph, negation
from .errors import DegreeMismatch, DisconnectedInput
from .iso import canonical_form, decode_canonical
from .params import negation_dual
from .regularity import SrsgClass, SrsgParams, class_of, extract_params, negative_degree

# not called here, but perfbench's traced runs wrap it among this module's names
from .regularity import classify  # noqa: F401

DEDUPE_MODES = ("iso", "iso-neg", "none")

_NODES, _LEAVES, _PDEG, _PPAIR = range(4)


@dataclass
class SearchStats:
    nodes: int = 0
    leaves: int = 0
    raw_hits: int = 0
    pruned_degree: int = 0
    pruned_pair: int = 0
    wall_time: float = 0.0

    def add(self, other: "SearchStats") -> None:
        self.nodes += other.nodes
        self.leaves += other.leaves
        self.raw_hits += other.raw_hits
        self.pruned_degree += other.pruned_degree
        self.pruned_pair += other.pruned_pair


@dataclass(frozen=True)
class SearchConfig:
    """Search targets and policies.

    dedupe: "none" keeps every signing found, "iso" one per isomorphism
    class, "iso-neg" additionally folds a graph and its negation together.
    pair_prune=False disables the completed-pair entry check and leaves
    only degree-cap pruning (used by the equivalence oracle in tests).
    node_budget caps search-tree nodes; on overrun the report is flagged
    non-exhaustive instead of raising.
    """

    rho: int
    param_filter: tuple[SrsgParams, ...] | None = None
    dedupe: str = "iso"  # "none" | "iso" | "iso-neg"
    require_connected: bool = True
    node_budget: int | None = None
    pair_prune: bool = True
    jobs: int = 1

    def __post_init__(self):
        if self.dedupe not in DEDUPE_MODES:
            raise ValueError(f"unknown dedupe mode {self.dedupe!r}")


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
    """

    rho: int
    hits: list[Hit]
    stats: SearchStats
    exhaustive: bool
    per_graph: list[dict]


class _BudgetStop(Exception):
    pass


def _search_raw(nbr, n, k, allowed=None, budget=None, counters=None, prefix=(), stop_depth=None):
    """Block DFS over signings whose negative subgraph is k-regular.

    A generator: yields each leaf lazily, in DFS order, as (pos_rows,
    neg_rows) mask tuples.  The host need not be regular.

    allowed: None (degree pruning only), the string "learn", or a triple of
    frozensets of admissible squared-matrix entries for (positive,
    negative, non-adjacent) pairs.

    counters: a list [nodes, leaves, pruned_degree, pruned_pair] the DFS
    adds to.  With a budget the DFS stops when it reaches node budget + 1,
    so it was cut short exactly when the nodes it counted exceed budget.

    prefix: block choices replayed before the DFS starts (parallel tasks).
    stop_depth: yield each extendable prefix (the block choices of blocks
    below stop_depth) instead of recursing past it.

    The state is the negative rows alone.  A block choice S for vertex u
    sets bit u in negm[w] and bumps negc[w] for w in S only, sets the mask
    of S in negm[u], and is undone by XOR of the same bits.  Every other
    edge of the block is positive, which needs no record: the positive row
    of a complete vertex i is nbr[i] & ~negm[i].  The squared-matrix entry
    of a completed pair t < u follows from the negative rows too: (A^2)[t][u]
    sums sigma(tw)sigma(uw) over the common neighbours w in
    C = nbr[t] & nbr[u], and a product is -1 exactly when one of tw, uw is
    negative, so the entry is |C| - 2 * popcount((negm[t] ^ negm[u]) & C).
    """
    if counters is None:
        counters = [0, 0, 0, 0]
    negm = [0] * n
    negc = [0] * n
    bit = [1 << w for w in range(n)]
    avail = [[w for w in range(u + 1, n) if (nbr[u] >> w) & 1] for u in range(n)]
    # floors[u]: (w, the least negative degree w may have once block u is
    # decided), k minus the edges at w that later blocks still decide
    floors = [[(w, k - (nbr[w] >> (u + 1)).bit_count()) for w in avail[u]] for u in range(n)]
    # pairs[u]: for each t < u, (t, common neighbours, their number, the
    # entry class when tu is not negative: 0 adjacent, 2 non-adjacent)
    pairs = [
        [(t, nbr[t] & nbr[u], (nbr[t] & nbr[u]).bit_count(), 0 if (nbr[u] >> t) & 1 else 2) for t in range(u)]
        for u in range(n)
    ]
    learn: list[int | None] = [None, None, None]
    learning = allowed == "learn"
    filtering = isinstance(allowed, tuple)
    chosen: list[tuple[int, ...]] = []

    def pairs_ok(u, trail):
        nu = negm[u]
        for t, common, lam, c in pairs[u]:
            e = lam - 2 * ((negm[t] ^ nu) & common).bit_count()
            if (nu >> t) & 1:
                c = 1
            if filtering:
                if e not in allowed[c]:
                    return False
            else:
                lv = learn[c]
                if lv is None:
                    learn[c] = e
                    trail.append(c)
                elif lv != e:
                    return False
        return True

    def apply_block(u, S):
        """Record block choice S at u and return the mask of S."""
        ub = 1 << u
        sm = 0
        for w in S:
            sm |= bit[w]
            negm[w] |= ub
            negc[w] += 1
        negm[u] |= sm
        return sm

    def rec(u):
        if u == stop_depth:
            yield tuple(chosen)
            return
        if u == n:
            counters[_LEAVES] += 1
            yield tuple(nbr[i] & ~negm[i] for i in range(n)), tuple(negm)
            return
        av = avail[u]
        need = k - negc[u]
        if need < 0 or need > len(av):
            counters[_PDEG] += 1
            return
        floor_u = floors[u]
        ub = 1 << u
        for S in combinations(av, need):
            counters[_NODES] += 1
            if budget is not None and counters[_NODES] > budget:
                raise _BudgetStop
            sm = apply_block(u, S)
            ok = True
            for w, floor in floor_u:
                if not floor <= negc[w] <= k:
                    ok = False
                    break
            trail: list[int] = []
            if not ok:
                counters[_PDEG] += 1
            elif (learning or filtering) and not pairs_ok(u, trail):
                ok = False
                counters[_PPAIR] += 1
            if ok:
                chosen.append(S)
                yield from rec(u + 1)
                chosen.pop()
            for c in trail:
                learn[c] = None
            for w in S:
                negm[w] ^= ub
                negc[w] -= 1
            negm[u] ^= sm

    # replay a task prefix; its choices were generated by this same DFS, so
    # they must pass their own checks again (and relearn the entries)
    for u, S in enumerate(prefix):
        apply_block(u, S)
        if (learning or filtering) and not pairs_ok(u, []):
            raise RuntimeError("task prefix failed replay")
        chosen.append(S)

    try:
        yield from rec(len(prefix))
    except _BudgetStop:
        pass


def _task_worker(payload):
    """Leaves and counters of the subtree below one task prefix."""
    nbr, n, k, allowed, budget, prefix = payload
    counters = [0, 0, 0, 0]
    raw = list(_search_raw(nbr, n, k, allowed, budget, counters, prefix))
    return raw, counters


def _pool_map(fn, items, jobs):
    """[fn(x) for x in items]: in this process at jobs <= 1, otherwise in a
    pool of jobs worker processes.  Results keep the order of items."""
    if jobs <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


def enumerate_negative_subgraphs(g: UGraph, k: int):
    """Yield the k-regular spanning subgraphs of g, each once, as sorted
    (u, v) edge tuples, in the fixed lexicographic search order."""
    if not g.is_regular():
        raise DegreeMismatch("underlying graph is not regular")
    r = g.degree(0)
    if negative_degree(r, r - 2 * k) is None:  # k is the negative degree at net degree r - 2k
        raise DegreeMismatch(f"k={k} out of range 0..{r}")
    n = g.n
    for _, neg in _search_raw(g.nbr, n, k):
        yield tuple((u, w) for u in range(n) for w in range(u + 1, n) if (neg[u] >> w) & 1)


def _allowed_from_filter(compat: list[SrsgParams]):
    return (
        frozenset(p.a for p in compat if p.a is not None),
        frozenset(p.b for p in compat if p.b is not None),
        frozenset(p.c for p in compat if p.c is not None),
    )


def _split_tasks(nbr, n, k, allowed, jobs, counters):
    """Deterministic top-of-tree task prefixes; aims for a few per worker.

    Deepens the prefixes one block at a time until there are at least
    4 * jobs of them, none are left, or the next block is the last one.
    The nodes and prunes of the blocks above the prefixes (the part of the
    search the parent process explores itself) are added to counters.
    """
    prefixes: list[tuple] = [()]
    for depth in range(1, n):
        prefixes = [q for p in prefixes for q in _search_raw(nbr, n, k, allowed, None, counters, p, depth)]
        if len(prefixes) >= 4 * jobs or not prefixes:
            break
    return prefixes


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
    class of its leaves (both isomorphism invariants)."""
    if cfg.dedupe != "none":
        classes = {h.canonical: h for h in hits}
        if cfg.dedupe == "iso-neg":
            classes = {h.canonical: h for h in (_fold_negation(h, cfg.rho) for h in classes.values())}
        hits = [replace(h, graph=decode_canonical(key)) for key, h in classes.items()]
    return _report_order(hits, cfg.dedupe)


def _fold_negation(h: Hit, rho: int) -> Hit:
    """h, or the hit of its negation (same class) if that has the smaller form."""
    g = negation(h.graph)
    key = canonical_form(g)
    if key < h.canonical:
        params, _ = negation_dual(h.params, rho)
        return Hit(g, params, h.cls, key)
    return h


def search_srsg(g: UGraph, cfg: SearchConfig) -> SearchReport:
    """Enumerate all net-degree-rho strongly regular signings of g.

    The underlying graph must be regular (DegreeMismatch otherwise) and,
    unless cfg.require_connected is off, connected.  A degree/net-degree
    parity mismatch is answered with an empty exhaustive report: no signing
    exists, which is a result rather than an error.
    """
    if not g.is_regular():
        raise DegreeMismatch("underlying graph is not regular")
    r = g.degree(0)
    if cfg.require_connected and not g.is_connected():
        raise DisconnectedInput("underlying graph is not connected")

    t0 = time.perf_counter()
    stats = SearchStats()

    def report(hits: list[Hit], exhaustive: bool, note: str = "") -> SearchReport:
        stats.wall_time = time.perf_counter() - t0
        row = {
            "raw_hits": stats.raw_hits,
            "nodes": stats.nodes,
            "leaves": stats.leaves,
            "exhaustive": exhaustive,
            "note": note,
        }
        return SearchReport(cfg.rho, hits, stats, exhaustive, [row])

    k = negative_degree(r, cfg.rho)
    if k is None:
        return report([], True, "vacuous: no k-regular negative subgraph fits this net-degree")

    filter_set = None
    if cfg.param_filter is not None:
        compat = [p for p in cfg.param_filter if p.n == g.n and p.r == r]
        if not compat:
            return report([], True, "filter excludes this order or degree")
        filter_set = set(compat)
        allowed = _allowed_from_filter(compat) if cfg.pair_prune else None
    else:
        allowed = "learn" if cfg.pair_prune else None

    n, nbr, budget = g.n, g.nbr, cfg.node_budget
    counters = [0, 0, 0, 0]
    prefixes = [()] if cfg.jobs <= 1 else _split_tasks(nbr, n, k, allowed, cfg.jobs, counters)
    tasks = _pool_map(_task_worker, [(nbr, n, k, allowed, budget, p) for p in prefixes], cfg.jobs)
    raw = [leaf for leaves, _ in tasks for leaf in leaves]
    for _, tcounters in tasks:
        counters = [a + b for a, b in zip(counters, tcounters)]
    if budget is not None and counters[_NODES] > budget and prefixes != [()]:
        # the split search overran the budget: report what the single DFS
        # finds within it, as jobs=1 does
        raw, counters = _task_worker((nbr, n, k, allowed, budget, ()))
    stats.nodes, stats.leaves, stats.pruned_degree, stats.pruned_pair = counters

    # leaf verification: recompute parameters exactly and apply the filter,
    # whether or not pair pruning already enforced them
    found: list[Hit] = []
    for pm, nm in raw:
        sg = SignedGraph(n, pm, nm)
        p = extract_params(sg)
        if p is None or (filter_set is not None and p not in filter_set):
            continue
        found.append(Hit(sg, p, class_of(p), canonical_form(sg)))
    stats.raw_hits = len(found)

    return report(_dedupe_hits(found, cfg), budget is None or stats.nodes <= budget)


def search_catalog(graphs: list[tuple[str, UGraph]], cfg: SearchConfig) -> SearchReport:
    """Search every (name, graph) entry and merge the per-host hits.

    When several graphs are given and jobs > 1, parallelism is spent across
    graphs (one worker each, deterministic merge); a single graph gets
    branch-level parallelism instead.  stats.wall_time is the elapsed time
    of the whole call.
    """
    t0 = time.perf_counter()
    across = cfg.jobs > 1 and len(graphs) >= 2
    inner_cfg = replace(cfg, jobs=1) if across else cfg
    reports = _pool_map(_host_worker, [(g, inner_cfg) for _, g in graphs], cfg.jobs if across else 1)

    stats = SearchStats()
    per_graph: list[dict] = []
    hits: list[Hit] = []
    for (name, _), rep in zip(graphs, reports):
        stats.add(rep.stats)
        per_graph.append({"name": name, **rep.per_graph[0]})
        hits.extend(rep.hits)

    stats.wall_time = time.perf_counter() - t0
    exhaustive = all(rep.exhaustive for rep in reports)
    return SearchReport(cfg.rho, _report_order(hits, cfg.dedupe), stats, exhaustive, per_graph)


def _host_worker(payload):
    g, cfg = payload
    return search_srsg(g, cfg)
