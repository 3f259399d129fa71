import hashlib
import importlib.util
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from itertools import combinations, repeat

import pytest

from conftest import FIXTURES, brute_extract, brute_square, cube, kmm, petersen, relabel, shrikhande
from srsg.catalog import build, build_underlying
from srsg.core import SignedGraph, UGraph, all_positive, negation, sign_with, ugraph_from_edges
from srsg.errors import DegreeMismatch, DisconnectedInput
from srsg.iso import automorphism_count, canonical_form, decode_canonical
from srsg.regularity import SrsgClass, SrsgParams, extract_params
import srsg.search
from srsg.regularity import negative_degree
from srsg.search import (
    DEDUPE_MODES,
    SearchConfig,
    SearchStats,
    _dfs_tables,
    _pool_map,
    _search_order,
    _search_raw,
    enumerate_negative_subgraphs,
    search_catalog,
    search_srsg,
)
from srsg.sgio import read_graph6_file
from srsg.verify import run_verification
from test_dfs_pins import FILTER

# _search_raw's per-class sets with no filter: learn every class's entry
LEARN = (None, None, None)


def complete_ugraph(n):
    return ugraph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_kfactor_counts_small():
    assert sum(1 for _ in enumerate_negative_subgraphs(complete_ugraph(4), 1)) == 3
    assert sum(1 for _ in enumerate_negative_subgraphs(build_underlying("K66"), 1)) == 720
    assert sum(1 for _ in enumerate_negative_subgraphs(complete_ugraph(6), 2)) == 70
    # 2-factors of K4 and K5 are exactly the Hamiltonian cycles: 3 and 12
    assert sum(1 for _ in enumerate_negative_subgraphs(complete_ugraph(4), 2)) == 3
    assert sum(1 for _ in enumerate_negative_subgraphs(complete_ugraph(5), 2)) == 12
    # k = 0 and k = r are the two trivial spanning subgraphs
    assert list(enumerate_negative_subgraphs(complete_ugraph(4), 0)) == [()]
    assert sum(1 for _ in enumerate_negative_subgraphs(complete_ugraph(4), 3)) == 1


def test_kfactor_count_g8_regression():
    # frozen constant, cross-checked once against a full combinations scan
    assert sum(1 for _ in enumerate_negative_subgraphs(build_underlying("G8"), 3)) == 2648


def test_kfactor_subsets_are_k_regular_and_unique():
    g8 = build_underlying("G8")
    seen = set()
    for sub in enumerate_negative_subgraphs(g8, 2):
        assert sub not in seen
        seen.add(sub)
        deg = Counter(x for e in sub for x in e)
        assert all(deg[v] == 2 for v in range(8))


def test_kfactor_requires_regular_host():
    path = ugraph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(DegreeMismatch):
        list(enumerate_negative_subgraphs(path, 1))
    with pytest.raises(DegreeMismatch):
        list(enumerate_negative_subgraphs(complete_ugraph(4), 9))
    with pytest.raises(DegreeMismatch):
        list(enumerate_negative_subgraphs(complete_ugraph(4), -1))


def test_kfactor_parity_answers_without_dfs(monkeypatch):
    """n * k odd has no k-regular subgraph: an order-9 host at every odd k
    yields none without entering the DFS (graph 1 at k = 3 walked 88,426
    nodes for nothing), and an even k still searches."""
    entered = []

    def spy(nbr, k, *args, **kw):
        entered.append(k)
        return iter(())

    g = read_graph6_file(os.path.join(FIXTURES, "6reg_order9.g6"))[1]
    monkeypatch.setattr(srsg.search, "_search_raw", spy)
    for k in (1, 3, 5):
        assert list(enumerate_negative_subgraphs(g, k)) == [], k
    assert entered == []
    list(enumerate_negative_subgraphs(g, 2))
    assert entered == [2]


def brute_scan(g, rho):
    """Independent oracle: scan negative edge subsets of the feasible size.

    Parameters come from `conftest.brute_extract`, so the oracle shares no
    code with the search, its pruning or its leaf verification."""
    edges = g.edges()
    m = len(edges)
    r = g.degree(0)
    if (r - rho) % 2 or not 0 <= (r - rho) // 2 <= r:
        return []
    k = (r - rho) // 2
    size = k * g.n // 2
    if k * g.n % 2:
        return []
    hits = []
    for sub in combinations(range(m), size):
        deg = [0] * g.n
        ok = True
        for e in sub:
            u, v = edges[e]
            deg[u] += 1
            deg[v] += 1
            if deg[u] > k or deg[v] > k:
                ok = False
                break
        if not ok or any(d != k for d in deg):
            continue
        sg = sign_with(g, [edges[e] for e in sub])
        if brute_extract(sg) is not None:
            hits.append(sg)
    return hits


def test_search_g8_rho0_finds_both_signs():
    rep = search_srsg(build_underlying("G8"), SearchConfig(rho=0))
    assert rep.exhaustive
    assert len(rep.hits) == 2
    keys = {h.canonical for h in rep.hits}
    s48 = build("S4_8").graph
    assert keys == {canonical_form(s48), canonical_form(negation(s48))}
    assert {h.params.as_tuple() for h in rep.hits} == {
        (8, 6, 4, -4, -6), (8, 6, -4, 4, -6),
    }


def test_search_dedupe_modes():
    g8 = build_underlying("G8")
    none = search_srsg(g8, SearchConfig(rho=0, dedupe="none"))
    iso = search_srsg(g8, SearchConfig(rho=0, dedupe="iso"))
    isoneg = search_srsg(g8, SearchConfig(rho=0, dedupe="iso-neg"))
    assert len(none.hits) == none.stats.raw_hits >= len(iso.hits) == 2
    assert len(isoneg.hits) == 1
    with pytest.raises(ValueError):
        search_srsg(g8, SearchConfig(rho=0, dedupe="bogus"))


def test_dedupe_mode_validated_by_config():
    # a mistyped mode is refused when the config is built, so every entry
    # point refuses it, even over no hosts; search_catalog used to run any
    # mode other than "none" as "iso"
    g8 = build_underlying("G8")
    with pytest.raises(ValueError):
        search_srsg(g8, SearchConfig(rho=0, dedupe="iso_neg"))
    with pytest.raises(ValueError):
        search_catalog([("G8", g8)], SearchConfig(rho=0, dedupe="iso_neg"))
    with pytest.raises(ValueError):
        search_catalog([], SearchConfig(rho=0, dedupe="iso_neg"))
    cfg = SearchConfig(rho=0, dedupe="iso-neg")
    assert len(search_catalog([("G8", g8), ("G8 again", g8)], cfg).hits) == 1


def test_budget_and_jobs_validated_by_config():
    """A negative node_budget, which stopped the DFS at its first node, and a
    jobs below 1, which searched a catalog in process, are refused when the
    config is built, as the CLI refuses them; a budget of 0 is valid."""
    for kw in ({"node_budget": -1}, {"jobs": 0}, {"jobs": -3}):
        with pytest.raises(ValueError):
            SearchConfig(rho=2, **kw)
    g = read_graph6_file(os.path.join(FIXTURES, "6reg_order9.g6"))[0]
    rep = search_srsg(g, SearchConfig(rho=2, node_budget=0))
    assert not rep.exhaustive and rep.stats.nodes == 1


@pytest.mark.parametrize("mode", ["none", "iso", "iso-neg"])
def test_leaf_to_hit_call_counts(monkeypatch, mode):
    """Each verified leaf is canonicalised once and its parameters extracted
    once; iso decodes each host's class once; iso-neg adds no negation form
    at rho = 2, where no fold can happen (test_search_dedupe_modes folds at
    rho = 0); the catalog merge adds no call.  Counted at the module globals
    that search.py calls."""
    calls = Counter()
    host_classes = []

    def counted(name):
        real = getattr(srsg.search, name)

        def wrapper(*args):
            calls[name] += 1
            out = real(*args)
            if name == "search_srsg":
                host_classes.append(len(out.hits))
            return out

        monkeypatch.setattr(srsg.search, name, wrapper)

    for name in ("search_srsg", "canonical_form", "decode_canonical", "extract_params", "classify"):
        counted(name)
    graphs = [(f"o{n}[{i}]", g) for n in (9, 10) for i, g in enumerate(
        read_graph6_file(os.path.join(FIXTURES, f"6reg_order{n}.g6")))]
    rep = search_catalog(graphs, SearchConfig(rho=2, dedupe=mode))
    assert calls["search_srsg"] == len(graphs) == 25
    # every signing under "none"; the iso modes walk the twin-reduced tree
    assert rep.stats.leaves == rep.stats.raw_hits == (49 if mode == "none" else 14)
    assert calls["extract_params"] == rep.stats.leaves
    assert calls["classify"] == 0
    if mode == "none":
        assert len(rep.hits) == 49
        assert calls["canonical_form"] == rep.stats.raw_hits
        assert calls["decode_canonical"] == 0
    else:
        assert len(rep.hits) == sum(host_classes) == 3
        assert calls["canonical_form"] == rep.stats.raw_hits == 14
        assert calls["decode_canonical"] == sum(host_classes)


def test_search_k66_rho4(monkeypatch):
    k66 = build_underlying("K66")
    s1_12 = canonical_form(build("S1_12").graph)
    rep = search_srsg(k66, SearchConfig(rho=4, dedupe="none"))
    assert rep.stats.raw_hits == 720  # every matching signing works here
    assert {h.canonical for h in rep.hits} == {s1_12}
    # the twin cells leave one of the 720 matchings to canonicalise
    calls = Counter()
    real = srsg.search.canonical_form

    def counted(g):
        calls["canonical_form"] += 1
        return real(g)

    monkeypatch.setattr(srsg.search, "canonical_form", counted)
    rep = search_srsg(k66, SearchConfig(rho=4))
    assert len(rep.hits) == 1
    assert rep.hits[0].canonical == s1_12
    assert calls["canonical_form"] <= 2


def test_search_filter_restricts_hits():
    g8 = build_underlying("G8")
    rep = search_srsg(g8, SearchConfig(rho=2, param_filter=(SrsgParams(8, 6, 0, 0, -2),)))
    assert len(rep.hits) == 1
    assert rep.hits[0].params == SrsgParams(8, 6, 0, 0, -2)
    rep = search_srsg(g8, SearchConfig(rho=2, param_filter=(SrsgParams(9, 6, 0, 0, -2),)))
    assert not rep.hits and "filter" in rep.per_graph[0]["note"]


def test_search_vacuous_parity():
    rep = search_srsg(build_underlying("G8"), SearchConfig(rho=1))
    assert not rep.hits and rep.exhaustive and "vacuous" in rep.per_graph[0]["note"]


def test_search_k0_reports_homogeneous_hit():
    # rho = r means an empty negative subgraph: the all-positive signing of a
    # strongly regular host is a hit, reported under the homogeneous class
    gq = build_underlying("GQ22")
    rep = search_srsg(gq, SearchConfig(rho=6))
    assert rep.stats.raw_hits == 1
    assert len(rep.hits) == 1
    h = rep.hits[0]
    assert h.cls is SrsgClass.HOMOGENEOUS
    assert h.params == SrsgParams(15, 6, 1, None, 3)
    # a non-strongly-regular host has no hit at all
    g9 = build_underlying("G9")
    assert search_srsg(g9, SearchConfig(rho=6)).stats.raw_hits == 0


def test_search_trivial_hosts():
    # edgeless graphs are never SRSGs, and all-negative K2 is homogeneous complete
    assert search_srsg(ugraph_from_edges(1, []), SearchConfig(rho=0)).stats.raw_hits == 0
    assert search_srsg(ugraph_from_edges(2, [(0, 1)]), SearchConfig(rho=-1)).stats.raw_hits == 0


def test_search_errors():
    path = ugraph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(DegreeMismatch):
        search_srsg(path, SearchConfig(rho=0))
    two_k3 = ugraph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(DisconnectedInput):
        search_srsg(two_k3, SearchConfig(rho=0))


def test_budget_flags_non_exhaustive():
    rep = search_srsg(build_underlying("G8"), SearchConfig(rho=0, node_budget=10))
    assert not rep.exhaustive
    assert rep.stats.nodes >= 10


def _order10():
    return read_graph6_file(os.path.join(FIXTURES, "6reg_order10.g6"))


def _outcome(rep):
    """Everything a report says except its timings."""
    s = rep.stats
    counters = (s.nodes, s.leaves, s.raw_hits, s.pruned_degree, s.pruned_pair)
    return [(h.canonical, h.graph.neg) for h in rep.hits], rep.exhaustive, counters, rep.per_graph


# (nodes, leaves) of the trees search_srsg walks, pinned so that a change of
# search order or pruning that moves the budget edges below fails here
FULL_TREES = {
    (0, 0, "iso"): (100, 0),
    (0, 0, "none"): (220, 0),
    (5, 0, "iso"): (14, 0),
    (5, 0, "none"): (20, 0),
    (16, 2, "none"): (587, 12),
}
# the leaves host #16 (T(5)) finds at rho=2 under dedupe "none" by each cut
T5_LEAVES_BY_BUDGET = {300: 6, 400: 8, 586: 12}


@pytest.mark.parametrize(
    "host, rho, budget, dedupe",
    [
        # order-10 hosts #5 and #0 at rho=0: mid-tree, and the edges of both trees
        (5, 0, 7, "iso"),
        (5, 0, 13, "iso"),
        (5, 0, 14, "iso"),
        (5, 0, 19, "iso"),
        (5, 0, 19, "none"),
        (5, 0, 20, "none"),
        (5, 0, 25, "none"),
        (0, 0, 50, "iso"),
        (0, 0, 99, "iso"),
        (0, 0, 100, "iso"),
        (0, 0, 105, "iso"),
        (0, 0, 219, "none"),
        (0, 0, 220, "none"),
        (0, 0, 225, "none"),
        # host #16 is T(5): the cuts fall after 6 and 8 of its 12 leaves, and
        # one node short of its tree, after the last leaf
        (16, 2, 300, "none"),
        (16, 2, 400, "none"),
        (16, 2, 586, "none"),
        (16, 2, 587, "none"),
        # far above the trees (at the edges of the larger trees of earlier
        # search orders and prunes): exhaustive, as with no budget
        (5, 0, 90, "iso"),
        (5, 0, 129, "iso"),
        (5, 0, 130, "iso"),
        (5, 0, 135, "iso"),
        (5, 0, 219, "none"),
        (5, 0, 220, "none"),
        (5, 0, 225, "none"),
        (5, 0, 600, "iso"),
        (5, 0, 855, "iso"),
        (5, 0, 856, "iso"),
        (5, 0, 861, "iso"),
        (5, 0, 1475, "none"),
        (5, 0, 1476, "none"),
        (5, 0, 1481, "none"),
        (16, 2, 900, "none"),
        (5, 0, 5000, "iso"),
        (5, 0, 5665, "iso"),
        (5, 0, 5666, "iso"),
        (5, 0, 5671, "iso"),
        (5, 0, 10731, "none"),
        (5, 0, 10732, "none"),
        (16, 2, 3000, "none"),
    ],
)
def test_budget_report_independent_of_jobs(host, rho, budget, dedupe):
    """A budgeted report is the DFS cut at node budget + 1.  search_srsg does
    not read jobs (a single host is walked in the calling process, see
    test_single_host_starts_no_pool), so the cut is the same at any jobs."""
    g = _order10()[host]
    one = search_srsg(g, SearchConfig(rho=rho, node_budget=budget, dedupe=dedupe))
    full = search_srsg(g, SearchConfig(rho=rho, dedupe=dedupe)).stats
    assert (full.nodes, full.leaves) == FULL_TREES[host, rho, dedupe]
    assert one.exhaustive == (budget >= full.nodes)
    assert one.stats.nodes == min(budget + 1, full.nodes)
    if host == 16 and not one.exhaustive:
        assert one.stats.leaves == T5_LEAVES_BY_BUDGET[budget]


def test_budgeted_catalog_independent_of_jobs():
    """The catalog pool spreads hosts over the workers, each host's DFS cut
    at its own budget: the 25 order-10 and order-9 hosts at rho=2 report the
    same at jobs 1, 2 and 3, with budgets that cut some hosts and not others."""
    graphs = _catalog("6reg_order10.g6") + _catalog("6reg_order9.g6")
    assert len(graphs) == 25
    cfgs = [SearchConfig(rho=2, node_budget=b, dedupe=d) for d in ("iso", "none") for b in (130, 300, 900)]
    want = [_outcome(search_catalog(graphs, cfg)) for cfg in cfgs]
    assert {row["exhaustive"] for _, _, _, rows in want for row in rows} == {True, False}
    for jobs in (2, 3):
        got = [_outcome(search_catalog(graphs, replace(cfg, jobs=jobs))) for cfg in cfgs]
        assert got == want, jobs


def test_catalog_counters_independent_of_jobs_order10():
    """The 21 order-10 hosts at rho=0, with no budget, report the same hits,
    counters and per-host rows at jobs 1, 2 and 3."""
    graphs = _catalog("6reg_order10.g6")
    want = _outcome(search_catalog(graphs, SearchConfig(rho=0)))
    for jobs in (2, 3):
        assert _outcome(search_catalog(graphs, SearchConfig(rho=0, jobs=jobs))) == want, jobs


def test_catalog_wall_time_is_elapsed(monkeypatch):
    # time every per-host search through the module-global name that
    # search_catalog calls; the catalog's wall time covers all of them
    inner = []
    real = srsg.search.search_srsg

    def timed(g, cfg):
        t = time.perf_counter()
        try:
            return real(g, cfg)
        finally:
            inner.append(time.perf_counter() - t)

    monkeypatch.setattr(srsg.search, "search_srsg", timed)
    graphs = [(f"o9[{i}]", g) for i, g in enumerate(
        read_graph6_file(os.path.join(FIXTURES, "6reg_order9.g6")))]
    before = time.perf_counter()
    rep = search_catalog(graphs, SearchConfig(rho=2))
    elapsed = time.perf_counter() - before
    assert len(inner) == len(graphs) == 4
    assert sum(inner) <= rep.wall_time <= elapsed


def test_degree_only_leaves_match_pruned_search():
    """The degree-only DFS (no pair prune), each leaf checked by the
    brute-force parameter oracle, keeps exactly the pruned search's hits."""
    g8 = build_underlying("G8")
    for rho in (0, 2):
        fast = search_srsg(g8, SearchConfig(rho=rho, dedupe="none"))
        leaves = (sign_with(g8, sub) for sub in enumerate_negative_subgraphs(g8, (6 - rho) // 2))
        slow = [sg for sg in leaves if brute_extract(sg) is not None]
        assert sorted((h.graph.pos, h.graph.neg) for h in fast.hits) == sorted((sg.pos, sg.neg) for sg in slow)
        assert fast.stats.raw_hits == len(slow)


def test_search_matches_brute_scan_on_g8():
    g8 = build_underlying("G8")
    for rho in (0, 2, 4):
        rep = search_srsg(g8, SearchConfig(rho=rho, dedupe="none"))
        oracle = brute_scan(g8, rho)
        assert sorted((h.graph.pos, h.graph.neg) for h in rep.hits) == sorted(
            (g.pos, g.neg) for g in oracle
        )


def circulant(n, jumps):
    return ugraph_from_edges(n, [(i, (i + j) % n) for i in range(n) for j in jumps])


# hosts with at most 16 edges, so the subset scan stays cheap
SMALL_HOSTS = {
    "K4,4": kmm(4),
    "C8^2": circulant(8, (1, 2)),
    "octahedron": circulant(6, (1, 2)),
    "Q3": cube(3),
    "K6": complete_ugraph(6),
    "Petersen": petersen(),
    "K3,3": kmm(3),
}


@pytest.mark.parametrize("name", SMALL_HOSTS)
def test_search_matches_brute_scan_small_hosts(name):
    """Every admissible rho, without dedupe, with no parameter filter and
    with a parameter filter that admits one parameter set of the oracle's
    hits (or one no signing has, where the oracle finds none)."""
    g = SMALL_HOSTS[name]
    r = g.degree(0)
    for rho in range(-r, r + 1, 2):
        oracle = sorted(brute_scan(g, rho), key=lambda sg: (sg.pos, sg.neg))
        rows = lambda sgs: [(sg.pos, sg.neg) for sg in sgs]
        picked = brute_extract(oracle[0]) if oracle else (g.n, r, 0, 0, 0)
        filt = (SrsgParams(*picked),)
        filtered = [sg for sg in oracle if brute_extract(sg) == picked]
        plain = search_srsg(g, SearchConfig(rho=rho, dedupe="none"))
        assert plain.exhaustive
        assert sorted(rows(h.graph for h in plain.hits)) == rows(oracle), rho
        rep = search_srsg(g, SearchConfig(rho=rho, dedupe="none", param_filter=filt))
        assert sorted(rows(h.graph for h in rep.hits)) == rows(filtered), rho


def test_search_is_deterministic():
    g8 = build_underlying("G8")
    a = search_srsg(g8, SearchConfig(rho=2))
    b = search_srsg(g8, SearchConfig(rho=2))
    assert [h.canonical for h in a.hits] == [h.canonical for h in b.hits]
    assert a.stats.nodes == b.stats.nodes


def test_search_catalog_aggregates_and_jobs():
    graphs = [(f"o9[{i}]", g) for i, g in enumerate(
        read_graph6_file(os.path.join(FIXTURES, "6reg_order9.g6")))]
    rep1 = search_catalog(graphs, SearchConfig(rho=2))
    assert len(rep1.hits) == 2
    assert len(rep1.per_graph) == 4
    rep2 = search_catalog(graphs, SearchConfig(rho=2, jobs=2))
    assert [h.canonical for h in rep2.hits] == [h.canonical for h in rep1.hits]


def test_search_catalog_takes_a_generator():
    """The hosts are read once: a generator of the four order-9 hosts reports
    their two hits and four rows, as the list does, not an empty search."""
    graphs = _catalog("6reg_order9.g6")
    want = _outcome(search_catalog(graphs, SearchConfig(rho=2)))
    rep = search_catalog((entry for entry in graphs), SearchConfig(rho=2))
    assert (len(rep.hits), rep.stats.nodes, len(rep.per_graph)) == (2, 376, 4)
    assert _outcome(rep) == want


def test_search_of_a_list_rowed_host():
    """A host built from list rows is the tuple-built host, so it searches
    the same (the host's search order is cached by the graph's value)."""
    g = _order10()[5]
    listed = UGraph(g.n, list(g.nbr))
    assert _outcome(search_srsg(listed, SearchConfig(rho=0))) == _outcome(search_srsg(g, SearchConfig(rho=0)))


def test_dedupe_soundness_pairwise():
    from srsg.iso import are_isomorphic

    rep = search_srsg(build_underlying("G8"), SearchConfig(rho=2))
    keys = [h.canonical for h in rep.hits]
    assert len(set(keys)) == len(keys)
    for i in range(len(rep.hits)):
        for j in range(i + 1, len(rep.hits)):
            assert are_isomorphic(rep.hits[i].graph, rep.hits[j].graph) == (False, None)


def test_hits_satisfy_all_invariants():
    from srsg.regularity import classify, eq3_holds, neg_walk_parity_ok, verify_identity_eq2

    rep = search_srsg(build_underlying("G8"), SearchConfig(rho=2))
    for h in rep.hits:
        assert h.graph.net_degrees() == [2] * 8
        assert verify_identity_eq2(h.graph, h.params)
        assert eq3_holds(h.params, 2)
        if h.cls in (SrsgClass.C1, SrsgClass.C4, SrsgClass.C5) and not h.graph.is_complete():
            assert neg_walk_parity_ok(h.graph)[0]
    # iso-neg folds only classes the search found: negation flips the net
    # degree to -2, so at rho=2 nothing folds and the iso hits are shown
    iso = rep
    rep = search_srsg(build_underlying("G8"), SearchConfig(rho=2, dedupe="iso-neg"))
    assert rep.hits == iso.hits and len(rep.hits) == 2
    for h in rep.hits:
        assert h.graph.net_degrees() == [2] * 8
        assert classify(h.graph) == (h.cls, h.params)
        assert eq3_holds(h.params, 2)


def test_order10_c2_example_regression():
    """The order-10 sweep at net-degree 2 finds one verified class: a C2
    signing of the triangular graph T(5) (Petersen complement) with
    parameters (10,6,-1,1,0) whose squared sign matrix satisfies
    A^2 + A - 6I = 0 exactly.  The identity is checked with the
    brute-force A^2 oracle from conftest; kept as a regression pin."""
    graphs = read_graph6_file(os.path.join(FIXTURES, "6reg_order10.g6"))
    rep = search_catalog(
        [(f"o10[{i}]", g) for i, g in enumerate(graphs)], SearchConfig(rho=2)
    )
    assert len(rep.hits) == 1
    h = rep.hits[0]
    assert h.params == SrsgParams(10, 6, -1, 1, 0)
    assert h.cls is SrsgClass.C2
    sq = brute_square(h.graph)
    assert all(
        sq[i][j] + h.graph.sign(i, j) - (6 if i == j else 0) == 0
        for i in range(10)
        for j in range(10)
    )
    # underlying graph is T(5): complement is 3-regular with no triangles
    und = h.graph.underlying()
    comp_edges = [
        (u, v)
        for u in range(10)
        for v in range(u + 1, 10)
        if not und.adjacent(u, v)
    ]
    comp = ugraph_from_edges(10, comp_edges)
    assert comp.degrees() == [3] * 10
    assert all(
        not (comp.nbr[u] & comp.nbr[v]).bit_count() for u, v in comp.edges()
    )


def _fixture_and_target_hosts():
    """(label, host): every fixture and target host."""
    for fname in ("6reg_order8.g6", "6reg_order9.g6", "6reg_order10.g6"):
        for i, g in enumerate(read_graph6_file(os.path.join(FIXTURES, fname))):
            yield f"{fname}#{i}", g
    for fname in sorted(os.listdir(os.path.join(FIXTURES, "targets"))):
        (g,) = read_graph6_file(os.path.join(FIXTURES, "targets", fname))
        yield fname, g


HOSTS = dict(_fixture_and_target_hosts())
TWIN_TEST_HOSTS = {**HOSTS, **{f"K{m},{m}": kmm(m) for m in (3, 4, 5)}}


def _catalog(fname):
    return [(f"{fname}[{i}]", g) for i, g in enumerate(read_graph6_file(os.path.join(FIXTURES, fname)))]


def _classes_of_every_signing(g, rho):
    """{mode: {canonical form: (params, class)}} expected of the iso modes,
    from the hits of dedupe "none", which walks the full tree."""
    iso = {h.canonical: (h.params, h.cls) for h in search_srsg(g, SearchConfig(rho=rho, dedupe="none")).hits}
    negs = {key: canonical_form(negation(decode_canonical(key))) for key in iso}
    iso_neg = {key: v for key, v in iso.items() if not (negs[key] < key and negs[key] in iso)}
    return {"iso": iso, "iso-neg": iso_neg}


@pytest.mark.parametrize("label", TWIN_TEST_HOSTS)
def test_twin_reduced_search_finds_every_class(label):
    """At every net degree, the iso modes (which walk the twin-reduced tree)
    report exactly the classes of all the signings dedupe "none" finds, with
    their parameters."""
    g = TWIN_TEST_HOSTS[label]
    r = g.degree(0)
    for rho in range(-r, r + 1, 2):
        want = _classes_of_every_signing(g, rho)
        for mode in ("iso", "iso-neg"):
            rep = search_srsg(g, SearchConfig(rho=rho, dedupe=mode))
            assert rep.exhaustive
            assert {h.canonical: (h.params, h.cls) for h in rep.hits} == want[mode], (rho, mode)


SUBSEQUENCE_HOSTS = {
    **{label: g for label, g in TWIN_TEST_HOSTS.items() if g.n <= 12},
    "K6": complete_ugraph(6),
    "K7": complete_ugraph(7),
}


@pytest.mark.parametrize("label", SUBSEQUENCE_HOSTS)
def test_twin_reduced_leaves_are_a_subsequence(label):
    """The twin cells only remove children: the reduced tree's leaves are
    some of the full tree's, in the same order, under the class filter and
    with degree pruning only (allowed=None, as scripts/make_fixtures.py
    walks K_n).  The degree-only full trees of the fixture and target hosts
    on 10 or 12 vertices hold up to 1.8 million nodes, about 30 s in all, so
    those hosts run under the filter only; the complete and complete
    bipartite hosts (labels "K...") run both ways."""
    g = SUBSEQUENCE_HOSTS[label]
    r = g.degree(0)
    filters = (LEARN, None) if g.n <= 9 or label.startswith("K") else (LEARN,)
    for rho in range(-r, r + 1, 2):
        k = negative_degree(r, rho)
        for allowed in filters:
            full = iter(_search_raw(g.nbr, k, allowed))
            reduced = list(_search_raw(g.nbr, k, allowed, twins=True))
            assert all(leaf in full for leaf in reduced), (rho, allowed)


# (n, k): the number of k-regular graphs of order n up to isomorphism,
# connected or not: partitions of n into parts >= 3 for k = 2, OEIS A005638
# for k = 3, the published quartic counts for k = 4, one perfect matching
KN_FACTOR_CLASSES = {
    (6, 2): 2, (7, 2): 2, (8, 2): 3, (9, 2): 4, (8, 1): 1, (6, 3): 2,
    (8, 3): 6, (10, 3): 21, (7, 4): 2, (8, 4): 6, (9, 4): 16,
}


def _kn_factor_classes(n, k):
    """{canonical form: negative subgraph} over the leaves of the
    twin-reduced, degree-only DFS on K_n at negative degree k; every leaf's
    negative rows are checked to be k-regular."""
    classes = {}
    for _, neg in _search_raw(complete_ugraph(n).nbr, k, twins=True):
        g = UGraph(n, neg)
        assert g.is_regular() and g.degree(0) == k
        classes.setdefault(canonical_form(all_positive(g)), g)
    return classes


@pytest.mark.parametrize(("n", "k"), KN_FACTOR_CLASSES)
def test_twin_reduced_dfs_on_complete_hosts_reaches_every_regular_class(n, k):
    """On K_n every two vertices are twins, so the degree-only DFS walks
    one block choice per cell prefix; its leaves still hold a k-factor of
    every isomorphism class (the search module's docstring), as the
    published counts say."""
    assert len(_kn_factor_classes(n, k)) == KN_FACTOR_CLASSES[(n, k)]


def test_cubic_classes_of_order_10_are_pairwise_non_isomorphic():
    """networkx VF2, which shares no code with canonical_form, finds no two
    of the 21 order-10 cubic representatives isomorphic."""
    nx = pytest.importorskip("networkx")
    reps = [nx.Graph(g.edges()) for g in _kn_factor_classes(10, 3).values()]
    assert len(reps) == 21
    assert not any(nx.is_isomorphic(a, b) for a, b in combinations(reps, 2))


def test_dfs_adds_to_the_record_it_is_given():
    """_search_raw adds its counters to the SearchStats it is passed and
    resets none: two runs into one record count twice what one run counts.
    With no record passed it runs into one of its own."""
    g = build_underlying("G8")
    k = negative_degree(g.degree(0), 0)
    once, twice = SearchStats(), SearchStats()
    leaves = list(_search_raw(g.nbr, k, LEARN, None, once))
    for _ in range(2):
        assert list(_search_raw(g.nbr, k, LEARN, None, twice)) == leaves
    assert once.nodes and once.leaves and once.pruned_degree and once.pruned_pair
    assert twice == SearchStats(2 * once.nodes, 2 * once.leaves, 0, 2 * once.pruned_degree, 2 * once.pruned_pair)
    assert list(_search_raw(g.nbr, k, LEARN)) == leaves


def test_stats_add_sums_every_counter():
    """SearchStats holds the five counters only, and add sums each of them,
    each given a distinct value here, into its own field."""
    names = [f.name for f in fields(SearchStats)]
    assert names == ["nodes", "leaves", "raw_hits", "pruned_degree", "pruned_pair"]
    total = SearchStats(*(i + 1 for i in range(5)))
    other = SearchStats(*(100 * (i + 1) for i in range(5)))
    total.add(other)
    assert total == SearchStats(*(101 * (i + 1) for i in range(5)))
    assert other == SearchStats(*(100 * (i + 1) for i in range(5)))


def test_search_reports_the_record_its_dfs_wrote(monkeypatch):
    """search_srsg passes its report's SearchStats to the DFS and copies no
    counter: the record the DFS wrote, captured through the module's
    _search_raw, is the report's, with the counters of a fresh run of the
    DFS on the same arguments, and leaf verification adds raw_hits."""
    dfs = srsg.search._search_raw
    calls = []

    def spy(nbr, k, allowed, budget, stats, **kw):
        calls.append(((nbr, k, allowed, budget), stats, kw))
        return dfs(nbr, k, allowed, budget, stats, **kw)

    monkeypatch.setattr(srsg.search, "_search_raw", spy)
    g = _order10()[16]
    for cfg in (SearchConfig(rho=2), SearchConfig(rho=2, dedupe="none"),
                SearchConfig(rho=2, dedupe="none", node_budget=400)):
        rep = search_srsg(g, cfg)
        ((args, stats, kw),) = calls
        calls.clear()
        assert rep.stats is stats
        fresh = SearchStats()
        list(dfs(*args, fresh, **kw))
        assert stats == replace(fresh, raw_hits=stats.raw_hits), cfg
        assert stats.raw_hits > 0, cfg
        if cfg.dedupe == "none":
            assert stats.raw_hits == len(rep.hits), cfg


def _leaves_and_nodes(g, k, twins, lookahead, allowed=LEARN):
    stats = SearchStats()
    leaves = list(_search_raw(g.nbr, k, allowed, None, stats, twins=twins, lookahead=lookahead))
    return leaves, stats.nodes


def _assert_lookahead_keeps_leaves(g, rhos, label, allowed=LEARN):
    """Check the look-ahead leaves and nodes against the DFS without it, at
    each rho with twin cells on and off; return the look-ahead nodes, keyed
    by (rho, twins) in that order."""
    nodes = {}
    for rho in rhos:
        k = negative_degree(g.degree(0), rho)
        for twins in (True, False):
            # the full learning trees of the larger hosts near rho = 0 take too long
            if allowed is LEARN and not twins and g.n > 12 and abs(rho) <= 2:
                continue
            plain, plain_nodes = _leaves_and_nodes(g, k, twins, False, allowed)
            ahead, ahead_nodes = _leaves_and_nodes(g, k, twins, True, allowed)
            assert ahead == plain, (label, rho, twins)
            assert ahead_nodes <= plain_nodes, (label, rho, twins)
            nodes[rho, twins] = ahead_nodes
    return nodes


@pytest.mark.parametrize("label", HOSTS)
def test_lookahead_keeps_the_leaf_sequence(label):
    """The forward check, with its spans learned and derived, cuts only
    subtrees that hold no leaf: with twin cells on and off, the look-ahead
    DFS yields the leaves of the DFS without it, in the same order, and
    walks none of its own."""
    _assert_lookahead_keeps_leaves(HOSTS[label], (0, 2, 4), label)


@pytest.mark.parametrize("label", HOSTS)
def test_lookahead_keeps_the_leaf_sequence_under_a_filter(label):
    """The same under the per-class sets of the DFS pins' filter, which
    narrow what a class may learn, on every host with twin cells on and off."""
    _assert_lookahead_keeps_leaves(HOSTS[label], (0, 2, 4), label, FILTER)


def test_lookahead_keeps_the_leaf_sequence_on_small_hosts():
    """The same at every net degree of the brute-scan hosts, where K6 at
    rho = +-5 has a single entry class."""
    for name, g in SMALL_HOSTS.items():
        r = g.degree(0)
        _assert_lookahead_keeps_leaves(g, range(-r, r + 1, 2), name)


def test_block_entry_needs_stay_in_range(monkeypatch):
    """_search_raw has no degree guard at block entry: on an r-regular host
    at 0 <= k <= r, the degree check of u's last earlier neighbour keeps the
    negative edges block u needs in 0..len(avail[u]) (its docstring).  Every
    block entry asks for that, in the fixture and target searches at every
    rho, with and without twin cells (under a node budget), and in the K_n
    walks that make the fixture hosts."""
    needs = []

    def spy(avail, need):
        assert 0 <= need <= len(avail), (avail, need)
        needs.append(need)
        return combinations(avail, need)

    monkeypatch.setattr(srsg.search, "combinations", spy)
    for g in HOSTS.values():
        for rho in range(-6, 7, 2):
            for dedupe in ("iso", "none"):
                search_srsg(g, SearchConfig(rho=rho, dedupe=dedupe, node_budget=20000))
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "make_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    for n in (8, 9, 10):
        make_fixtures.six_regular(n)
    assert needs


@pytest.mark.parametrize("label", HOSTS)
def test_hit_count_is_the_orbit_sum_over_the_classes(label):
    """Double counting (orbit-stabiliser): two signings of a host H that are
    isomorphic differ by an automorphism of H, so the signings of H in a
    class X form one orbit of Aut(H), of |Aut(H)| / |Aut(X)| signings.  So
    the hits of dedupe "none", which walks the full tree, number the sum of
    that over the classes dedupe "iso" finds, each an exact division."""
    g = HOSTS[label]
    aut_h = automorphism_count(g)
    for rho in (0, 2, 4):
        raw_hits = search_srsg(g, SearchConfig(rho=rho, dedupe="none")).stats.raw_hits
        total = 0
        for hit in search_srsg(g, SearchConfig(rho=rho)).hits:
            orbit, rest = divmod(aut_h, automorphism_count(hit.graph))
            assert rest == 0, (rho, hit.params)
            total += orbit
        assert raw_hits == total, rho


def test_dfs_tables_are_built_whole_and_never_change():
    """_dfs_tables caches tables that no search can change: every table is
    a tuple, so the result hashes; it equals a fresh build; and a second call
    returns the same object."""
    rows = build_underlying("G8").nbr
    tables = _dfs_tables(rows)
    hash(tables)
    assert tables == _dfs_tables.__wrapped__(rows)
    assert _dfs_tables(rows) is tables


def _two_fixed_sets():
    """(free, a, b, sets): per-class sets that fix two classes at a and b
    before the first block and leave the free one open."""
    for free in range(3):
        for a in (-2, 0, 2):
            for b in (-2, 0, 2):
                sets = [frozenset({a}), frozenset({b})]
                sets.insert(free, None)
                yield free, a, b, tuple(sets)


# Sets that fix two classes before the first block are the one case where
# the look-ahead's tree changed when its identity tie became a derived
# span.  The tie ran only at a block that learned a value, so here it first
# checked the identity once a completed pair learned the free class; the
# span derives that class at block 0.  TIE_TREE_DIGESTS holds, per host,
# the sha256 of the repr of the tie's look-ahead node counts in the order
# the test walks them; TIE_CUTS holds the tie's count for each
# (free, a, b, rho, twins) where the span walks fewer nodes.
TIE_TREE_DIGESTS = {
    "6reg_order8.g6#0": "2791fe6205a2e7aed34defd3e51cfaf07796a4bb6cf40944f8d70f0ca874008b",
    "6reg_order9.g6#0": "ffda0785ccb9a842e8f24a56f63b11ae060ef827623d05cec11905b0800c9ac9",
    "6reg_order9.g6#1": "f51c244050ccfa4ac380ffa5f7b0b7a7989ba2781d1ccdb226fc5b7cba85766b",
    "6reg_order9.g6#2": "f51c244050ccfa4ac380ffa5f7b0b7a7989ba2781d1ccdb226fc5b7cba85766b",
    "6reg_order9.g6#3": "f51c244050ccfa4ac380ffa5f7b0b7a7989ba2781d1ccdb226fc5b7cba85766b",
    "g8.g6": "96ca2496050c0f6e68d135da04ea44030775e051e8654bfc0abee7aa34543e50",
    "g9.g6": "f51c244050ccfa4ac380ffa5f7b0b7a7989ba2781d1ccdb226fc5b7cba85766b",
    "k333.g6": "ffda0785ccb9a842e8f24a56f63b11ae060ef827623d05cec11905b0800c9ac9",
}
TIE_CUTS = {
    "6reg_order8.g6#0": {
        (0, -2, -2, 0, True): 123, (0, -2, -2, 0, False): 612, (0, -2, 0, -2, True): 57,
        (0, -2, 0, -2, False): 240, (0, -2, 2, 0, True): 101, (0, -2, 2, 0, False): 532,
        (0, 0, -2, 0, True): 123, (0, 0, -2, 0, False): 612, (0, 0, 0, 2, True): 39,
        (0, 0, 0, 2, False): 195, (0, 0, 2, 0, True): 27, (0, 0, 2, 0, False): 180,
        (0, 0, 2, 2, True): 39, (0, 0, 2, 2, False): 195, (0, 2, -2, 0, True): 27,
        (0, 2, -2, 0, False): 180, (0, 2, -2, 2, True): 91, (0, 2, -2, 2, False): 380,
        (0, 2, 0, 2, True): 57, (0, 2, 0, 2, False): 240, (1, -2, -2, 0, True): 123,
        (1, -2, -2, 0, False): 612, (1, -2, 0, 2, True): 57, (1, -2, 0, 2, False): 240,
        (1, -2, 2, 0, True): 101, (1, -2, 2, 0, False): 532, (1, 0, -2, 0, True): 123,
        (1, 0, -2, 0, False): 612, (1, 0, 0, -2, True): 39, (1, 0, 0, -2, False): 195,
        (1, 0, 2, -2, True): 39, (1, 0, 2, -2, False): 195, (1, 0, 2, 0, True): 27,
        (1, 0, 2, 0, False): 180, (1, 2, -2, -2, True): 95, (1, 2, -2, -2, False): 380,
        (1, 2, -2, 0, True): 27, (1, 2, -2, 0, False): 180, (1, 2, 0, -2, True): 57,
        (1, 2, 0, -2, False): 240,
    },
    "g8.g6": {
        (0, -2, -2, 0, True): 55, (0, -2, -2, 0, False): 220, (0, -2, 0, -2, True): 79,
        (0, -2, 0, -2, False): 248, (0, -2, 2, 0, True): 99, (0, -2, 2, 0, False): 352,
        (0, 0, -2, 0, True): 85, (0, 0, -2, 0, False): 320, (0, 0, 0, 2, True): 24,
        (0, 0, 0, 2, False): 115, (0, 0, 2, 0, True): 17, (0, 0, 2, 0, False): 100,
        (0, 0, 2, 2, True): 24, (0, 0, 2, 2, False): 115, (0, 2, -2, 0, True): 17,
        (0, 2, -2, 0, False): 100, (0, 2, -2, 2, True): 37, (0, 2, -2, 2, False): 140,
        (0, 2, 0, 2, True): 37, (0, 2, 0, 2, False): 140, (1, -2, -2, 0, True): 55,
        (1, -2, -2, 0, False): 220, (1, -2, 0, 2, True): 52, (1, -2, 0, 2, False): 248,
        (1, -2, 2, 0, True): 74, (1, -2, 2, 0, False): 352, (1, 0, -2, 0, True): 71,
        (1, 0, -2, 0, False): 320, (1, 0, 0, -2, True): 30, (1, 0, 0, -2, False): 115,
        (1, 0, 2, -2, True): 30, (1, 0, 2, -2, False): 115, (1, 0, 2, 0, True): 17,
        (1, 0, 2, 0, False): 100, (1, 2, -2, -2, True): 43, (1, 2, -2, -2, False): 140,
        (1, 2, -2, 0, True): 17, (1, 2, -2, 0, False): 100, (1, 2, 0, -2, True): 43,
        (1, 2, 0, -2, False): 140,
    },
}


@pytest.mark.parametrize("label", [label for label, g in HOSTS.items() if g.n <= 9])
def test_lookahead_keeps_the_leaf_sequence_with_two_classes_fixed(label):
    """The same under sets that fix two classes at a, b in {-2, 0, 2} and
    leave the third open, at every net degree, where the identity derives
    the third class before the first block: the leaves are unchanged, and
    the look-ahead walks the tie's tree, or fewer nodes where TIE_CUTS says
    so, never more."""
    g = HOSTS[label]
    r = g.degree(0)
    cuts = TIE_CUTS.get(label, {})
    was = []
    for free, a, b, sets in _two_fixed_sets():
        for (rho, twins), nodes in _assert_lookahead_keeps_leaves(g, range(-r, r + 1, 2), label, sets).items():
            case = (free, a, b, rho, twins)
            if case in cuts:
                assert nodes < cuts[case], case
                nodes = cuts[case]
            was.append(nodes)
    assert hashlib.sha256(repr(was).encode()).hexdigest() == TIE_TREE_DIGESTS[label]


def test_lookahead_walks_a_small_kmm_tree_without_dedupe():
    """Under dedupe "none" K8,8 at rho=4 took 1,704,226 nodes before the
    look-ahead; now its whole tree fits a budget of 50,000."""
    rep = search_srsg(kmm(8), SearchConfig(rho=4, dedupe="none", node_budget=50_000))
    assert rep.exhaustive and not rep.hits


def _verified_leaves(g, rho):
    """The signings of g as given whose parameters extract, from the DFS on
    g's own labelling with no twin cells: none of the search order's or the
    twin cells' code."""
    k = negative_degree(g.degree(0), rho)
    leaves = (SignedGraph(g.n, pm, nm) for pm, nm in _search_raw(g.nbr, k, LEARN))
    return [sg for sg in leaves if extract_params(sg) is not None]


@pytest.mark.parametrize("label", [label for label, g in HOSTS.items() if g.n <= 12])
def test_search_order_keeps_every_hit(label):
    """search_srsg searches a relabelled host; in every dedupe mode its hits
    are those of the DFS on the host as given: the same signings, in the
    input labels, under "none", and the same classes under the iso modes
    (folded by negation for iso-neg)."""
    g = HOSTS[label]
    for rho in (0, 2, 4):
        oracle = _verified_leaves(g, rho)
        forms = {canonical_form(sg) for sg in oracle}
        negs = {key: canonical_form(negation(decode_canonical(key))) for key in forms}
        want = {
            "none": forms,
            "iso": forms,
            "iso-neg": {key for key in forms if not (negs[key] < key and negs[key] in forms)},
        }
        for mode in DEDUPE_MODES:
            rep = search_srsg(g, SearchConfig(rho=rho, dedupe=mode))
            assert {h.canonical for h in rep.hits} == want[mode], (rho, mode)
            if mode == "none":
                assert sorted((h.graph.pos, h.graph.neg) for h in rep.hits) == sorted(
                    (sg.pos, sg.neg) for sg in oracle
                ), rho


ORDER_INVARIANCE_CASES = [(f"6reg_order10.g6#{i}", 0) for i in range(21)] + [
    ("s16u.g6", 0), ("s3_12u.g6", 0), ("gq22.g6", 2),
]


@pytest.mark.parametrize("label, rho", ORDER_INVARIANCE_CASES)
def test_search_independent_of_input_labelling(label, rho):
    """The host is searched in an order computed from its canonical form, so
    under five relabellings the relabelled rows, the counters and the iso
    hits are identical, and "none" finds the same classes."""
    g = HOSTS[label]
    rows = _search_order(g)[1]
    iso = _outcome(search_srsg(g, SearchConfig(rho=rho)))
    none = search_srsg(g, SearchConfig(rho=rho, dedupe="none"))
    for seed in range(1, 6):
        h = relabel(g, seed)
        assert _search_order(h)[1] == rows, seed
        assert _outcome(search_srsg(h, SearchConfig(rho=rho))) == iso, seed
        other = search_srsg(h, SearchConfig(rho=rho, dedupe="none"))
        assert _outcome(other)[2] == _outcome(none)[2], seed
        assert sorted(x.canonical for x in other.hits) == sorted(x.canonical for x in none.hits), seed


def test_search_order_once_per_host(monkeypatch, fixtures_dir):
    """Each host's search order is computed once per process: the 21
    order-10 hosts searched at three net degrees take 21 labellings, and
    verify's searches of 34 distinct hosts take 34 (77 when every search
    computed its own).  Counted at jobs=1, at the name search.py calls."""
    calls = []
    inner = srsg.search.canonical_labeling

    def counted(g):
        calls.append(g)
        return inner(g)
    monkeypatch.setattr(srsg.search, "canonical_labeling", counted)
    graphs = _catalog("6reg_order10.g6")
    assert len(graphs) == 21
    _search_order.cache_clear()
    for rho in (0, 2, 4):
        search_catalog(graphs, SearchConfig(rho=rho))
    assert len(calls) == 21
    _search_order.cache_clear()
    calls.clear()
    run_verification(fixtures_dir, 1)
    assert len(calls) == 34


@pytest.mark.parametrize("label", sorted({label for label, _ in ORDER_INVARIANCE_CASES}))
def test_cached_search_order_is_computed_order(label):
    """The cached order of a host and of five relabellings equals the one
    computed afresh, and the cached answer is immutable."""
    g = HOSTS[label]
    for h in [g] + [relabel(g, seed) for seed in range(1, 6)]:
        order, rows = _search_order(h)
        assert (order, rows) == _search_order.__wrapped__(h), label
        assert isinstance(order, tuple) and isinstance(rows, tuple)


def test_equal_hosts_share_a_cached_order():
    g = HOSTS["s16u.g6"]
    twin = UGraph(g.n, tuple(list(g.nbr)))
    _search_order.cache_clear()
    first = _search_order(g)
    assert _search_order(twin) is first
    info = _search_order.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert _search_order(relabel(g, 1)) is not first
    assert _search_order.cache_info().currsize == 2


S16_ROW = (SrsgParams(16, 6, 2, 2, -2),)


def test_shrikhande_host_has_no_signing():
    """The Shrikhande graph is srg(16,6,2,2), like the 4 x 4 rook graph under
    S_16 but not isomorphic to it; at net degrees 0, 2 and 4 it has no
    strongly regular signing, and S_16's row keeps S_16 on the rook graph
    and finds nothing on the Shrikhande graph."""
    shr, rook = shrikhande(), HOSTS["s16u.g6"]
    assert shr.degrees() == [6] * 16
    for u in range(16):
        for v in range(u + 1, 16):
            common = (shr.nbr[u] & shr.nbr[v]).bit_count()
            assert common == 2, (u, v)
    assert canonical_form(all_positive(shr)) != canonical_form(all_positive(rook))
    for rho in (0, 2, 4):
        rep = search_srsg(shr, SearchConfig(rho=rho))
        assert rep.exhaustive and not rep.hits and rep.stats.nodes > 0, rho
    s_16 = canonical_form(build("S_16").graph)
    assert [h.canonical for h in search_srsg(rook, SearchConfig(rho=0, param_filter=S16_ROW)).hits] == [s_16]
    rep = search_srsg(shr, SearchConfig(rho=0, param_filter=S16_ROW))
    assert rep.exhaustive and not rep.hits


def test_filter_drops_rows_that_break_the_identity():
    """A row that breaks the net-regular identity at the search's net degree
    matches no leaf, so it is dropped before the DFS: S_16's row at rho=2
    walks no node (at rho=0 it finds S_16; see the Shrikhande test)."""
    rep = search_srsg(HOSTS["s16u.g6"], SearchConfig(rho=2, param_filter=S16_ROW))
    assert rep.exhaustive and not rep.hits and rep.stats.nodes == 0
    assert rep.per_graph[0]["note"] == "filter excludes this order, degree or net degree"


def test_filtered_search_looks_ahead():
    """verify's Paley-13 check: the row 13,6,2,-2,-1 at rho=2 narrows what
    the look-ahead DFS learns, so it walks fewer nodes than learning alone
    and than the 381 of the per-class filter without the look-ahead."""
    paley = HOSTS["paley13.g6"]
    rep = search_srsg(paley, SearchConfig(rho=2, param_filter=(SrsgParams(13, 6, 2, -2, -1),)))
    learning = search_srsg(paley, SearchConfig(rho=2))
    assert rep.exhaustive and not rep.hits
    assert rep.stats.nodes < min(381, learning.stats.nodes)


@pytest.mark.parametrize("label", [label for label, g in HOSTS.items() if g.n % 2])
def test_parity_answers_without_dfs(label):
    """n * k odd: search_srsg reports no hit, exhaustively, without a node,
    and the DFS it skips, on the host as given, finds no leaf."""
    g = HOSTS[label]
    r = g.degree(0)
    for rho in range(-r, r + 1, 2):
        k = negative_degree(r, rho)
        if k % 2 == 0:
            continue
        rep = search_srsg(g, SearchConfig(rho=rho))
        assert rep.exhaustive and not rep.hits and rep.stats.nodes == 0
        assert rep.per_graph[0]["note"].startswith("parity"), rho
        assert not any(True for _ in _search_raw(g.nbr, k, LEARN)), rho


# -- the worker pool ----------------------------------------------------------

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")


def _worker_pid(delay):
    """A pool task that takes delay seconds and says which worker ran it."""
    time.sleep(delay)
    return os.getpid()


def _pool_pids(jobs):
    """The pids of the workers _pool_map runs jobs-wide tasks on, once each
    has run a task (a worker that starts late may miss one round)."""
    pids = set()
    for _ in range(20):
        pids |= set(_pool_map(_worker_pid, [0.05] * (2 * jobs), jobs))
        if len(pids) >= jobs:
            break
    return pids


def _alive(pid):
    """Whether pid is a live process; an exited one awaiting its reaper is not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        # the read fails with ESRCH when the process is reaped after the open
        return False


def test_single_host_starts_no_pool(monkeypatch):
    """A host's tree is walked in the calling process: neither search_srsg
    nor a one-host catalog at jobs=2 starts a pool, and both report as at
    jobs=1, here with a budget that cuts the tree (of 14 nodes)."""
    monkeypatch.setattr(srsg.search, "_pool", None)
    g = _order10()[5]
    cfg = SearchConfig(rho=0, node_budget=7)
    try:
        want = _outcome(search_srsg(g, cfg))
        assert _outcome(search_srsg(g, replace(cfg, jobs=2))) == want
        assert _outcome(search_catalog([("o10[5]", g)], replace(cfg, jobs=2)))[:3] == want[:3]
        assert not want[1]
        assert srsg.search._pool is None
    finally:
        if srsg.search._pool is not None:
            srsg.search._pool[1].shutdown()


def test_pool_map_runs_one_item_in_process():
    assert _pool_map(_worker_pid, [0], 2) == [os.getpid()]


def test_pool_serves_every_call():
    first = _pool_pids(2)
    assert len(first) == 2 and os.getpid() not in first
    assert set(_pool_map(_worker_pid, [0.05] * 4, 2)) <= first
    graphs = _catalog("6reg_order9.g6")
    rep = search_catalog(graphs, SearchConfig(rho=2, jobs=2))
    assert _outcome(rep) == _outcome(search_catalog(graphs, SearchConfig(rho=2)))
    assert _pool_pids(2) == first


@needs_proc
def test_pool_replaced_when_jobs_change():
    two = _pool_pids(2)
    three = _pool_pids(3)
    assert len(three) == 3 and not two & three
    assert not any(_alive(pid) for pid in two)
    assert not _pool_pids(2) & three


def test_pool_with_a_killed_worker_fails_one_call():
    graphs = _catalog("6reg_order9.g6")
    want = _outcome(search_catalog(graphs, SearchConfig(rho=2)))
    victim = min(_pool_pids(2))
    os.kill(victim, signal.SIGKILL)
    # wait until the pool has seen the death and reaped the worker
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.kill(victim, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    with pytest.raises(BrokenProcessPool):
        search_catalog(graphs, SearchConfig(rho=2, jobs=2))
    assert _outcome(search_catalog(graphs, SearchConfig(rho=2, jobs=2))) == want


@pytest.mark.parametrize("jobs", [2, 3])
def test_pool_map_keeps_order_in_chunks(jobs):
    """Items go out in chunks of ceil(len / (2 * jobs)); every length,
    with a ragged last chunk or none at all, comes back in order, also with
    a trailing iterable mapped alongside the items."""
    for size in range(14):
        items = [-x for x in range(size)]
        assert _pool_map(abs, items, jobs) == [abs(x) for x in items], size
        assert _pool_map(pow, items, jobs, repeat(2)) == [x * x for x in items], size


def test_pool_survives_an_error_in_a_task():
    """The irregular host shares its chunk (6 of the 21 hosts at jobs=2)
    with good ones; its error reaches the caller, and the same workers
    serve the next call."""
    graphs = _catalog("6reg_order10.g6")
    bad = graphs[:2] + [("path", ugraph_from_edges(3, [(0, 1), (1, 2)]))] + graphs[3:]
    assert len(bad) == 21
    with pytest.raises(DegreeMismatch):
        search_catalog(bad, SearchConfig(rho=2))
    before = _pool_pids(2)
    with pytest.raises(DegreeMismatch):
        search_catalog(bad, SearchConfig(rho=2, jobs=2))
    rep = search_catalog(graphs, SearchConfig(rho=2, jobs=2))
    assert _outcome(rep) == _outcome(search_catalog(graphs, SearchConfig(rho=2)))
    assert set(_pool_map(_worker_pid, [0.05] * 4, 2)) <= before


def _python(code, *args):
    """A Python subprocess running code with srsg importable."""
    path = os.pathsep.join(p for p in (os.path.abspath(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


VERIFY_THEN_WORKERS = """
import multiprocessing, sys
from srsg.cli import main
rc = main(["verify-classification", "--degree", "6", "--fixtures", sys.argv[1], "--jobs", "2"])
print(*[p.pid for p in multiprocessing.active_children()], file=sys.stderr)
sys.exit(rc)
"""


@needs_proc
def test_cli_exit_leaves_no_worker():
    proc = _python(VERIFY_THEN_WORKERS, FIXTURES)
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait(timeout=10)
    assert proc.returncode == 0, err
    pids = [int(pid) for pid in err.splitlines()[-1].split()]
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


WARM_POOL_THEN_WAIT = """
import multiprocessing, sys, time
from srsg.search import _pool_map
multiprocessing.set_start_method(sys.argv[1])
assert _pool_map(abs, [1, -2], 2) == [1, 2]
print(*[p.pid for p in multiprocessing.active_children()], file=sys.stderr, flush=True)
time.sleep(60)
"""


@needs_proc
@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_workers_exit_after_parent_is_killed(method):
    """Under each start method the pool serves a call, and its idle workers
    are gone within 3 s of a SIGKILL of the process that holds it."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    proc = _python(WARM_POOL_THEN_WAIT, method)
    pids = []
    try:
        line = proc.stderr.readline()
        pids = [int(pid) for pid in line.split() if pid.isdigit()]
        assert len(pids) == 2, line
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 3
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in pids)
    finally:
        proc.kill()
        for pid in pids:  # leave no worker behind when the test fails
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.communicate(timeout=10)
