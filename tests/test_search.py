import os
import time
from collections import Counter
from itertools import combinations

import pytest

from conftest import FIXTURES, brute_extract, brute_square, cube, kmm, petersen
from srsg.catalog import build, build_underlying
from srsg.core import negation, sign_with, ugraph_from_edges
from srsg.errors import DegreeMismatch, DisconnectedInput
from srsg.iso import canonical_form
from srsg.regularity import SrsgClass, SrsgParams
import srsg.search
from srsg.search import (
    SearchConfig,
    enumerate_negative_subgraphs,
    search_catalog,
    search_srsg,
)
from srsg.sgio import read_graph6_file


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


@pytest.mark.parametrize("mode", ["none", "iso", "iso-neg"])
def test_leaf_to_hit_call_counts(monkeypatch, mode):
    """Each verified leaf is canonicalised once and its parameters extracted
    once; iso decodes each host's class once and iso-neg adds one negation
    form per host class; the catalog merge adds no call.  Counted at the
    module globals that search.py calls."""
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
    assert rep.stats.leaves == rep.stats.raw_hits == 49
    assert calls["extract_params"] == rep.stats.leaves
    assert calls["classify"] == 0
    if mode == "none":
        assert len(rep.hits) == 49
        assert calls["canonical_form"] == rep.stats.raw_hits
        assert calls["decode_canonical"] == 0
    else:
        assert len(rep.hits) == sum(host_classes) == 3
        negation_forms = sum(host_classes) if mode == "iso-neg" else 0
        assert calls["canonical_form"] == rep.stats.raw_hits + negation_forms
        assert calls["decode_canonical"] == sum(host_classes)


def test_search_k66_rho4():
    rep = search_srsg(build_underlying("K66"), SearchConfig(rho=4))
    assert rep.stats.raw_hits == 720  # every matching signing works here
    assert len(rep.hits) == 1
    assert rep.hits[0].canonical == canonical_form(build("S1_12").graph)


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


def test_search_trivial_hosts_with_jobs():
    # single-vertex and tiny hosts behave identically for any worker count
    one = ugraph_from_edges(1, [])
    a = search_srsg(one, SearchConfig(rho=0))
    b = search_srsg(one, SearchConfig(rho=0, jobs=2))
    assert a.stats.raw_hits == b.stats.raw_hits == 0  # edgeless graphs are never SRSGs
    k2 = ugraph_from_edges(2, [(0, 1)])
    a = search_srsg(k2, SearchConfig(rho=-1))
    b = search_srsg(k2, SearchConfig(rho=-1, jobs=2))
    assert a.stats.raw_hits == b.stats.raw_hits  # all-negative K2 is homogeneous complete
    assert a.stats.raw_hits == 0


def test_search_errors():
    path = ugraph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(DegreeMismatch):
        search_srsg(path, SearchConfig(rho=0))
    two_k3 = ugraph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(DisconnectedInput):
        search_srsg(two_k3, SearchConfig(rho=0))
    rep = search_srsg(two_k3, SearchConfig(rho=0, require_connected=False))
    assert rep.exhaustive


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


@pytest.mark.parametrize(
    "host, rho, budget, dedupe",
    [
        # order-10 host #5 has a 10,732-node tree at rho=0
        (5, 0, 5000, "iso"),
        (5, 0, 10731, "iso"),
        (5, 0, 10732, "iso"),
        (5, 0, 10737, "iso"),
        # host #16 is T(5): the cut falls after 6 of its 12 leaves
        (16, 2, 3000, "none"),
    ],
)
def test_budget_report_independent_of_jobs(host, rho, budget, dedupe):
    g = _order10()[host]
    one = search_srsg(g, SearchConfig(rho=rho, node_budget=budget, dedupe=dedupe))
    two = search_srsg(g, SearchConfig(rho=rho, node_budget=budget, dedupe=dedupe, jobs=2))
    assert _outcome(two) == _outcome(one)
    full = search_srsg(g, SearchConfig(rho=rho)).stats.nodes
    assert one.exhaustive == (budget >= full)
    assert one.stats.nodes == min(budget + 1, full)


def test_counters_independent_of_jobs_order10():
    for g in _order10():
        one = search_srsg(g, SearchConfig(rho=0))
        two = search_srsg(g, SearchConfig(rho=0, jobs=2))
        assert _outcome(two) == _outcome(one)


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
    assert sum(inner) <= rep.stats.wall_time <= elapsed


def test_pair_prune_off_matches_default():
    g8 = build_underlying("G8")
    for rho in (0, 2):
        fast = search_srsg(g8, SearchConfig(rho=rho))
        slow = search_srsg(g8, SearchConfig(rho=rho, pair_prune=False))
        assert [h.canonical for h in fast.hits] == [h.canonical for h in slow.hits]
        assert fast.stats.raw_hits == slow.stats.raw_hits


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
    """Every admissible rho, without dedupe, with the pair prune on and off,
    and with a parameter filter that admits one parameter set of the oracle's
    hits (or one no signing has, where the oracle finds none)."""
    g = SMALL_HOSTS[name]
    r = g.degree(0)
    for rho in range(-r, r + 1, 2):
        oracle = sorted(brute_scan(g, rho), key=lambda sg: (sg.pos, sg.neg))
        rows = lambda sgs: [(sg.pos, sg.neg) for sg in sgs]
        picked = brute_extract(oracle[0]) if oracle else (g.n, r, 0, 0, 0)
        filt = (SrsgParams(*picked),)
        filtered = [sg for sg in oracle if brute_extract(sg) == picked]
        for pair_prune in (True, False):
            plain = search_srsg(g, SearchConfig(rho=rho, dedupe="none", pair_prune=pair_prune))
            assert plain.exhaustive
            assert sorted(rows(h.graph for h in plain.hits)) == rows(oracle), (rho, pair_prune)
            cfg = SearchConfig(rho=rho, dedupe="none", pair_prune=pair_prune, param_filter=filt)
            rep = search_srsg(g, cfg)
            assert sorted(rows(h.graph for h in rep.hits)) == rows(filtered), (rho, pair_prune)


def test_determinism_and_jobs():
    g8 = build_underlying("G8")
    a = search_srsg(g8, SearchConfig(rho=2))
    b = search_srsg(g8, SearchConfig(rho=2))
    assert [h.canonical for h in a.hits] == [h.canonical for h in b.hits]
    assert a.stats.nodes == b.stats.nodes
    par = search_srsg(g8, SearchConfig(rho=2, jobs=2))
    assert [h.canonical for h in par.hits] == [h.canonical for h in a.hits]
    assert par.stats.leaves == a.stats.leaves
    assert par.stats.raw_hits == a.stats.raw_hits


def test_search_catalog_aggregates_and_jobs():
    graphs = [(f"o9[{i}]", g) for i, g in enumerate(
        read_graph6_file(os.path.join(FIXTURES, "6reg_order9.g6")))]
    rep1 = search_catalog(graphs, SearchConfig(rho=2))
    assert len(rep1.hits) == 2
    assert len(rep1.per_graph) == 4
    rep2 = search_catalog(graphs, SearchConfig(rho=2, jobs=2))
    assert [h.canonical for h in rep2.hits] == [h.canonical for h in rep1.hits]


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
    # iso-neg shows both G8 classes by their negations, at net-degree -2,
    # with the parameters and class of the graph shown
    rep = search_srsg(build_underlying("G8"), SearchConfig(rho=2, dedupe="iso-neg"))
    assert len(rep.hits) == 2
    for h in rep.hits:
        assert h.graph.net_degrees() == [-2] * 8
        assert classify(h.graph) == (h.cls, h.params)
        assert eq3_holds(h.params, -2)


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
