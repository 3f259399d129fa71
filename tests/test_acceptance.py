"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are exact (integer arithmetic throughout).  Criteria 2-4
compare the exhaustive searches with the expectation tables in
srsg.verify, which state what the desk-scale slice establishes.  Two rows
there differ from the abstract's counts, each proven by witnesses in
test_verify.py that share no search or canonical-form code with srsg:

* criterion 3: the order-10 sweep at net-degree 2 finds a class-C2 signing
  of the triangular graph T(5) with parameters (10,6,-1,1,0), so the
  net-degree-2 slice has seven classes;
* criterion 4: the row/column transposition of the 4x4 grid is a
  sign-preserving isomorphism from S_16 onto its negation, so the grid
  carries one class and the net-degree-0 slice has three.
"""

import random
from itertools import combinations

import pytest

from conftest import FIXTURES, brute_extract
from srsg.catalog import build, build_underlying, list_names
from srsg.core import (
    from_signed_edges,
    negation,
    sign_with,
    triangle_census,
    ugraph_from_edges,
)
from srsg.iso import are_isomorphic
from srsg.params import ParamQuery, feasible_param_sets
from srsg.regularity import (
    SrsgClass,
    SrsgParams,
    classify,
    eq3_holds,
    extract_params,
    neg_walk_parity_ok,
    srg_relation_eq1,
    verify_identity_eq2,
)
from srsg.search import SearchConfig, enumerate_negative_subgraphs, search_srsg
from srsg.sgio import emit_graph6, emit_sg, parse_sg, read_graph6_file
from srsg.verify import run_verification


def report(num, failures, desc):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {desc}")
    assert not failures, f"criterion {num}: {failures}"


@pytest.fixture(scope="module")
def verification():
    return run_verification(FIXTURES)


# -- 1. catalog validation ----------------------------------------------------

EXPECTED_TUPLES = {
    "S1_12": (12, 6, 0, 0, 2),
    "S2_12": (12, 6, 4, 0, -2),
    "S3_12": (12, 6, 2, 0, 0),
    "S2_8": (8, 6, -4, 4, 6),
    "S3_8": (8, 6, 0, 0, -2),
    "S_9": (9, 6, -1, 3, -2),
    "S1_9": (9, 6, -1, 0, 1),
    "S_15": (15, 6, 1, 1, -1),
    "S1_15": (15, 6, 3, 1, -2),
    "S4_8": (8, 6, 4, -4, -6),
    "S_16": (16, 6, 2, 2, -2),
}


def test_criterion_1_catalog_validation():
    failures = []
    if set(list_names()) != set(EXPECTED_TUPLES):
        failures.append("name list mismatch")
    for name, tup in EXPECTED_TUPLES.items():
        e = build(name)
        got = extract_params(e.graph)
        if got is None or got.as_tuple() != tup:
            failures.append(f"{name}: {got} != {tup}")
    report(1, failures, "all 11 catalog graphs build and report the expected parameter tuples")


# -- 2..4. classification theorems ---------------------------------------------


def _theorem_failures(verification, key):
    t = verification["theorems"][key]
    failures = [
        f"{c['search']}: expected {c['expected']}, found {c['found']}"
        for c in t["checks"]
        if not c["pass"]
    ]
    if t["found_total"] != t["expected_total"]:
        failures.append(f"total classes {t['found_total']} != {t['expected_total']}")
    if not t["exhaustive"]:
        failures.append("searches not exhaustive")
    return failures


def test_criterion_2_theorem_rho4(verification):
    report(
        2,
        _theorem_failures(verification, "rho4"),
        "net-degree 4: exactly S1_12, S2_12, S3_12 from their underlying graphs; "
        "orders 8 and 10 give none",
    )


def test_criterion_3_theorem_rho2(verification):
    report(
        3,
        _theorem_failures(verification, "rho2"),
        "net-degree 2 desk-scale slice: order 8 {S2_8,S3_8}, order 9 {S_9,S1_9}, "
        "order 10 {T5_C2}, GQ(2,2) {S_15}, S1_15-underlying {S1_15}, Paley13 filtered empty, "
        "7 classes total",
    )


def test_criterion_4_theorem_rho0(verification):
    report(
        4,
        _theorem_failures(verification, "rho0"),
        "net-degree 0: G8 gives S4_8 and -S4_8, the 4x4 grid gives S_16 (which is "
        "its own negation), orders 9 and 10 give none, 3 classes total",
    )


# -- 5. parameter enumeration --------------------------------------------------


def test_criterion_5_parameter_enumeration():
    failures = []

    rows = feasible_param_sets(ParamQuery(r=6, rho=4, fix_b=0, a_min=0, a_max=4))
    families = {(r.a, r.b) for r in rows if r.n_free}
    cands = {
        (r.n, r.a, r.b, r.c, r.complete)
        for r in rows
        if r.n_free or r.complete or r.c != 0 or (r.a, r.b) not in families
    }
    expected_rho4 = {
        (17, 0, 0, 1, False), (12, 0, 0, 2, False), (9, 0, 0, 5, False),
        (12, 1, 0, 1, False), (8, 1, 0, 5, False),
        (None, 2, 0, 0, False), (7, 2, 0, None, True),
        (12, 3, 0, -1, False), (8, 3, 0, -5, False),
        (17, 4, 0, -1, False), (12, 4, 0, -2, False), (9, 4, 0, -5, False),
    }
    if cands != expected_rho4:
        failures.append(f"rho=4 candidate list mismatch: {sorted(cands - expected_rho4)} / missing {sorted(expected_rho4 - cands)}")

    # every parameter set named in the net-degree 2 and 0 analyses
    # ((9,6,3,0,-7) appears transiently there but violates |c| <= r, which is
    # impossible for any signed graph, so the enumerator rightly omits it)
    named_rho2 = [
        (8, 6, -4, 4, 6), (9, 6, -1, 3, -2), (8, 6, -1, 3, -4), (11, 6, -1, 3, -1),
        (9, 6, 0, 0, -1), (8, 6, 0, 0, -2), (9, 6, -1, 0, 1), (8, 6, -1, 0, 2),
        (9, 6, -1, 2, -1), (8, 6, -1, 2, -2), (9, 6, -2, 2, 1), (8, 6, -2, 2, 2),
        (15, 6, 1, 1, -1), (9, 6, 2, 1, -6), (10, 6, 2, 1, -4), (11, 6, 2, 1, -3),
        (13, 6, 2, 1, -2), (19, 6, 2, 1, -1), (23, 6, 3, 1, -1), (15, 6, 3, 1, -2),
        (11, 6, 3, 1, -4), (13, 6, 1, 0, -1), (10, 6, 1, 0, -2), (9, 6, 1, 0, -3),
        (8, 6, 1, 0, -6), (17, 6, 2, 0, -1), (12, 6, 2, 0, -2), (9, 6, 2, 0, -5),
        (21, 6, 3, 0, -1), (14, 6, 3, 0, -2), (9, 6, 1, -2, -1), (8, 6, 1, -2, -2),
        (13, 6, 2, -2, -1), (10, 6, 2, -2, -2), (9, 6, 2, -2, -3), (8, 6, 2, -2, -6),
    ]
    named_rho0 = [
        (10, 6, 3, -4, -1), (8, 6, 3, -4, -3), (25, 6, 2, 2, -1), (16, 6, 2, 2, -2),
        (13, 6, 2, 2, -3), (10, 6, 2, 2, -6), (10, 6, 0, -1, -1), (8, 6, 0, -1, -3),
        (13, 6, 0, 0, -1), (10, 6, 0, 0, -2), (9, 6, 0, 0, -3), (8, 6, 0, 0, -6),
        (8, 6, 4, -4, -6),
    ]
    for rho, named in ((2, named_rho2), (0, named_rho0)):
        rows = feasible_param_sets(ParamQuery(r=6, rho=rho, n_max=25))
        tups = {(q.n, q.r, q.a, q.b, q.c) for q in rows if q.n is not None}
        for t in named:
            if t not in tups:
                failures.append(f"rho={rho}: named set {t} missing")
    # the n-free family (n,6,-1,1,0) and the complete candidate (7,6,-1,1)
    rows2 = feasible_param_sets(ParamQuery(r=6, rho=2, n_max=25))
    if not any(q.n_free and (q.a, q.b, q.c) == (-1, 1, 0) for q in rows2):
        failures.append("rho=2: family (n,6,-1,1,0) missing")
    if not any(q.complete and (q.n, q.a, q.b) == (7, -1, 1) for q in rows2):
        failures.append("rho=2: complete candidate (7,6,-1,1) missing")

    # the specialized identities hold exactly for every emitted set
    for rho, form in (
        (4, lambda a, b, c, n: 10 - 5 * a - b == c * (n - 7)),
        (2, lambda a, b, c, n: 4 * a + 2 * b + c * (n - 7) == -2),
        (0, lambda a, b, c, n: 3 * (a + b) + c * (n - 7) + 6 == 0),
    ):
        for q in feasible_param_sets(ParamQuery(r=6, rho=rho, n_max=25)):
            n = q.n if q.n is not None else 30
            c = q.c if q.c is not None else 0
            if q.complete:
                continue  # c vacuous: covered by eq3_holds below
            if not form(q.a, q.b, c, n):
                failures.append(f"rho={rho}: {q} fails its specialized identity")
            if not eq3_holds(SrsgParams(n, 6, q.a, q.b, c), rho):
                failures.append(f"rho={rho}: {q} fails the general identity")
    report(5, failures, "feasible sets reproduce the 12-set candidate list and every named set")


# -- 6. identity suite -----------------------------------------------------------


def test_criterion_6_identity_suite():
    failures = []
    rng = random.Random(66)
    hosts = []
    for fname in ("6reg_order8.g6", "6reg_order9.g6", "6reg_order10.g6"):
        hosts.extend(read_graph6_file(f"{FIXTURES}/{fname}"))

    graphs = [build(name).graph for name in list_names()]
    while len(graphs) < 1000 + len(EXPECTED_TUPLES):
        host = hosts[rng.randrange(len(hosts))]
        edges = host.edges()
        neg = [e for e in edges if rng.random() < 0.5]
        graphs.append(sign_with(host, neg))

    for i, g in enumerate(graphs):
        p = extract_params(g)
        brute = brute_extract(g)
        if (p.as_tuple() if p else None) != brute:
            failures.append(f"graph {i}: extraction disagrees with the definition oracle")
        if p is not None and not verify_identity_eq2(g, p):
            failures.append(f"graph {i}: defined but identity fails")
        q = extract_params(negation(g))
        if p is None:
            if q is not None:
                failures.append(f"graph {i}: negation duality broken (None vs {q})")
        elif q != SrsgParams(p.n, p.r, p.b, p.a, p.c):
            failures.append(f"graph {i}: negation duality broken")
        nets = set(g.net_degrees())
        if len(nets) == 1:
            rho = nets.pop()
            if set(negation(g).net_degrees()) != {-rho}:
                failures.append(f"graph {i}: negation does not negate the net-degree")
            if p is not None and not eq3_holds(p, rho):
                failures.append(f"graph {i}: net-regular identity fails")

    # parity law on every C1/C4/C5 non-complete net-regular catalog entry;
    # no-unbalanced-triangle law on the net-degree-4 classes
    for name in list_names():
        e = build(name)
        cls, _ = classify(e.graph)
        if cls in (SrsgClass.C1, SrsgClass.C4, SrsgClass.C5) and not e.graph.is_complete():
            ok, viol = neg_walk_parity_ok(e.graph)
            if not ok:
                failures.append(f"{name}: parity violated at {viol[:3]}")
        if e.expected_rho == 4:
            c = triangle_census(e.graph).counts
            if c[1] or c[3]:
                failures.append(f"{name}: unbalanced triangles in a net-degree-4 class")
    report(6, failures, "identity, duality and parity laws hold on 1000 random signings "
           "plus the catalog, with zero violations")


# -- 7. oracle equivalence -------------------------------------------------------


def _sample_regular_graphs(rng, count=50):
    """Connected regular graphs with at most 20 edges, assorted (n, r)."""
    shapes = [(5, 2), (6, 2), (6, 3), (7, 2), (7, 4), (8, 2), (8, 3), (8, 4),
              (9, 2), (10, 3), (10, 4), (9, 4)]
    out = []
    while len(out) < count:
        n, r = shapes[rng.randrange(len(shapes))]
        if n * r // 2 > 20:
            continue
        full = ugraph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        pool = []
        for i, sub in enumerate(enumerate_negative_subgraphs(full, r)):
            pool.append(sub)
            if i > 400:
                break
        sub = pool[rng.randrange(len(pool))]
        g = ugraph_from_edges(n, sub)
        if g.is_connected():
            out.append(g)
    return out


def test_criterion_7_oracle_equivalence():
    failures = []
    rng = random.Random(77)
    for idx, g in enumerate(_sample_regular_graphs(rng)):
        r = g.degree(0)
        k = rng.randrange(1, r)
        rho = r - 2 * k
        rep = search_srsg(g, SearchConfig(rho=rho, dedupe="none"))
        got = sorted((h.graph.pos, h.graph.neg) for h in rep.hits)

        # brute scan over the net-degree-feasible layer of the 2^m signings
        edges = g.edges()
        size = k * g.n // 2
        want = []
        if k * g.n % 2 == 0:
            for sub in combinations(range(len(edges)), size):
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
                if extract_params(sg) is not None:
                    want.append((sg.pos, sg.neg))
        if got != sorted(want):
            failures.append(f"graph {idx} (n={g.n}, r={r}, rho={rho}): {len(got)} vs {len(want)}")
    report(7, failures, "search equals the brute-force signing scan on 50 random "
           "connected regular graphs with <= 20 edges")


# -- 8. isomorphism replay -------------------------------------------------------


def _g18_g28():
    """The two constructions of the (8,6,0,0,-2) signing; isomorphic by the
    map swapping the two middle vertices."""
    missing1 = {(0, 7), (1, 6), (2, 4), (3, 5)}
    neg1 = {(0, 1), (0, 3), (1, 2), (2, 5), (3, 4), (4, 6), (5, 7), (6, 7)}
    missing2 = {(0, 7), (1, 6), (2, 5), (3, 4)}
    neg2 = {(0, 1), (0, 3), (1, 2), (2, 4), (3, 5), (4, 7), (5, 6), (6, 7)}

    def make(missing, neg):
        edges = []
        for u in range(8):
            for v in range(u + 1, 8):
                if (u, v) in missing:
                    continue
                edges.append((u, v, -1 if (u, v) in neg else 1))
        return from_signed_edges(8, edges)

    return make(missing1, neg1), make(missing2, neg2)


def test_criterion_8_isomorphism_replay():
    failures = []
    g1, g2 = _g18_g28()
    ok, w = are_isomorphic(g1, g2)
    if not ok:
        failures.append("the two (8,6,0,0,-2) constructions are not isomorphic")
    else:
        for u in range(8):
            for v in range(u + 1, 8):
                if g1.sign(u, v) != g2.sign(w[u], w[v]):
                    failures.append("witness failed")

    # the six variants on GQ(2,2) collapse to one class; replay all pairs
    rep = search_srsg(
        build_underlying("GQ22"),
        SearchConfig(rho=2, param_filter=(SrsgParams(15, 6, 1, 1, -1),), dedupe="none"),
    )
    if len(rep.hits) != 6:
        failures.append(f"expected 6 labeled variants on GQ(2,2), got {len(rep.hits)}")
    for i in range(len(rep.hits)):
        for j in range(i + 1, len(rep.hits)):
            ok, w = are_isomorphic(rep.hits[i].graph, rep.hits[j].graph)
            if not ok:
                failures.append(f"variants {i} and {j} not isomorphic")

    for args, expected in (
        ((8, 6, 3, 4), False), ((9, 6, 2, 5), False), ((8, 6, 2, 6), False),
        ((15, 6, 1, 3), True),
    ):
        if srg_relation_eq1(*args) != expected:
            failures.append(f"srg relation wrong on {args}")
    report(8, failures, "isomorphism replays with verified witnesses; "
           "classical parameter relation answers match")


# -- 9. format conformance -------------------------------------------------------


def test_criterion_9_format_conformance():
    failures = []
    counts = {"6reg_order8.g6": 1, "6reg_order9.g6": 4, "6reg_order10.g6": 21}
    for fname, expected in counts.items():
        path = f"{FIXTURES}/{fname}"
        with open(path) as fh:
            lines = [l.strip() for l in fh if l.strip()]
        graphs = read_graph6_file(path)
        if len(graphs) != expected:
            failures.append(f"{fname}: {len(graphs)} graphs != {expected}")
        for line, g in zip(lines, graphs):
            if emit_graph6(g) != line:
                failures.append(f"{fname}: graph6 round trip not bit-exact for {line}")
    for name in list_names():
        g = build(name).graph
        if parse_sg(emit_sg(g)) != g:
            failures.append(f"{name}: .sg round trip failed")
    rng = random.Random(9)
    for _ in range(1000):
        n = rng.randint(2, 12)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                x = rng.random()
                if x < 0.25:
                    edges.append((u, v, 1))
                elif x < 0.5:
                    edges.append((u, v, -1))
        g = from_signed_edges(n, edges)
        if parse_sg(emit_sg(g)) != g:
            failures.append("random .sg round trip failed")
            break
    report(9, failures, "graph6 and .sg round-trips are bit-exact; ingestion "
           "confirms the 1/4/21 fixture counts")
