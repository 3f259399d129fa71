import os
import re

import pytest

from conftest import FIXTURES
from srsg import catalog
from srsg.catalog import CatalogEntry, build, build_underlying, list_names, underlying_names
from srsg.core import components, negation, negative_subgraph, positive_subgraph
from srsg.errors import ConstructionInvalid, UnknownName
from srsg.iso import _code_rows, _encode, are_isomorphic, canonical_form
from srsg.params import negation_dual
from srsg.regularity import (
    SrsgClass,
    SrsgParams,
    classify,
    eq3_holds,
    extract_params,
    srg_relation_eq1,
    verify_identity_eq2,
)
from srsg.search import SearchConfig, search_srsg
from srsg.sgio import read_graph6_file

EXPECTED = {
    "S1_12": ((12, 6, 0, 0, 2), 4),
    "S2_12": ((12, 6, 4, 0, -2), 4),
    "S3_12": ((12, 6, 2, 0, 0), 4),
    "S2_8": ((8, 6, -4, 4, 6), 2),
    "S3_8": ((8, 6, 0, 0, -2), 2),
    "S_9": ((9, 6, -1, 3, -2), 2),
    "S1_9": ((9, 6, -1, 0, 1), 2),
    "S_15": ((15, 6, 1, 1, -1), 2),
    "S1_15": ((15, 6, 3, 1, -2), 2),
    "S4_8": ((8, 6, 4, -4, -6), 0),
    "S_16": ((16, 6, 2, 2, -2), 0),
}


def test_names_and_counts():
    names = list_names()
    assert len(names) == 11 and set(names) == set(EXPECTED)
    assert "S1_12" in names
    by_rho = {4: 0, 2: 0, 0: 0}
    for name in names:
        by_rho[build(name).expected_rho] += 1
    assert by_rho == {4: 3, 2: 6, 0: 2}


def test_every_entry_self_validates():
    for name, (tup, rho) in EXPECTED.items():
        e = build(name)
        assert isinstance(e, CatalogEntry)
        assert e.expected_params == SrsgParams(*tup)
        assert e.expected_rho == rho
        assert extract_params(e.graph) == e.expected_params
        assert set(e.graph.net_degrees()) == {rho}
        cls, _ = classify(e.graph)
        assert cls not in (SrsgClass.NOT_SRSG, SrsgClass.HOMOGENEOUS)
        assert verify_identity_eq2(e.graph, e.expected_params)
        assert eq3_holds(e.expected_params, rho)
        assert e.graph.is_connected()


def test_build_caches():
    assert build("S2_8") is build("S2_8")


def test_search_entry_pin_must_be_a_fixed_point(monkeypatch):
    # S1_9 encoded with vertices 0 and 1 swapped decodes to an isomorphic
    # graph, but that encoding is not its own canonical form
    g = build("S1_9").graph
    pin = _encode(g, [1, 0] + list(range(2, g.n)), _code_rows(g)).hex()
    assert pin != canonical_form(g).hex()
    builder, tup, rho, provenance, _ = catalog._ENTRIES["S1_9"]
    monkeypatch.setitem(catalog._ENTRIES, "S1_9", (builder, tup, rho, provenance, pin))
    monkeypatch.setattr(catalog, "_cache", {})
    with pytest.raises(ConstructionInvalid):
        build("S1_9")


@pytest.mark.parametrize("field, value, message", [
    (1, (8, 6, -4, 4, 4), "built parameters"),
    (2, 4, "net-degrees"),
], ids=["params", "rho"])
def test_build_rejects_an_entry_that_misses_its_record(monkeypatch, field, value, message):
    # S2_8 recorded with a wrong c, or a wrong net degree
    entry = list(catalog._ENTRIES["S2_8"])
    entry[field] = value
    monkeypatch.setitem(catalog._ENTRIES, "S2_8", tuple(entry))
    monkeypatch.setattr(catalog, "_cache", {})
    with pytest.raises(ConstructionInvalid, match=message):
        build("S2_8")


@pytest.mark.parametrize("name, message", [("GQ22", "SRG(15,6,1,3)"), ("Paley13", "SRG(13,6,2,3)")])
def test_srg_builders_check_their_parameters(monkeypatch, name, message):
    monkeypatch.setattr(catalog, "_validate_srg", lambda *args: False)
    monkeypatch.setattr(catalog, "_cache", {})
    with pytest.raises(ConstructionInvalid, match=re.escape(message)):
        build_underlying(name)


def test_unknown_name():
    with pytest.raises(UnknownName):
        build("S_99")
    with pytest.raises(UnknownName):
        build_underlying("Q")


def test_negation_duality_on_entries():
    for name in list_names():
        e = build(name)
        dual, rho = negation_dual(e.expected_params, e.expected_rho)
        assert extract_params(negation(e.graph)) == dual
        assert set(negation(e.graph).net_degrees()) == {rho}


def _component_sizes(g):
    nbr = [p | q for p, q in zip(g.pos, g.neg)]
    return sorted(len(c) for c in components(nbr, g.n))


def test_structural_claims():
    s2_12 = build("S2_12").graph
    gp = positive_subgraph(s2_12)
    assert _component_sizes(gp) == [6, 6]
    assert all(gp.degree(v) == 5 for v in range(12))  # two disjoint K6

    s1_15 = build("S1_15").graph
    gp = positive_subgraph(s1_15)
    gn = negative_subgraph(s1_15)
    assert _component_sizes(gp) == [5, 5, 5] and all(gp.degree(v) == 4 for v in range(15))
    assert _component_sizes(gn) == [3, 3, 3, 3, 3] and all(gn.degree(v) == 2 for v in range(15))

    s1_12 = build("S1_12").graph
    gn = negative_subgraph(s1_12)
    assert all(gn.degree(v) == 1 for v in range(12))  # perfect matching

    assert set(build("S4_8").graph.net_degrees()) == {0}
    assert set(negation(build("S4_8").graph).net_degrees()) == {0}


def test_net_degree_examples():
    assert set(build("S1_12").graph.net_degrees()) == {4}
    assert set(build("S4_8").graph.net_degrees()) == {0}


def test_local_quantity_examples():
    from srsg.core import is_balanced, square_entries, triangle_census, two_walk_counts

    s1_12 = build("S1_12").graph
    # vertices 0 and 1 sit in the same part of K6,6: not adjacent, and their
    # two matching partners contribute the two negative walks
    assert s1_12.sign(0, 1) == 0
    assert two_walk_counts(s1_12, 0, 1) == (4, 2)
    assert not is_balanced(s1_12)

    s2_8 = build("S2_8").graph
    u, v = next((u, v) for u, v, s in s2_8.edges() if s == 1)
    assert two_walk_counts(s2_8, u, v) == (0, 4)

    assert all(row[i] == 6 for i, row in enumerate(square_entries(build("S3_12").graph)))

    assert triangle_census(build("S1_15").graph).counts == (30, 0, 0, 5)

    # net-degree 4 entries: negative part is a matching, no unbalanced triangles
    for name in ("S1_12", "S2_12", "S3_12"):
        c = triangle_census(build(name).graph).counts
        assert c[1] == c[2] == c[3] == 0


def test_underlying_names_and_builds():
    names = underlying_names()
    assert {"G8", "G9", "K333", "K66", "GQ22", "Paley13"} <= set(names)
    for name in names:
        g = build_underlying(name)
        assert g.is_regular() and g.degree(0) == 6


def test_g8_is_the_unique_order8_fixture():
    from srsg.core import all_positive

    g8 = build_underlying("G8")
    assert g8.n == 8 and g8.edge_count() == 24
    (fix,) = read_graph6_file(os.path.join(FIXTURES, "6reg_order8.g6"))
    ok, _ = are_isomorphic(all_positive(g8), all_positive(fix))
    assert ok


def test_gq22_and_paley_structure():
    gq = build_underlying("GQ22")
    assert srg_relation_eq1(15, 6, 1, 3)
    for u in range(15):
        for v in range(u + 1, 15):
            t = (gq.nbr[u] & gq.nbr[v]).bit_count()
            assert t == (1 if gq.adjacent(u, v) else 3)
    p13 = build_underlying("Paley13")
    assert p13.n == 13
    for u, v in p13.edges():
        assert (p13.nbr[u] & p13.nbr[v]).bit_count() == 2


def test_target_fixture_files_match_builtins():
    from srsg.core import all_positive

    mapping = {
        "g8.g6": "G8", "g9.g6": "G9", "k333.g6": "K333", "k66.g6": "K66",
        "gq22.g6": "GQ22", "paley13.g6": "Paley13", "s2_12u.g6": "S2_12_underlying",
        "s3_12u.g6": "S3_12_underlying", "s1_15u.g6": "S1_15_underlying",
        "s16u.g6": "S16_underlying",
    }
    for fname, name in mapping.items():
        (fix,) = read_graph6_file(os.path.join(FIXTURES, "targets", fname))
        assert fix.nbr == build_underlying(name).nbr, fname


CANONICAL_PINS = {
    "S1_12": "0c000000000001020202020200000000020102020202000000020201020202000002020201020200020202020102020202020201000000000000000000000000000000",
    "S2_12": "0c000000000001020202020202020202020000000001020202020000000100020202000001000002020001000000020100000000000000000002020202020202020202",
    "S3_12": "0c000000000001020202020200000202020000010202020002020002020001020002020002010000020201000002020102000200000000000000020002020200000002",
    "S2_8": "0800010102020202010102020202000202020202020202000101010100",
    "S3_8": "0800010102020202020201010202020002010202000201020201010200",
    "S_9": "09000001010202020200020201010202020202020101010002000202000200010002020001",
    "S1_9": "09000001010202020201000201020202020002010202020002010202000201020001010000",
    "S_15": "0f000000000000000001010202020200000000010202000200000102000001020200020002000001000200010202000001020002020001000201020000000000000200000201000002000002010000000202010000020001000002010000000000000000000200000200",
    "S1_15": "0f000000000000000001010202020200000001020202000200000001020202000001020000000100020200010002000001000002010000020001000000000000020000000001020200020100000002000200010000000200000100010000000000000000020202020202",
    "S4_8": "0800010101020202020202010101020200010102010001010100020202",
    "S_16": "10000000000000000000010101020202000000000101020200000200000100010200020001000200000100020102000100020000010000000200000102000000010000020100000200010000010000020000000001000000020000000102000002010000000002000100010100000001000000000000020202",
}


def test_canonical_forms_are_stable():
    # regression pins: canonical labelling must not drift between releases
    for name, hexdigest in CANONICAL_PINS.items():
        assert canonical_form(build(name).graph).hex() == hexdigest, name


def test_search_derived_entries_rederive():
    # S_15: unique class on GQ(2,2); S1_9: unique class on G9
    rep = search_srsg(
        build_underlying("GQ22"),
        SearchConfig(rho=2, param_filter=(SrsgParams(15, 6, 1, 1, -1),)),
    )
    assert len(rep.hits) == 1
    assert rep.hits[0].canonical == canonical_form(build("S_15").graph)

    rep = search_srsg(
        build_underlying("G9"),
        SearchConfig(rho=2, param_filter=(SrsgParams(9, 6, -1, 0, 1),)),
    )
    assert len(rep.hits) == 1
    assert rep.hits[0].canonical == canonical_form(build("S1_9").graph)
