"""Cross-module invariants on randomly generated signed graphs."""

from hypothesis import given, settings

from conftest import brute_extract, brute_two_walks, signed_graphs
from srsg.core import negation, square_entries, triangle_census, two_walk_counts
from srsg.params import negation_dual
from srsg.regularity import (
    SrsgClass,
    SrsgParams,
    classify,
    eq3_holds,
    extract_params,
    neg_walk_parity_ok,
    verify_identity_eq2,
)


@given(signed_graphs())
def test_extract_params_matches_definition_oracle(g):
    got = extract_params(g)
    want = brute_extract(g)
    assert (got.as_tuple() if got is not None else None) == want


@given(signed_graphs())
def test_extract_defined_iff_identity_holds(g):
    p = extract_params(g)
    if p is not None:
        assert verify_identity_eq2(g, p)
    else:
        # no parameter tuple can satisfy the identity when the graph is
        # regular but has a non-constant entry class; probe the candidates
        # read off the first member of each class
        want = brute_extract(g)
        assert want is None


@given(signed_graphs())
def test_negation_swaps_a_and_b(g):
    p = extract_params(g)
    q = extract_params(negation(g))
    if p is None:
        assert q is None
    else:
        dual, _ = negation_dual(p, 0)
        assert q == dual


@given(signed_graphs())
def test_negation_preserves_class_index(g):
    cls_g, _ = classify(g)
    cls_n, _ = classify(negation(g))
    if cls_g in (SrsgClass.C1, SrsgClass.C2, SrsgClass.C3, SrsgClass.C4, SrsgClass.C5):
        assert cls_n == cls_g


@given(signed_graphs())
def test_net_regular_srsg_satisfies_eq3(g):
    p = extract_params(g)
    nets = set(g.net_degrees())
    if p is not None and len(nets) == 1:
        assert eq3_holds(p, nets.pop())


@given(signed_graphs(max_n=8))
def test_parity_counts_match_two_walks(g):
    ok, violations = neg_walk_parity_ok(g)
    bad = {(u, v) for u in range(g.n) for v in range(u + 1, g.n)
           if two_walk_counts(g, u, v)[1] % 2}
    assert set(violations) == bad
    assert ok == (not bad)
    oracle = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if brute_two_walks(g, u, v)[1] % 2]
    assert violations == oracle


@given(signed_graphs())
def test_square_diagonal_is_degree(g):
    sq = square_entries(g)
    for v in range(g.n):
        assert sq[v][v] == g.degree(v)


@given(signed_graphs())
def test_census_is_negation_mirrored(g):
    c = triangle_census(g).counts
    cn = triangle_census(negation(g)).counts
    assert cn == tuple(reversed(c))
