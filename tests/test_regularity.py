import glob
import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES, brute_square, signed_graphs
from srsg.catalog import build, list_names
from srsg.core import all_positive, from_signed_edges, negation
from srsg.errors import SizeExceeded
from srsg.regularity import (
    SrsgClass,
    SrsgParams,
    char_poly,
    classify,
    eq3_doubled,
    eq3_holds,
    extract_params,
    neg_walk_parity_ok,
    quadratic_check,
    srg_relation_eq1,
    verify_identity_eq2,
)
from srsg.sgio import read_graph6_file


def complete_graph(n, sign=1):
    return from_signed_edges(n, [(u, v, sign) for u in range(n) for v in range(u + 1, n)])


PETERSEN = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
            (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]


def petersen():
    return from_signed_edges(10, [(u, v, 1) for u, v in PETERSEN])


def test_extract_params_examples():
    assert extract_params(complete_graph(5)) is None  # homogeneous complete
    assert extract_params(from_signed_edges(3, [(0, 1, 1), (1, 2, 1)])) is None  # irregular
    assert extract_params(petersen()) == SrsgParams(10, 3, 0, None, 1)
    c5 = from_signed_edges(5, [(i, (i + 1) % 5, 1) for i in range(5)])
    assert extract_params(c5) == SrsgParams(5, 2, 0, None, 1)


def test_extract_params_catalog_examples():
    assert build("S2_8").graph and extract_params(build("S2_8").graph) == SrsgParams(8, 6, -4, 4, 6)
    assert extract_params(build("S_9").graph) == SrsgParams(9, 6, -1, 3, -2)


def test_classify_examples():
    assert classify(petersen())[0] is SrsgClass.HOMOGENEOUS
    assert classify(complete_graph(4))[0] is SrsgClass.NOT_SRSG
    assert classify(build("S1_12").graph)[0] is SrsgClass.C1
    assert classify(build("S3_8").graph)[0] is SrsgClass.C1  # a = b = 0 counts as a = -b
    assert classify(build("S3_12").graph)[0] is SrsgClass.C4
    assert classify(build("S_16").graph)[0] is SrsgClass.C5
    assert classify(build("S_9").graph)[0] is SrsgClass.C5


def test_classify_complete_inhomogeneous():
    # K3 with one positive and two negative edges: complete, a = 1, b = -1,
    # c vacuous, so it lands in C1 with c reported as None
    g = from_signed_edges(3, [(0, 1, 1), (0, 2, -1), (1, 2, -1)])
    cls, p = classify(g)
    assert cls is SrsgClass.C1
    assert p == SrsgParams(3, 2, 1, -1, None)


def test_identity_eq2_on_catalog_and_perturbation():
    e = build("S2_8")
    assert verify_identity_eq2(e.graph, e.expected_params)
    flipped = [(u, v, -s if (u, v) == (0, 1) else s) for u, v, s in e.graph.edges()]
    bad = from_signed_edges(8, flipped)
    assert extract_params(bad) is None
    assert not verify_identity_eq2(bad, e.expected_params)


def test_identity_eq2_classical_srg_reduction():
    p = SrsgParams(10, 3, 0, 0, 1)  # b := 0 for the empty negative class
    assert verify_identity_eq2(petersen(), p)


def test_eq3_examples():
    assert eq3_holds(SrsgParams(8, 6, -4, 4, 6), 2)
    assert eq3_holds(SrsgParams(12, 6, 0, 0, 2), 4)
    assert not eq3_holds(SrsgParams(12, 6, 0, 0, 1), 4)


def test_srg_relation_examples():
    assert srg_relation_eq1(15, 6, 1, 3)
    assert not srg_relation_eq1(8, 6, 3, 4)
    assert srg_relation_eq1(10, 3, 0, 1)


def test_eq3_and_eq1_match_the_written_out_formulas():
    """eq3_doubled, eq3_holds and srg_relation_eq1 against the identities
    written out here, over a box that includes odd r - rho (no signing has
    such a net degree, but the answers are kept) and vacuous entries."""
    odd_true = 0
    for n in range(1, 11):
        for r in range(7):
            for rho in range(-7, 8):
                for a in range(-3, 4):
                    for b in range(-3, 4):
                        for c in range(-3, 4):
                            want = 2 * rho * rho + (b - a) * rho == (a + b) * r + 2 * c * (n - r - 1) + 2 * r
                            assert eq3_doubled(n, r, rho, a, b, c) == want, (n, r, rho, a, b, c)
                            odd_true += want and (r - rho) % 2
                        want = 2 * rho * rho + (b - a) * rho == (a + b) * r + 2 * r
                        assert eq3_holds(SrsgParams(n, r, a, b, None), rho) == want, (n, r, rho, a, b)
    assert odd_true > 0
    for n in range(21):
        for r in range(11):
            for e in range(-3, 11):
                for f in range(-3, 11):
                    assert srg_relation_eq1(n, r, e, f) == (r * (r - e - 1) == (n - r - 1) * f), (n, r, e, f)


def dense_eq2(g, p):
    """(diagonal, off-diagonal): where 2A^2 + (b-a)A == (a+b-2c)AG + 2cJ +
    2(r-c)I holds throughout, with A^2 from the dense oracle."""
    a, b, c = (0 if x is None else x for x in (p.a, p.b, p.c))
    sq = brute_square(g)
    holds = [True, True]
    for i in range(g.n):
        for j in range(g.n):
            s = g.sign(i, j) if i != j else 0
            lhs = 2 * sq[i][j] + (b - a) * s
            rhs = (a + b - 2 * c) * abs(s) + 2 * c + (2 * (p.r - c) if i == j else 0)
            if lhs != rhs:
                holds[i != j] = False
    return tuple(holds)


def dense_quadratic(g, s, p, sq=None):
    """(diagonal, off-diagonal): where A^2 + sA + pI == 0 holds throughout,
    with A^2 from the dense oracle."""
    sq = sq or brute_square(g)
    holds = [True, True]
    for i in range(g.n):
        for j in range(g.n):
            if sq[i][j] + s * (g.sign(i, j) if i != j else 0) + (p if i == j else 0):
                holds[i != j] = False
    return tuple(holds)


entries = st.one_of(st.none(), st.integers(-3, 3))


@given(signed_graphs(max_n=8), st.integers(0, 7), entries, entries, entries)
def test_identity_eq2_matches_dense_oracle(g, r, a, b, c):
    p = SrsgParams(g.n, r, a, b, c)
    assert verify_identity_eq2(g, p) == all(dense_eq2(g, p))


@given(signed_graphs(max_n=8), st.integers(-3, 3), st.integers(-8, 8))
def test_quadratic_check_matches_dense_oracle(g, s, p):
    assert quadratic_check(g, s, p) == all(dense_quadratic(g, s, p))


def test_identity_checks_hold_and_fail_on_and_off_the_diagonal():
    """Every catalog signing against the dense oracle: eq. (2) holds at its
    parameters, fails on the diagonal alone with r + 1 and off it alone with
    c + 1; the quadratic scan over K4 and the catalog meets all four cases."""
    kinds = set()
    for g, p in [(e.graph, e.expected_params) for e in map(build, list_names())]:
        cases = [(p, (True, True)), (SrsgParams(p.n, p.r + 1, p.a, p.b, p.c), (False, True))]
        if p.c is not None:
            cases.append((SrsgParams(p.n, p.r, p.a, p.b, p.c + 1), (True, False)))
        for q, where in cases:
            assert dense_eq2(g, q) == where, (q, where)
            assert verify_identity_eq2(g, q) == all(where), q
    for g in [complete_graph(4)] + [build(name).graph for name in list_names()]:
        sq = brute_square(g)
        for s in range(-3, 4):
            for p in range(-9, 10):
                where = dense_quadratic(g, s, p, sq)
                kinds.add(where)
                assert quadratic_check(g, s, p) == all(where), (g.n, s, p)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_neg_walk_parity():
    path = from_signed_edges(3, [(0, 1, 1), (1, 2, -1)])
    ok, violations = neg_walk_parity_ok(path)
    assert not ok and violations == [(0, 2)]
    for name in ("S3_8", "S_15"):
        ok, violations = neg_walk_parity_ok(build(name).graph)
        assert ok and not violations


def test_quadratic_check_k4():
    k4 = complete_graph(4)
    assert quadratic_check(k4, -2, -3)
    assert quadratic_check(negation(k4), 2, -3)
    assert not quadratic_check(k4, 0, -6)


def test_char_poly_small():
    assert char_poly(from_signed_edges(2, [(0, 1, 1)])) == [1, 0, -1]
    assert char_poly(complete_graph(3)) == [1, 0, -3, -2]


def test_char_poly_size_cap():
    g = from_signed_edges(33, [(u, u + 1, 1) for u in range(32)])
    with pytest.raises(SizeExceeded):
        char_poly(g)


def _det_by_cofactors(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    det = 0
    for j in range(n):
        if A[0][j] == 0:
            continue
        minor = [[A[i][k] for k in range(n) if k != j] for i in range(1, n)]
        det += (-1) ** j * A[0][j] * _det_by_cofactors(minor)
    return det


def test_char_poly_constant_term_is_determinant():
    g = build("S4_8").graph
    A = [[g.sign(i, j) if i != j else 0 for j in range(8)] for i in range(8)]
    coeffs = char_poly(g)
    # p(x) = det(xI - A), so p(0) = det(-A) = (-1)^n det(A)
    assert coeffs[-1] == (-1) ** 8 * _det_by_cofactors(A)


@given(signed_graphs(max_n=7))
def test_char_poly_cayley_hamilton(g):
    n = g.n
    A = [[g.sign(i, j) if i != j else 0 for j in range(n)] for i in range(n)]
    coeffs = char_poly(g)

    def matmul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    acc = [[coeffs[0] if i == j else 0 for j in range(n)] for i in range(n)]
    for c in coeffs[1:]:
        acc = matmul(acc, A)
        for i in range(n):
            acc[i][i] += c
    assert all(acc[i][j] == 0 for i in range(n) for j in range(n))


def _oracle_graphs():
    """Labelled signed graphs for the sympy oracle, up to n = 20."""
    out = []
    for name in list_names():
        g = build(name).graph
        out += [(name, g), (f"-{name}", negation(g))]
    for path in sorted(glob.glob(os.path.join(FIXTURES, "targets", "*.g6"))):
        for k, u in enumerate(read_graph6_file(path)):
            out.append((f"{os.path.basename(path)}[{k}]", all_positive(u)))
    rng = random.Random(20)
    for t in range(24):
        n = rng.randint(1, 20)
        p_edge, p_neg = rng.random(), rng.random()
        edges = [(u, v, -1 if rng.random() < p_neg else 1)
                 for u in range(n) for v in range(u + 1, n) if rng.random() < p_edge]
        out.append((f"random{t}", from_signed_edges(n, edges)))
    # isolated vertices, an all-negative star and path, complete graphs of each sign
    out.append(("isolated3", from_signed_edges(3, [])))
    out.append(("isolated+edge", from_signed_edges(6, [(1, 4, -1), (2, 3, 1)])))
    out.append(("negative-star", from_signed_edges(7, [(0, v, -1) for v in range(1, 7)])))
    out.append(("negative-path", from_signed_edges(9, [(v, v + 1, -1) for v in range(8)])))
    for n in (1, 2, 9, 20):
        out.append((f"+K{n}", complete_graph(n)))
        out.append((f"-K{n}", complete_graph(n, -1)))
    rng = random.Random(21)
    out.append(("mixedK17", from_signed_edges(
        17, [(u, v, rng.choice((1, -1))) for u in range(17) for v in range(u + 1, 17)])))
    return out


ORACLE_GRAPHS = _oracle_graphs()


@pytest.mark.parametrize("g", [g for _, g in ORACLE_GRAPHS], ids=[name for name, _ in ORACLE_GRAPHS])
def test_char_poly_matches_sympy(g):
    # independent oracle: sympy's charpoly of the dense matrix built from the edge list
    sympy = pytest.importorskip("sympy")
    A = [[0] * g.n for _ in range(g.n)]
    for u, v, s in g.edges():
        A[u][v] = A[v][u] = s
    assert char_poly(g) == [int(c) for c in sympy.Matrix(A).charpoly().all_coeffs()]


def test_quadratic_check_implies_char_poly_divides():
    g = build("S3_8").graph  # (8,6,0,0,-2): A^2 - ... find its quadratic
    # S3_8 is in C2-style form A^2 + bA - 6I with b=0 shifted by c: just check
    # that the roots of any satisfied quadratic are roots of the char poly
    coeffs = char_poly(g)
    for s in range(-6, 7):
        for p in range(-9, 10):
            if quadratic_check(g, s, p):
                # divide char poly by x^2 + s x + p; remainder must vanish
                rem = list(coeffs)
                for i in range(len(rem) - 2):
                    q = rem[i]
                    rem[i + 1] -= q * s
                    rem[i + 2] -= q * p
                    rem[i] = 0
                assert rem[-1] == 0 and rem[-2] == 0

