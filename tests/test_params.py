import hashlib
import tracemalloc

import pytest

from srsg.errors import EmptyRange, VacuousQuery
from srsg.params import FeasibleSet, ParamQuery, feasible_param_sets, negation_dual
from srsg.regularity import SrsgParams, eq3_holds


def rows_as_tuples(rows):
    return {(r.n, r.r, r.a, r.b, r.c, r.complete) for r in rows}


def candidate_sets(rows):
    """Drop the instantiations of n-free families, keep the family row itself."""
    families = {(r.a, r.b) for r in rows if r.n_free}
    out = []
    for r in rows:
        if not r.n_free and not r.complete and r.c == 0 and (r.a, r.b) in families:
            continue
        out.append(r)
    return out


def test_rho4_candidate_list_with_b0():
    rows = feasible_param_sets(ParamQuery(r=6, rho=4, fix_b=0, a_min=0, a_max=4))
    cands = candidate_sets(rows)
    assert len(cands) == 12
    expected = {
        (17, 6, 0, 0, 1, False), (12, 6, 0, 0, 2, False), (9, 6, 0, 0, 5, False),
        (12, 6, 1, 0, 1, False), (8, 6, 1, 0, 5, False),
        (None, 6, 2, 0, 0, False), (7, 6, 2, 0, None, True),
        (12, 6, 3, 0, -1, False), (8, 6, 3, 0, -5, False),
        (17, 6, 4, 0, -1, False), (12, 6, 4, 0, -2, False), (9, 6, 4, 0, -5, False),
    }
    assert rows_as_tuples(cands) == expected


def test_rho2_contains_named_sets():
    rows = feasible_param_sets(ParamQuery(r=6, rho=2))
    tups = rows_as_tuples(rows)
    assert (9, 6, -1, 3, -2, False) in tups
    assert (15, 6, 1, 1, -1, False) in tups
    assert (15, 6, 3, 1, -2, False) in tups


def test_rho0_with_a_b_zero():
    rows = feasible_param_sets(ParamQuery(r=6, rho=0, fix_b=0, a_min=0, a_max=0))
    concrete = {(r.n, r.c) for r in rows if not r.n_free and not r.complete}
    assert concrete == {(13, -1), (10, -2), (9, -3), (8, -6)}


def test_every_row_satisfies_eq3():
    for rho in (4, 2, 0):
        for r in feasible_param_sets(ParamQuery(r=6, rho=rho)):
            n = r.n if r.n is not None else 20  # any n works for c = 0 families
            assert eq3_holds(SrsgParams(n, r.r, r.a, r.b, r.c), rho)


def test_brute_force_box_scan_agrees():
    # independent full scan of the integer box, concrete n > r+1 and c != 0
    r, rho, n_max = 6, 2, 17
    rows = feasible_param_sets(ParamQuery(r=r, rho=rho, n_max=n_max))
    got = {(q.n, q.a, q.b, q.c) for q in rows if q.n is not None and not q.complete and q.c != 0}
    want = set()
    for n in range(r + 2, n_max + 1):
        for a in range(-(r - 1), r):
            for b in range(-(r - 1), r):
                for c in range(-r, r + 1):
                    if c != 0 and eq3_holds(SrsgParams(n, r, a, b, c), rho):
                        want.add((n, a, b, c))
    assert got == want


def test_no_out_of_bound_rows():
    for rho in (4, 2, 0):
        for q in feasible_param_sets(ParamQuery(r=6, rho=rho)):
            if q.a is not None:
                assert abs(q.a) <= 5
            if q.b is not None:
                assert abs(q.b) <= 5
            if q.c is not None:
                assert abs(q.c) <= 6
            if q.n is not None:
                assert 7 <= q.n <= 17


def test_negation_dual():
    p, rho = negation_dual(SrsgParams(8, 6, -4, 4, 6), 2)
    assert p == SrsgParams(8, 6, 4, -4, 6) and rho == -2
    p, rho = negation_dual(SrsgParams(16, 6, 2, 2, -2), 0)
    assert p == SrsgParams(16, 6, 2, 2, -2) and rho == 0
    p, rho = negation_dual(SrsgParams(8, 6, 4, -4, -6), 0)
    assert p == SrsgParams(8, 6, -4, 4, -6) and rho == 0


def test_closed_under_negation_dual():
    rows = feasible_param_sets(ParamQuery(r=6, rho=2))
    mirrored = feasible_param_sets(ParamQuery(r=6, rho=-2))
    mirror_tups = rows_as_tuples(mirrored)
    for q in rows:
        assert (q.n, q.r, q.b, q.a, q.c, q.complete) in mirror_tups


def test_extra_constraints_even_and_divisible():
    rows = feasible_param_sets(ParamQuery(r=6, rho=4, fix_b=0, even_n=True))
    assert all(q.n % 2 == 0 for q in rows if q.n is not None)
    # 15 | n at net-degree 2 keeps exactly the n = 15 rows
    rows = feasible_param_sets(ParamQuery(r=6, rho=2, div_n=15))
    concrete = {(q.n, q.a, q.b, q.c) for q in rows if q.n is not None}
    assert (15, 1, 1, -1) in concrete and (15, 3, 1, -2) in concrete
    assert all(q.n % 15 == 0 for q in rows if q.n is not None)
    rows = feasible_param_sets(ParamQuery(r=6, rho=2, n_min=10))
    assert all(q.n >= 10 for q in rows if q.n is not None)


def test_vacuous_and_empty_queries():
    with pytest.raises(VacuousQuery):
        feasible_param_sets(ParamQuery(r=6, rho=3))  # odd difference
    with pytest.raises(VacuousQuery):
        feasible_param_sets(ParamQuery(r=6, rho=-8))  # k > r
    with pytest.raises(EmptyRange):
        feasible_param_sets(ParamQuery(r=6, rho=2, n_max=5))
    for div_n in (0, -3):
        with pytest.raises(EmptyRange):
            feasible_param_sets(ParamQuery(r=6, rho=2, div_n=div_n))


@pytest.mark.parametrize("r,rho,message", [
    (6, 3, "no signing has degree 6 and net-degree 3: "
           "the negative subgraph would need degree 3/2, which is not an integer"),
    (6, -8, "no signing has degree 6 and net-degree -8: "
            "the negative subgraph would need degree 7, outside 0..6"),
    (6, 8, "no signing has degree 6 and net-degree 8: "
           "the negative subgraph would need degree -1, outside 0..6"),
    (-3, 1, "no signing has degree -3: the degree must be non-negative"),
    (-2, -2, "no signing has degree -2: the degree must be non-negative"),
])
def test_vacuous_message_is_exact(r, rho, message):
    with pytest.raises(VacuousQuery) as ei:
        feasible_param_sets(ParamQuery(r=r, rho=rho))
    assert str(ei.value) == message


def test_family_row_has_no_params_tuple():
    fam = next(q for q in feasible_param_sets(ParamQuery(r=6, rho=4, fix_b=0)) if q.n_free)
    with pytest.raises(ValueError):
        fam.params()
    assert FeasibleSet(12, 6, 0, 0, 2).params() == SrsgParams(12, 6, 0, 0, 2)


def test_rows_are_immutable_hashable_tuples():
    rows = feasible_param_sets(ParamQuery(r=6, rho=4))
    assert len(set(rows)) == len(rows)
    row = rows[0]
    for name in ("n", "c", "complete"):
        with pytest.raises(AttributeError):
            setattr(row, name, 0)
    assert row == (7, 6, row.a, row.b, None, True) and row.complete
    assert list(row._asdict()) == ["n", "r", "a", "b", "c", "complete"]
    assert repr(FeasibleSet(None, 6, 2, 0, 0)) == (
        "FeasibleSet(n=None, r=6, a=2, b=0, c=0, complete=False)")


def test_rows_with_c_nonzero_stop_below_a_large_n_max():
    # b = 1 at rho = 4 has no c = 0 family, so every row has |c| >= 1 and
    # n - r - 1 <= |twice/2|: a larger n_max adds no row, and no memory
    small = feasible_param_sets(ParamQuery(r=6, rho=4, fix_b=1, n_max=60))
    assert small and not any(q.n_free for q in small)
    tracemalloc.start()
    try:
        large = feasible_param_sets(ParamQuery(r=6, rho=4, fix_b=1, n_max=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert large == small
    assert peak < 2**20


# sha256 of repr(feasible_param_sets(q)); perfbench hashes the same repr
REPR_PINS = [
    ({"r": 6, "rho": 4}, "8e978ba906a28f9fe1cfe4650cecdbe9f6a0e7f4b9c0a0382803ef69a9f2bebb"),
    ({"r": 6, "rho": 2}, "8f85d9964aae36fe96bd9dad54d2163440e57b39c70f04c385278051d2578b96"),
    ({"r": 6, "rho": 0}, "51d13b8cd4dedaef63ded8933fab2d95e0a85a2d8614a60e181d8e237145966e"),
    ({"r": 6, "rho": 4, "fix_b": 0, "even_n": True},
     "ea554f7627c22c152acfbebe2ce04e1b37308580a5a537f524ac0da2bd907fb5"),
    ({"r": 6, "rho": 2, "div_n": 15},
     "bc93b5728f21cbd73d9e9d9db91d57b5e7e6770c1d9000ce3dfaa6566294ba4d"),
]


@pytest.mark.parametrize("opts,digest", REPR_PINS)
def test_rows_repr_pinned(opts, digest):
    rows = feasible_param_sets(ParamQuery(**opts))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def brute_rows(r, rho, n_max=None, n_min=None, fix_b=None, even_n=False, div_n=None,
               a_min=None, a_max=None):
    """Every row of a query, by scanning the whole (a, b, c, n) box."""
    n_max = 2 * r + 5 if n_max is None else n_max
    n_min = r + 1 if n_min is None else max(n_min, r + 1)

    def n_ok(n):
        return (n_min <= n <= n_max and not (even_n and n % 2)
                and not (div_n is not None and n % div_n))

    box = range(-(r - 1), r)
    a_vals = [a for a in box if (a_min is None or a >= a_min) and (a_max is None or a <= a_max)]
    b_vals = [b for b in box if fix_b is None or b == fix_b]
    rows = []
    for a in a_vals:
        for b in b_vals:
            if n_ok(r + 1) and eq3_holds(SrsgParams(r + 1, r, a, b, None), rho):
                rows.append((r + 1, r, a, b, None, True))
            if all(eq3_holds(SrsgParams(n, r, a, b, 0), rho) for n in (r + 2, 3 * r + 7)):
                rows.append((None, r, a, b, 0, False))
            for n in range(r + 2, n_max + 1):
                for c in range(-r, r + 1):
                    if n_ok(n) and eq3_holds(SrsgParams(n, r, a, b, c), rho):
                        rows.append((n, r, a, b, c, False))
    return sorted(rows, key=lambda t: (n_max + 1 if t[0] is None else t[0], t[2], t[3],
                                       -(r + 1) if t[4] is None else t[4]))


BOX_PAIRS = [(3, 1), (4, 0), (5, -1), (5, 3), (6, 2), (7, 1), (7, -5),
             (1, 1), (1, -1), (2, 2), (2, 0), (2, -2), (6, 6), (6, -6)]


@pytest.mark.parametrize("r,rho", BOX_PAIRS)
@pytest.mark.parametrize("opts", [
    {}, {"even_n": True}, {"div_n": 3}, {"fix_b": 1}, {"fix_b": 9}, {"a_min": -1, "a_max": 2},
    {"n_min": 10}, {"n_max": 11}, {"n_min": 9, "n_max": 30, "div_n": 2},
    {"fix_b": -9}, {"a_min": 2, "a_max": -2}, {"div_n": 1}, {"n_min": 1, "even_n": True},
])
def test_rows_match_full_box_scan(r, rho, opts):
    if opts.get("n_max", 2 * r + 5) < max(opts.get("n_min", r + 1), r + 1):
        with pytest.raises(EmptyRange):
            feasible_param_sets(ParamQuery(r=r, rho=rho, **opts))
        return
    rows = feasible_param_sets(ParamQuery(r=r, rho=rho, **opts))
    got = [(q.n, q.r, q.a, q.b, q.c, q.complete) for q in rows]
    assert got == brute_rows(r, rho, **opts)


@pytest.mark.parametrize("r,rho", BOX_PAIRS)
def test_n_max_r_plus_1_gives_complete_rows_only(r, rho):
    rows = feasible_param_sets(ParamQuery(r=r, rho=rho, n_max=r + 1))
    assert rows == brute_rows(r, rho, n_max=r + 1)  # rows compare as plain tuples
    assert all(q.complete or q.n_free for q in rows)
