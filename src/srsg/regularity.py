"""Strong regularity of signed graphs.

A signed graph (neither homogeneous complete nor edgeless) is strongly
regular when the entries of the squared sign matrix are constant on each of
the four entry classes: the diagonal (r), positively adjacent pairs (a),
negatively adjacent pairs (b), and distinct non-adjacent pairs (c).
Parameters whose entry class is empty are reported as None, never silently
zero.  Inhomogeneous strongly regular signed graphs split into the five
standard classes C1..C5 by whether a = -b, completeness, and the value of c
against (a+b)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import add, sub

from .core import SignedGraph, _bits, _pair_walks
from .errors import SizeExceeded


@dataclass(frozen=True)
class SrsgParams:
    """Parameter tuple (n, r, a, b, c); None marks a vacuous entry class."""

    n: int
    r: int
    a: int | None
    b: int | None
    c: int | None

    def as_tuple(self) -> tuple:
        return (self.n, self.r, self.a, self.b, self.c)

    def __str__(self) -> str:
        f = lambda x: "?" if x is None else str(x)
        return f"({self.n},{self.r},{f(self.a)},{f(self.b)},{f(self.c)})"


class SrsgClass(Enum):
    NOT_SRSG = "not-srsg"
    HOMOGENEOUS = "homogeneous"
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"


def extract_params(g: SignedGraph) -> SrsgParams | None:
    """Extract (n, r, a, b, c), or None when g is not strongly regular.

    None is returned when g is edgeless, homogeneous complete, not regular,
    or when some entry class of the squared sign matrix is non-constant.
    """
    degs = g.degrees()
    r = degs[0]
    if r == 0 or any(d != r for d in degs):
        return None
    if g.is_complete() and g.is_homogeneous():
        return None
    entries: list[int | None] = [None, None, None]
    for _, _, code, p, q in _pair_walks(g):
        e = entries[code]
        if e is None:
            entries[code] = p - q
        elif e != p - q:
            return None
    return SrsgParams(g.n, r, *entries)


def classify(g: SignedGraph) -> tuple[SrsgClass, SrsgParams | None]:
    """Classify g as NOT_SRSG, HOMOGENEOUS, or one of C1..C5 (with params)."""
    p = extract_params(g)
    return (class_of(p), p)


def class_of(p: SrsgParams | None) -> SrsgClass:
    """The class that the parameters p (None: not strongly regular) decide.

    a = b = 0 counts as a = -b, so such graphs land in C1/C2.  The class is
    the same for a graph and its negation, whose parameters swap a and b.
    """
    if p is None:
        return SrsgClass.NOT_SRSG
    if p.a is None or p.b is None:
        return SrsgClass.HOMOGENEOUS
    complete = p.c is None
    if p.a == -p.b:
        if complete or p.c != 0:
            return SrsgClass.C1
        return SrsgClass.C2
    if complete or 2 * p.c == p.a + p.b:
        return SrsgClass.C3
    if p.c == 0:
        return SrsgClass.C4
    return SrsgClass.C5


def negative_degree(r: int, rho: int) -> int | None:
    """The degree k = (r - rho)/2 of the negative subgraph of a net-degree-rho
    signing of an r-regular graph, or None when no k in 0..r gives rho."""
    k, odd = divmod(r - rho, 2)
    return k if not odd and 0 <= k <= r else None


def _defined(x: int | None) -> int:
    return 0 if x is None else x


def _combination_vanishes(g: SignedGraph, k2: int, kA: int, kG: int, kJ: int, kI: int) -> bool:
    """Whether k2*A^2 + kA*A + kG*AG + kJ*J + kI*I is 0 entry by entry, for the
    sign matrix A and the 0/1 adjacency AG.  On the diagonal A^2 is the degree
    and A, AG are 0; all five are symmetric, so each pair u < v is checked once."""
    if any(k2 * d + kJ + kI for d in g.degrees()):
        return False
    off = (kJ + kG + kA, kJ + kG - kA, kJ)
    return not any(k2 * (p - q) + off[code] for _, _, code, p, q in _pair_walks(g))


def verify_identity_eq2(g: SignedGraph, p: SrsgParams) -> bool:
    """Exact entrywise check of the defining identity, in doubled form.

    2*A^2 + (b-a)*A == (a+b-2c)*AG + 2c*J + 2(r-c)*I, where A is the sign
    matrix and AG the underlying 0/1 adjacency.  Doubling keeps every term
    integral; None entries are substituted by 0 (their coefficient only
    multiplies an empty entry class, so the substitution is inert).
    """
    a, b, c, r = _defined(p.a), _defined(p.b), _defined(p.c), p.r
    return _combination_vanishes(g, 2, b - a, 2 * c - a - b, -2 * c, 2 * (c - r))


def _eq3_terms(n: int, r: int, rho: int) -> tuple[tuple[int, int, int], int]:
    """The net-regular parameter identity, eq. (3), doubled so that every term
    is an integer: ((r+rho, r-rho, 2(n-1-r)), 2(rho^2-r)), the coefficients of
    (a, b, c) and the right side.  Halved: the numbers of positive, negative and
    non-neighbours of each vertex, and its off-diagonal row sum of A^2."""
    return (r + rho, r - rho, 2 * (n - 1 - r)), 2 * (rho * rho - r)


def eq3_doubled(n: int, r: int, rho: int, a: int, b: int, c: int) -> bool:
    """The net-regular parameter identity, eq. (3), in the doubled integer form of _eq3_terms."""
    (ka, kb, kc), rhs = _eq3_terms(n, r, rho)
    return ka * a + kb * b + kc * c == rhs


def eq3_holds(p: SrsgParams, rho: int) -> bool:
    """Check the net-regular parameter identity (see eq3_doubled) for p.

    None entries are substituted by 0 (for c this only matters when
    n = r+1, where its coefficient vanishes anyway).
    """
    return eq3_doubled(p.n, p.r, rho, _defined(p.a), _defined(p.b), _defined(p.c))


def srg_relation_eq1(n: int, r: int, e: int, f: int) -> bool:
    """The classical strongly-regular-graph parameter relation r(r-e-1) = (n-r-1)f:
    eq. (3) at rho = r, a = e, c = f, where b's coefficient r - rho is 0."""
    return eq3_doubled(n, r, r, e, 0, f)


def neg_walk_parity_ok(g: SignedGraph) -> tuple[bool, list[tuple[int, int]]]:
    """True iff every vertex pair has an even number of negative 2-walks.

    Returns the offending pairs as well.  For connected non-complete
    net-regular strongly regular signed graphs in C1, C4 or C5 this always
    holds.
    """
    violations = [(u, v) for u, v, _, _, q in _pair_walks(g) if q % 2]
    return (not violations, violations)


def quadratic_check(g: SignedGraph, s: int, p: int) -> bool:
    """Exact check of A^2 + s*A + p*I == 0 for the sign matrix A.

    Holding is equivalent to the spectrum lying in the roots of x^2+sx+p.
    """
    return _combination_vanishes(g, 1, s, 0, 0, p)


CHAR_POLY_MAX_N = 32


def char_poly(g: SignedGraph) -> list[int]:
    """Exact characteristic polynomial of the sign matrix.

    Coefficients in descending powers, monic: [1, c1, ..., cn] means
    x^n + c1 x^(n-1) + ... + cn.  Computed by the Faddeev-LeVerrier
    recurrence M_0 = I, c_k = -tr(A M_(k-1)) / k, M_k = A M_(k-1) + c_k I;
    every division is exact over the integers.  A M is built from the sign
    bitmasks: row i is the sum of the M rows of i's positive neighbours
    minus the sum of the M rows of its negative neighbours, so a step costs
    n additions per edge end rather than n^3 products.  Capped at n <= 32.
    """
    n = g.n
    if n > CHAR_POLY_MAX_N:
        raise SizeExceeded(f"char_poly limited to n <= {CHAR_POLY_MAX_N}, got {n}")
    pos = [list(_bits(row)) for row in g.pos]
    neg = [list(_bits(row)) for row in g.neg]
    coeffs = [1]
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        AM = []
        for i in range(n):
            row = [0] * n
            for t in pos[i]:
                row = list(map(add, row, M[t]))
            for t in neg[i]:
                row = list(map(sub, row, M[t]))
            AM.append(row)
        tr = sum(AM[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact on integer input")
        ck = -tr // k
        coeffs.append(ck)
        for i in range(n):
            AM[i][i] += ck
        M = AM
    return coeffs

