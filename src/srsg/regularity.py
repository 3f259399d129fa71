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

from .core import SignedGraph, square_entries, two_walk_counts
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
    n = g.n
    degs = g.degrees()
    r = degs[0]
    if any(d != r for d in degs):
        return None
    if r == 0:
        return None
    if g.is_complete() and g.is_homogeneous():
        return None
    a = b = c = None
    seen_a = seen_b = seen_c = False
    for u in range(n):
        pu, qu = g.pos[u], g.neg[u]
        for v in range(u + 1, n):
            p, q = two_walk_counts(g, u, v)
            entry = p - q
            if (pu >> v) & 1:
                if seen_a and entry != a:
                    return None
                a, seen_a = entry, True
            elif (qu >> v) & 1:
                if seen_b and entry != b:
                    return None
                b, seen_b = entry, True
            else:
                if seen_c and entry != c:
                    return None
                c, seen_c = entry, True
    return SrsgParams(n, r, a, b, c)


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


def _sign_matrix(g: SignedGraph) -> list[list[int]]:
    """The sign matrix A, entry by entry from SignedGraph.sign."""
    return [[g.sign(i, j) for j in range(g.n)] for i in range(g.n)]


def verify_identity_eq2(g: SignedGraph, p: SrsgParams) -> bool:
    """Exact entrywise check of the defining identity, in doubled form.

    2*A^2 + (b-a)*A == (a+b-2c)*AG + 2c*J + 2(r-c)*I, where A is the sign
    matrix and AG the underlying 0/1 adjacency.  Doubling keeps every term
    integral; None entries are substituted by 0 (their coefficient only
    multiplies an empty entry class, so the substitution is inert).
    """
    n = g.n
    a, b, c, r = _defined(p.a), _defined(p.b), _defined(p.c), p.r
    sq = square_entries(g)
    A = _sign_matrix(g)
    for i in range(n):
        for j in range(n):
            s = A[i][j]
            ag = 1 if s != 0 else 0
            lhs = 2 * sq[i][j] + (b - a) * s
            rhs = (a + b - 2 * c) * ag + 2 * c + (2 * (r - c) if i == j else 0)
            if lhs != rhs:
                return False
    return True


def eq3_doubled(n: int, r: int, rho: int, a: int, b: int, c: int) -> bool:
    """The net-regular parameter identity, in doubled integer form:
    2*rho^2 + (b-a)*rho == (a+b)*r + 2*c*(n-r-1) + 2*r."""
    return 2 * rho * rho + (b - a) * rho == (a + b) * r + 2 * c * (n - r - 1) + 2 * r


def eq3_holds(p: SrsgParams, rho: int) -> bool:
    """Check the net-regular parameter identity (see eq3_doubled) for p.

    None entries are substituted by 0 (for c this only matters when
    n = r+1, where its coefficient vanishes anyway).
    """
    return eq3_doubled(p.n, p.r, rho, _defined(p.a), _defined(p.b), _defined(p.c))


def srg_relation_eq1(n: int, r: int, e: int, f: int) -> bool:
    """The classical strongly-regular-graph parameter relation r(r-e-1) = (n-r-1)f."""
    return r * (r - e - 1) == (n - r - 1) * f


def neg_walk_parity_ok(g: SignedGraph) -> tuple[bool, list[tuple[int, int]]]:
    """True iff every vertex pair has an even number of negative 2-walks.

    Returns the offending pairs as well.  For connected non-complete
    net-regular strongly regular signed graphs in C1, C4 or C5 this always
    holds.
    """
    violations = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if two_walk_counts(g, u, v)[1] % 2:
                violations.append((u, v))
    return (not violations, violations)


def quadratic_check(g: SignedGraph, s: int, p: int) -> bool:
    """Exact check of A^2 + s*A + p*I == 0 for the sign matrix A.

    Holding is equivalent to the spectrum lying in the roots of x^2+sx+p.
    """
    n = g.n
    sq = square_entries(g)
    A = _sign_matrix(g)
    for i in range(n):
        for j in range(n):
            if sq[i][j] + s * A[i][j] + (p if i == j else 0) != 0:
                return False
    return True


CHAR_POLY_MAX_N = 32


def char_poly(g: SignedGraph) -> list[int]:
    """Exact characteristic polynomial of the sign matrix.

    Coefficients in descending powers, monic: [1, c1, ..., cn] means
    x^n + c1 x^(n-1) + ... + cn.  Computed by the Faddeev-LeVerrier
    recurrence; every division is exact over the integers.  Capped at
    n <= 32.
    """
    n = g.n
    if n > CHAR_POLY_MAX_N:
        raise SizeExceeded(f"char_poly limited to n <= {CHAR_POLY_MAX_N}, got {n}")
    A = _sign_matrix(g)
    coeffs = [1]
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        AM = [
            [sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(AM[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact on integer input")
        ck = -tr // k
        coeffs.append(ck)
        for i in range(n):
            AM[i][i] += ck
        M = AM
    return coeffs

