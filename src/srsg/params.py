"""Feasible parameter sets for net-regular strongly regular signed graphs.

For degree r and net-degree rho, the net-regular identity (checked in
doubled integer form, see regularity.eq3_doubled) pins c*(n-r-1) in terms of
a and b.  The enumerator walks |a|,|b| <= r-1 and r+1 <= n <= n_max, solves
the identity for c, and keeps the integer solutions with |c| <= r, so the
rows are those of a scan of the whole (a, b, c, n) box.  Two kinds of row
need care:

* complete candidates: at n = r+1 the c class is empty, so c is emitted as
  None and the row flagged complete;
* n-free families: when c = 0 the identity does not involve n, so the
  family is returned once with n = None plus its instantiations up to
  n_max.

Rows are FeasibleSet named tuples, built straight from their field tuples
and bucketed by n, which gives the (n, a, b, c) order without sorting the
rows (the argument is in the feasible_param_sets docstring).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from .errors import EmptyRange, VacuousQuery
from .regularity import SrsgParams, _eq3_terms, negative_degree


@dataclass(frozen=True)
class ParamQuery:
    """Enumeration request: degree, net-degree, and optional constraints."""

    r: int
    rho: int
    n_max: int | None = None  # default 2r+5
    n_min: int | None = None  # default r+1
    fix_b: int | None = None
    even_n: bool = False
    div_n: int | None = None
    a_min: int | None = None
    a_max: int | None = None


class FeasibleSet(NamedTuple):
    """One feasible row; n is None for an n-free family (c = 0).

    A NamedTuple: rows are immutable (assigning a field raises
    AttributeError) and hashable, and they compare, hash and iterate as the
    plain tuple (n, r, a, b, c, complete).  row._asdict() gives the fields
    as a dict in that order, where a dataclass would use dataclasses.asdict.
    """

    n: int | None
    r: int
    a: int | None
    b: int | None
    c: int | None
    complete: bool = False

    @property
    def n_free(self) -> bool:
        return self.n is None

    def params(self) -> SrsgParams:
        if self.n is None:
            raise ValueError("n-free family row has no single parameter tuple")
        return SrsgParams(self.n, self.r, self.a, self.b, self.c)


def _vacuous_reason(r: int, rho: int) -> str:
    """Why no signing has degree r and net-degree rho, in exact terms."""
    if r < 0:
        return f"no signing has degree {r}: the degree must be non-negative"
    k, odd = divmod(r - rho, 2)
    need = f"{r - rho}/2, which is not an integer" if odd else f"{k}, outside 0..{r}"
    return (f"no signing has degree {r} and net-degree {rho}: "
            f"the negative subgraph would need degree {need}")


def feasible_param_sets(q: ParamQuery) -> list[FeasibleSet]:
    """All parameter rows compatible with the query.

    Rows come in (n, a, b, c) order with the n-free family rows last.
    Every concrete row satisfies regularity.eq3_holds exactly.

    That order needs no sort of the rows.  Each row is appended to the
    bucket of its n, made at its first row (family rows go to a list of
    their own), and the buckets are joined in increasing n.  Within a
    bucket the rows follow the scan,
    which takes a and b in ascending order, and each (n, a, b) gives at
    most one row: the n = r+1 bucket holds only complete rows, as the c
    loop starts at n = r+2; when twice == 0 the family branch adds one
    c = 0 row per n and skips the c loop; otherwise c = twice / (2(n-r-1))
    is unique.  So no two rows of a bucket tie on (a, b), and the order is
    the sorted one.  The c loop visits only d = n-r-1 in
    |twice/2| / r <= d <= |twice/2|, and its admitted divisors are listed
    once per value of twice/2, which many (a, b) share.  So the cost grows
    with n_max only through the rows of a c = 0 family, one per admitted n,
    and the admitted n are listed only when such a family exists.
    """
    r, rho = q.r, q.rho
    if negative_degree(r, rho) is None:
        raise VacuousQuery(_vacuous_reason(r, rho))
    n_max = q.n_max if q.n_max is not None else 2 * r + 5
    n_min = q.n_min if q.n_min is not None else r + 1
    n_min = max(n_min, r + 1)
    if n_max < n_min:
        raise EmptyRange(f"empty vertex-count range {n_min}..{n_max}")
    if q.div_n is not None and q.div_n < 1:
        raise EmptyRange(f"vertex counts divisible by {q.div_n}: the divisor must be at least 1")

    a_lo = q.a_min if q.a_min is not None else -(r - 1)
    a_hi = q.a_max if q.a_max is not None else r - 1
    a_range = range(max(a_lo, -(r - 1)), min(a_hi, r - 1) + 1)
    b_range = [q.fix_b] if q.fix_b is not None else list(range(-(r - 1), r))
    if q.fix_b is not None and abs(q.fix_b) > r - 1:
        b_range = []

    def admitted(n):
        return n >= n_min and not (q.even_n and n % 2) and not (q.div_n is not None and n % q.div_n)

    complete = admitted(r + 1)
    # per half, the d = n-r-1 with n admitted that divide half with |c| <= r
    divisors: dict[int, list[int]] = {}

    # rows are plain tuples in field order; tuple.__new__ skips the keyword constructor
    new = tuple.__new__
    # one bucket per n that has a row
    buckets: defaultdict[int, list[FeasibleSet]] = defaultdict(list)
    family_appends = None
    families: list[FeasibleSet] = []
    # eq. (3) with c moved to one side, 2c(n-r-1) == twice; the rest does not
    # involve n, and twice is even, as r - rho and so r + rho are
    (ka, kb, _), rhs = _eq3_terms(r + 1, r, rho)
    for a in a_range:
        for b in b_range:
            twice = rhs - ka * a - kb * b
            if twice == 0:
                # n = r+1: the c term vanishes, c is vacuous (complete graph)
                if complete:
                    buckets[r + 1].append(new(FeasibleSet, (r + 1, r, a, b, None, True)))
                # c = 0: n drops out of the identity, so this is an n-free family
                families.append(new(FeasibleSet, (None, r, a, b, 0, False)))
                if family_appends is None:
                    family_appends = [
                        (n, buckets[n].append)
                        for n in range(max(n_min, r + 2), n_max + 1) if admitted(n)
                    ]
                for n, append in family_appends:
                    append(new(FeasibleSet, (n, r, a, b, 0, False)))
                continue
            # c = half/d for d = n-r-1: d divides half, and |c| <= r needs d >= |half|/r
            half = twice // 2
            ds = divisors.get(half)
            if ds is None:
                ds = divisors[half] = [
                    d for d in range((abs(half) + r - 1) // r, min(abs(half), n_max - r - 1) + 1)
                    if not half % d and admitted(d + r + 1)
                ]
            for d in ds:
                buckets[d + r + 1].append(new(FeasibleSet, (d + r + 1, r, a, b, half // d, False)))
    rows = [row for n in sorted(buckets) for row in buckets[n]]
    rows += families
    return rows


def negation_dual(p: SrsgParams, rho: int) -> tuple[SrsgParams, int]:
    """Parameters and net-degree of the negation: a and b swap, rho flips."""
    return (SrsgParams(p.n, p.r, p.b, p.a, p.c), -rho)
