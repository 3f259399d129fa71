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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyRange, VacuousQuery
from .regularity import SrsgParams


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


@dataclass(frozen=True)
class FeasibleSet:
    """One feasible row; n is None for an n-free family (c = 0)."""

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


def feasible_param_sets(q: ParamQuery) -> list[FeasibleSet]:
    """All parameter rows compatible with the query.

    Rows are sorted by (n, a, b, c) with n-free family rows last.  Every
    concrete row satisfies regularity.eq3_holds exactly.
    """
    r, rho = q.r, q.rho
    if (r - rho) % 2 != 0 or not 0 <= (r - rho) // 2 <= r:
        raise VacuousQuery(
            f"no signing has degree {r} and net-degree {rho}: "
            f"the negative subgraph would need degree {(r - rho) / 2}"
        )
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

    def n_ok(n: int) -> bool:
        if not n_min <= n <= n_max:
            return False
        if q.even_n and n % 2:
            return False
        if q.div_n is not None and n % q.div_n:
            return False
        return True

    rows: list[FeasibleSet] = []
    for a in a_range:
        for b in b_range:
            # eq3_doubled with c moved to one side: 2c(n-r-1) == twice
            twice = 2 * rho * rho + (b - a) * rho - (a + b) * r - 2 * r
            if twice == 0:
                # n = r+1: the c term vanishes, c is vacuous (complete graph)
                if n_ok(r + 1):
                    rows.append(FeasibleSet(r + 1, r, a, b, None, complete=True))
                # c = 0: n drops out of the identity, so this is an n-free family
                members = [n for n in range(r + 2, n_max + 1) if n_ok(n)]
                rows.append(FeasibleSet(None, r, a, b, 0))
                rows.extend(FeasibleSet(n, r, a, b, 0) for n in members)
                continue
            if twice % 2:
                continue
            for n in range(r + 2, n_max + 1):
                c, rest = divmod(twice // 2, n - r - 1)
                if not rest and abs(c) <= r and n_ok(n):
                    rows.append(FeasibleSet(n, r, a, b, c))

    big = n_max + 1

    def key(row: FeasibleSet):
        return (
            row.n if row.n is not None else big,
            row.a,
            row.b,
            row.c if row.c is not None else -(r + 1),
        )

    rows.sort(key=key)
    return rows


def negation_dual(p: SrsgParams, rho: int) -> tuple[SrsgParams, int]:
    """Parameters and net-degree of the negation: a and b swap, rho flips."""
    return (SrsgParams(p.n, p.r, p.b, p.a, p.c), -rho)
