#!/usr/bin/env python3
"""Regenerate the graph6 fixture files under fixtures/.

    python scripts/make_fixtures.py

The connected 6-regular graphs of order n = 8, 9, 10 (1, 4 and 21 graphs)
are the complements in K_n of the (n - 7)-factors of K_n.  six_regular(n)
walks srsg.search's block DFS on K_n at negative degree n - 7, degree
pruning only, with the twin cells on: all vertices of K_n are twins, and
the search module's docstring shows that the reduced tree still reaches
every isomorphism class.  A leaf's positive rows, the complement of its
negative rows, are a 6-regular graph; the leaves are deduplicated by
canonical form.  Every 6-regular graph on at most 13 vertices is connected.

Each batch's count, 6-regularity, connectivity and distinctness, and the
target names against the catalog's, are checked before any file is
written, by explicit checks that python -O keeps; a failed one exits 1
naming the file.  Each file holds canonical representatives sorted by
their graph6 line; fixtures/targets/ holds the catalog's targeted
underlying graphs, which verify-classification reads.
"""

from __future__ import annotations

import os
import sys
import time
from typing import NoReturn

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from srsg.catalog import build_underlying, underlying_names
from srsg.core import UGraph, all_positive
from srsg.iso import canonical_form, decode_canonical
from srsg.search import _search_raw
from srsg.sgio import emit_graph6

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
COUNTS = {8: 1, 9: 4, 10: 21}
TARGETS = {
    "G8": "g8.g6", "G9": "g9.g6", "K333": "k333.g6", "K66": "k66.g6", "GQ22": "gq22.g6",
    "Paley13": "paley13.g6", "S2_12_underlying": "s2_12u.g6", "S3_12_underlying": "s3_12u.g6",
    "S1_15_underlying": "s1_15u.g6", "S16_underlying": "s16u.g6",
}


def six_regular(n: int) -> list[UGraph]:
    """The 6-regular graphs of order n up to isomorphism, as decoded
    canonical forms: the positive rows of the twin-reduced DFS's leaves on
    K_n at negative degree n - 7."""
    kn = tuple(((1 << n) - 1) ^ (1 << v) for v in range(n))
    keys = {canonical_form(all_positive(UGraph(n, pos))) for pos, _ in _search_raw(kn, n - 7, twins=True)}
    return [decode_canonical(key).underlying() for key in keys]


def refuse(problem: str) -> NoReturn:
    sys.exit(f"make_fixtures: {problem}; nothing written")


def main() -> None:
    t0 = time.perf_counter()
    files = {}
    for n, want in COUNTS.items():
        fname = f"6reg_order{n}.g6"
        graphs = six_regular(n)
        lines = sorted(emit_graph6(g) for g in graphs)
        if len(graphs) != want:
            refuse(f"{fname} would hold {len(graphs)} graphs, expected {want}")
        if not all(g.is_regular() and g.degree(0) == 6 and g.is_connected() for g in graphs):
            refuse(f"{fname} would hold a graph that is not connected and 6-regular")
        if len(set(lines)) != len(lines):
            refuse(f"{fname} would hold a graph twice")
        files[fname] = lines
    if set(TARGETS) != set(underlying_names()):
        refuse(f"targets/ names {sorted(TARGETS)}, the catalog {sorted(underlying_names())}")
    for name, fname in TARGETS.items():
        files[os.path.join("targets", fname)] = [emit_graph6(build_underlying(name))]

    os.makedirs(os.path.join(FIXTURES, "targets"), exist_ok=True)
    for fname, lines in files.items():
        path = os.path.join(FIXTURES, fname)
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(line + "\n" for line in lines)
        print(f"wrote {path} ({len(lines)} graphs)")
    print(f"done in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
