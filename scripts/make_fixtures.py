#!/usr/bin/env python3
"""Regenerate the graph6 fixture files under fixtures/.

The connected 6-regular graphs of order 8, 9, 10 are produced by
complementing the (n-7)-regular graphs of the same order:

* order 8: the complement of a perfect matching (one graph);
* order 9: complements of the 2-regular graphs, i.e. of the cycle
  partitions 9, 3+6, 4+5, 3+3+3 (four graphs);
* order 10: complements of the cubic graphs on 10 vertices.  Cubic graphs
  are enumerated by backtracking with two levels of symmetry fixing
  (N(0) = {1,2,3}, and N(1) in one of three representative shapes), then
  deduplicated by canonical form.  Every 6-regular graph on at most 13
  vertices is connected, so no connectivity filtering is needed.

Counts are asserted (1 / 4 / 21) before anything is written.  Each file
holds canonical representatives sorted by their graph6 line.  The targeted
underlying graphs used by verify-classification are exported verbatim from
the built-in catalog into fixtures/targets/.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from srsg.catalog import build_underlying, underlying_names
from srsg.core import UGraph, all_positive, ugraph_from_edges
from srsg.iso import canonical_form, decode_canonical
from srsg.search import _search_raw
from srsg.sgio import emit_graph6, write_graph6_file

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def canonical_ugraph(g: UGraph) -> UGraph:
    return decode_canonical(canonical_form(all_positive(g))).underlying()


def complement(g: UGraph) -> UGraph:
    full = (1 << g.n) - 1
    return UGraph(g.n, tuple((full & ~g.nbr[v]) & ~(1 << v) for v in range(g.n)))


def cycles_union(*lens) -> UGraph:
    edges, base = [], 0
    for L in lens:
        for i in range(L):
            edges.append((base + i, base + (i + 1) % L))
        base += L
    return ugraph_from_edges(base, edges)


def order8() -> list[UGraph]:
    matching = ugraph_from_edges(8, [(i, i + 4) for i in range(4)])
    return [canonical_ugraph(complement(matching))]


def order9() -> list[UGraph]:
    twos = [cycles_union(9), cycles_union(3, 6), cycles_union(4, 5), cycles_union(3, 3, 3)]
    return [canonical_ugraph(complement(g)) for g in twos]


def cubic10_classes() -> list[UGraph]:
    """All cubic graphs on 10 vertices up to isomorphism.

    Any cubic graph can be relabelled so that N(0) = {1,2,3} and N(1) is one
    of {0,2,3}, {0,2,4}, {0,4,5} (both remaining neighbours inside {2,3},
    exactly one inside, or none; the stabilizer of the N(0) choice moves any
    such configuration to the representative).  The three hosts below force
    those neighbourhoods; the union covers every class, duplicates fall to
    the canonical-form dedupe.
    """
    n = 10

    def host(n1_allowed):
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if u == 0 and v not in (1, 2, 3):
                    continue
                if u == 1 and v not in n1_allowed:
                    continue
                edges.append((u, v))
        return ugraph_from_edges(n, edges)

    hosts = [host({2, 3}), host({2, 4}), host({4, 5})]
    seen: dict[bytes, UGraph] = {}
    for h in hosts:
        # the hosts are not regular, so this calls the search's DFS core
        # directly rather than enumerate_negative_subgraphs
        for _, neg in _search_raw(h.nbr, 3):
            g = UGraph(n, neg)
            key = canonical_form(all_positive(g))
            if key not in seen:
                seen[key] = decode_canonical(key).underlying()
    return list(seen.values())


def order10() -> list[UGraph]:
    return [canonical_ugraph(complement(g)) for g in cubic10_classes()]


def main() -> None:
    os.makedirs(FIXTURES, exist_ok=True)
    os.makedirs(os.path.join(FIXTURES, "targets"), exist_ok=True)

    t0 = time.perf_counter()
    batches = {"6reg_order8.g6": order8(), "6reg_order9.g6": order9(), "6reg_order10.g6": order10()}
    expected = {"6reg_order8.g6": 1, "6reg_order9.g6": 4, "6reg_order10.g6": 21}
    for fname, graphs in batches.items():
        assert len(graphs) == expected[fname], (fname, len(graphs))
        for g in graphs:
            assert g.is_regular() and g.degree(0) == 6 and g.is_connected(), fname
        assert len({emit_graph6(g) for g in graphs}) == len(graphs)
        lines = sorted(emit_graph6(g) for g in graphs)
        path = os.path.join(FIXTURES, fname)
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(line + "\n" for line in lines)
        print(f"wrote {path} ({len(graphs)} graphs)")

    target_files = {
        "G8": "g8.g6",
        "G9": "g9.g6",
        "K333": "k333.g6",
        "K66": "k66.g6",
        "GQ22": "gq22.g6",
        "Paley13": "paley13.g6",
        "S2_12_underlying": "s2_12u.g6",
        "S3_12_underlying": "s3_12u.g6",
        "S1_15_underlying": "s1_15u.g6",
        "S16_underlying": "s16u.g6",
    }
    assert set(target_files) == set(underlying_names())
    for name, fname in target_files.items():
        path = os.path.join(FIXTURES, "targets", fname)
        write_graph6_file(path, [build_underlying(name)])
        print(f"wrote {path}")
    print(f"done in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
