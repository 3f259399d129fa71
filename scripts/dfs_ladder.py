#!/usr/bin/env python3
"""Time the signing DFS on the fixed degree-6 sweep hosts.

The sweep is the six host-set searches the benchmark's sweep workloads
run: the 21 order-10 fixture hosts at rho = 0, 2, 4, the 4 order-9 hosts at
rho = 0, 2, and K8,8 at rho = 4.  Each search runs the DFS alone, in one
process (jobs = 1), on the tree `search_srsg` walks under its default
dedupe "iso": each host relabelled into the order `search_srsg` searches
it in, the pair pruning it uses when no parameter filter is given, with
its look-ahead (the identity tie and the forward check, lookahead=True),
and one block choice per set of twin swaps (twins=True).  A search that
`search_srsg` answers without a DFS (an odd n * k) counts no node.  The
host orders are computed before the timed runs.  It consumes every leaf.
For each search one JSON line is printed with the host set, rho, the DFS
counters summed over its hosts (nodes, leaves, pruned_degree,
pruned_pair), the median seconds over the repeats and the nodes per second
at that median.

    python3 scripts/dfs_ladder.py [--repeat N]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from canon_ladder import kmm
from srsg.regularity import negative_degree
from srsg.search import _no_dfs_note, _search_order, _search_raw
from srsg.sgio import read_graph6_file

SWEEP = (("order10", 0), ("order10", 2), ("order10", 4), ("order9", 0), ("order9", 2), ("K8,8", 4))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="timed runs per search (median reported)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    fixtures = os.path.join(ROOT, "fixtures")
    hosts = {
        "order10": read_graph6_file(os.path.join(fixtures, "6reg_order10.g6")),
        "order9": read_graph6_file(os.path.join(fixtures, "6reg_order9.g6")),
        "K8,8": [kmm(8)],
    }
    rows = {name: [_search_order(u)[1] for u in us] for name, us in hosts.items()}
    for name, rho in SWEEP:
        times = []
        for _ in range(args.repeat):
            counters = [0, 0, 0, 0]
            t0 = time.perf_counter()
            for u, nbr in zip(hosts[name], rows[name]):
                k = negative_degree(u.degree(0), rho)
                if _no_dfs_note(u.n, k):
                    continue
                for _leaf in _search_raw(nbr, u.n, k, (None, None, None), None, counters, twins=True, lookahead=True):
                    pass
            times.append(time.perf_counter() - t0)
        seconds = statistics.median(times)
        nodes, leaves, pruned_degree, pruned_pair = counters
        row = {
            "hosts": name, "rho": rho, "nodes": nodes, "leaves": leaves,
            "pruned_degree": pruned_degree, "pruned_pair": pruned_pair,
            "seconds": round(seconds, 3), "nodes_per_s": round(nodes / seconds),
        }
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
