#!/usr/bin/env python3
"""Time the signing DFS on the fixed degree-6 sweep hosts and one large tree.

The sweep is the six host-set searches the benchmark's sweep workloads
run: the 21 order-10 fixture hosts at rho = 0, 2, 4, the 4 order-9 hosts at
rho = 0, 2, and K8,8 at rho = 4.  Their 3,163 nodes are too few to show a
change to the DFS node step, so a seventh search follows: K8,8 at rho = 2
with dedupe "none", 37,247 nodes and no leaf, where the forward check
dominates.  Each search is the product's own,
`search_catalog(hosts, SearchConfig(...))` in one process (jobs = 1),
run once untimed so that the host orders are cached, then --repeat times.
The DFS is timed from outside the package by wrapping
`srsg.search._search_raw` on the module, so the tree timed is the one
`search_srsg` walks.  For each search one JSON line is printed with the
host set, rho, dedupe, the report's DFS counters (nodes, leaves,
pruned_degree, pruned_pair), the median DFS seconds over the repeats,
summed over the hosts, and the nodes per second at that median (0 for a
search that `search_srsg` answers without a DFS).

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

import srsg.search as search
from canon_ladder import kmm
from srsg.sgio import read_graph6_file

SWEEP = (("order10", 0), ("order10", 2), ("order10", 4), ("order9", 0), ("order9", 2), ("K8,8", 4))
LARGE = ("K8,8", 2, "none")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="timed runs per search (median reported)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    dfs_s = [0.0]
    dfs = search._search_raw

    def timed(*a, **kw):
        t0 = time.perf_counter()
        leaves = list(dfs(*a, **kw))
        dfs_s[0] += time.perf_counter() - t0
        return iter(leaves)

    search._search_raw = timed

    fixtures = os.path.join(ROOT, "fixtures")
    hosts = {
        "order10": read_graph6_file(os.path.join(fixtures, "6reg_order10.g6")),
        "order9": read_graph6_file(os.path.join(fixtures, "6reg_order9.g6")),
        "K8,8": [kmm(8)],
    }
    for name, rho, dedupe in [(name, rho, "iso") for name, rho in SWEEP] + [LARGE]:
        catalog = [(f"{name}[{i}]", u) for i, u in enumerate(hosts[name])]
        cfg = search.SearchConfig(rho=rho, dedupe=dedupe)
        search.search_catalog(catalog, cfg)
        times = []
        for _ in range(args.repeat):
            dfs_s[0] = 0.0
            rep = search.search_catalog(catalog, cfg)
            times.append(dfs_s[0])
        seconds = statistics.median(times)
        s = rep.stats
        row = {
            "hosts": name, "rho": rho, "dedupe": dedupe, "nodes": s.nodes, "leaves": s.leaves,
            "pruned_degree": s.pruned_degree, "pruned_pair": s.pruned_pair,
            "seconds": round(seconds, 3), "nodes_per_s": round(s.nodes / seconds) if s.nodes else 0,
        }
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
