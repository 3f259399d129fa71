#!/usr/bin/env python3
"""Time canonical forms on a ladder of symmetric hosts.

The ladder is K_{m,m} for m = 6, 8, 10, 12, 16, 24, 32 and the m x m rook
graph for m = 4..8, all edges positive, up to n = 64.  For each graph one
JSON line is printed with n, the median seconds `canonical_form` took over
--repeat runs, and the search nodes and leaves one run visited.  Nodes and
leaves are counted from outside the package by wrapping `srsg.iso._refine`
(one call per search node) and `srsg.iso._encode` (one call per leaf); they
are the same on every run.  A run that reaches the per-graph limit is
reported with "timeout": true, its seconds and the counts it reached, the
graph gets no further runs, the ladder goes on, and the script exits 1.

    python3 scripts/canon_ladder.py [--limit SECONDS] [--repeat N]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import srsg.iso as iso
from srsg.core import all_positive, ugraph_from_edges


def kmm(m: int):
    return ugraph_from_edges(2 * m, [(i, m + j) for i in range(m) for j in range(m)])


def rook(m: int):
    return ugraph_from_edges(
        m * m,
        [(u, v) for u in range(m * m) for v in range(u + 1, m * m)
         if u // m == v // m or u % m == v % m],
    )


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=120, help="seconds allowed per run")
    ap.add_argument("--repeat", type=int, default=1, help="runs per graph; seconds is their median")
    args = ap.parse_args()
    if args.limit < 1:
        ap.error("--limit must be at least 1")
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    counts = {"nodes": 0, "leaves": 0}

    def counted(fn, key):
        def wrapper(*a):
            counts[key] += 1
            return fn(*a)
        return wrapper

    iso._refine = counted(iso._refine, "nodes")
    iso._encode = counted(iso._encode, "leaves")
    signal.signal(signal.SIGALRM, _alarm)

    ladder = [(f"K{m},{m}", kmm(m)) for m in (6, 8, 10, 12, 16, 24, 32)]
    ladder += [(f"rook{m}", rook(m)) for m in range(4, 9)]
    status = 0
    for name, u in ladder:
        g = all_positive(u)
        seconds = []
        timed_out = False
        while len(seconds) < args.repeat and not timed_out:
            counts["nodes"] = counts["leaves"] = 0
            t0 = time.perf_counter()
            signal.alarm(args.limit)
            try:
                iso.canonical_form(g)
            except _Timeout:
                timed_out = True
            finally:
                signal.alarm(0)
            seconds.append(time.perf_counter() - t0)
        # a timed-out run reports its own time, not a median with finished ones
        took = seconds[-1] if timed_out else statistics.median(seconds)
        row = {"graph": name, "n": g.n, "seconds": round(took, 3), **counts}
        if timed_out:
            row["timeout"] = True
            status = 1
        print(json.dumps(row), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
