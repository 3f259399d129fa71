#!/usr/bin/env python3
"""Run the benchmark's workloads and write one bench file, BENCH_<n>.json.

For each workload and each seed, `perfbench/run.py --trace 0` is run once
for `--seconds`; the file holds every run's end-to-end metrics and, per
metric, the median and quartiles over the seeds.  One `--trace 1` run per
workload, at the first seed, gives the exact counters: the per-layer
metrics that BENCHMARK.json counts in unit "count" (search nodes, leaves,
prunes, canonical-form and extract_params calls, ...), and its other
per-layer metrics (layer seconds, rates and ratios such as
search.parallel_speedup), from that one run and so as noisy as the host
is; only the medians and the counters get deltas.  The file also
records nproc and the Python version.  The deltas of every median and
counter against the newest earlier BENCH_*.json in the same directory (the
one with the largest number below <n>) are stored and printed.

    python3 scripts/bench.py --out BENCH_<n>.json \\
        [--workloads sweep-d6-j2 toolkit-mix] [--seeds 1 2 3] \\
        [--seconds 50] [--trace-seconds 15]

The harness is perfbench/run.py; this script adds none of its own and
writes nothing under perfbench/ but the results run.py leaves there.
Exits 1 when a run reports a failed operation or a problem.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def perfbench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON line one perfbench run prints."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (equal to the median for a single value)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3}


def bench_number(path: str) -> int | None:
    m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
    return int(m.group(1)) if m else None


def previous_bench(out: str) -> str | None:
    """The newest BENCH_*.json beside out, numbered below out when out is."""
    limit = bench_number(out)
    found = []
    for path in glob.glob(os.path.join(os.path.dirname(os.path.abspath(out)), "BENCH_*.json")):
        n = bench_number(path)
        if n is not None and os.path.abspath(path) != os.path.abspath(out) and (limit is None or n < limit):
            found.append((n, path))
    return max(found)[1] if found else None


def deltas(before: dict, after: dict) -> dict:
    """{workload: {metric or counter: {before, after, change}}} over the
    workloads and names both files hold; change is relative to before."""
    out = {}
    for wl, now in after["workloads"].items():
        old = before.get("workloads", {}).get(wl)
        if old is None:
            continue
        pairs = {name: (old["end_to_end"][name]["median"], v["median"])
                 for name, v in now["end_to_end"].items() if name in old.get("end_to_end", {})}
        pairs.update({name: (old["counters"][name], v)
                      for name, v in now["counters"].items() if name in old.get("counters", {})})
        out[wl] = {name: {"before": a, "after": b, "change": (b - a) / a if a else None}
                   for name, (a, b) in pairs.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the bench file to write, BENCH_<n>.json")
    ap.add_argument("--workloads", nargs="+", default=None, help="default: those BENCHMARK.json lists")
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace-seconds", type=float, default=15.0)
    args = ap.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.trace_seconds <= 0:
        ap.error("--trace-seconds must be positive")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    counted = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    layered = [m["name"] for m in bench["per_layer"] if m["unit"] != "count"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    result = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "seeds": args.seeds,
        "seconds": seconds,
        "trace_seconds": args.trace_seconds,
        "workloads": {},
    }
    ok = True
    for wl in workloads:
        runs = []
        for seed in args.seeds:
            line = perfbench(wl, seed, seconds, 0)
            runs.append({"seed": seed, "correct": line["correct"], "attempted": line["attempted"],
                         "failed": line["failed"],
                         "metrics": {k: v["value"] for k, v in line["metrics"].items()}})
        traced = perfbench(wl, args.seeds[0], args.trace_seconds, 1)
        ok &= traced["correct"] and all(r["correct"] and not r["failed"] for r in runs)
        result["workloads"][wl] = {
            "runs": runs,
            "end_to_end": {name: {"unit": unit, **spread([r["metrics"][name] for r in runs])}
                           for name, unit in units.items()},
            "counters": {name: traced["metrics"][name]["value"] for name in counted},
            "layers": {name: traced["metrics"][name]["value"] for name in layered},
            "traced_correct": traced["correct"],
        }

    before = previous_bench(args.out)
    result["baseline"] = os.path.basename(before) if before else None
    result["deltas"] = {}
    if before:
        with open(before, encoding="utf-8") as fh:
            result["deltas"] = deltas(json.load(fh), result)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for wl, entry in result["workloads"].items():
        for name, s in entry["end_to_end"].items():
            print(f"{wl} {name}: median {s['median']:.4g} {s['unit']} (quartiles {s['q1']:.4g}-{s['q3']:.4g})")
        for name, v in entry["counters"].items():
            print(f"{wl} {name}: {v}")
        print(f"{wl} search.parallel_speedup (one traced run): {entry['layers']['search.parallel_speedup']:.3g}")
    for wl, changes in result["deltas"].items():
        for name, d in changes.items():
            change = "n/a" if d["change"] is None else f"{100 * d['change']:+.1f}%"
            print(f"delta vs {result['baseline']}: {wl} {name}: {d['before']:.6g} -> {d['after']:.6g} ({change})")
    if not ok:
        print("error: a run reported a failed operation or a problem", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
