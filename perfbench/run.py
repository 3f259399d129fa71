#!/usr/bin/env python3
"""srsg benchmark: one workload per run, closed loop, one JSON result line.

    python3 perfbench/run.py --workload verify-d6 --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout that holds src/, fixtures/ and
BENCHMARK.json.  `--trace 0` reports the end-to-end metrics of
BENCHMARK.json from untraced iterations; `--trace 1` alternates untraced and
traced iterations and reports its per-layer metrics.  A report with the host,
samples, problems and spans is written under perfbench/results/.  See
perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from time import perf_counter

from tracing import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 11

# counters that must repeat exactly between iterations and runs of one seed
EXACT_COUNTS = (
    "search.nodes",
    "search.leaves",
    "search.pruned_degree",
    "search.pruned_pair",
    "iso.canonical_form_calls",
    "regularity.extract_params_calls",
    "params.rows",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def host_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cpu": cpu,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    """Hash of the program and benchmark sources, so counters are compared only
    between runs of the same code, whether committed or not."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "srsg"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("results", "__pycache__"))
            for f in sorted(filenames):
                if f.endswith((".py", ".json")):
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read() + b"\0")
    return h.hexdigest()[:16]


def probe_setup(input_dir: str) -> dict:
    """Set-up timings from one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), SRC, input_dir],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _live_children(pid: int) -> list[int]:
    """Every live descendant of pid, from /proc/<pid>/task/*/children."""
    out = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                kids = [int(k) for k in fh.read().split()]
        except OSError:
            continue
        for kid in kids:
            out += [kid] + _live_children(kid)
    return out


def _proc_cpu(pid: int) -> float:
    """CPU time of a live process and of the children it has reaped."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:  # ended since it was listed
        return 0.0
    return sum(int(f) for f in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """CPU time of this process, of every child it has waited for and of its
    live descendants, so pool workers count whether or not they are reaped
    within the iteration."""
    t = os.times()
    return (time.process_time() + t.children_user + t.children_system
            + sum(_proc_cpu(pid) for pid in _live_children(os.getpid())))


class Iteration:
    """One closed-loop pass over a workload's tasks, timed from outside."""

    def __init__(self, wl, traced: bool, part: int = 0):
        tracer = Tracer() if traced else NullTracer()
        self.part = part  # the input set it ran on
        self.results: dict = {}
        self.failed: dict[str, list[str]] = {}
        if traced:
            wl.install(tracer)
        try:
            c0, t0 = cpu_seconds(), perf_counter()
            for task in wl.tasks:
                try:
                    self.results[task.key] = tracer.call(task.span, task.fn, *task.args, keep=task.keep)
                except Exception:
                    self.failed[task.key] = ["raised:\n" + traceback.format_exc()]
            self.wall = perf_counter() - t0
            self.cpu = cpu_seconds() - c0
        finally:
            if traced:
                tracer.restore()
        self.summary = tracer.summary() if traced else None
        self.spans = tracer.dump() if traced else []
        self.counts = wl.counts(self.results, self.summary)


def check(wl, reference: dict, it: Iteration) -> None:
    """Record in it.failed every task whose output misses the reference or an oracle."""
    for task in wl.tasks:
        if task.key not in it.results:
            continue
        result = it.results[task.key]
        got = wl.output(task, result)
        why = wl.problems(task, result)
        if task.key not in reference:
            why.append("no reference output")
        elif got != reference[task.key]:
            why.append(f"output differs from the reference: {str(got)[:200]}")
        if why:
            it.failed.setdefault(task.key, []).extend(why)


def layer_metrics(summary: dict | None, counts: dict | None, setup: list[dict]) -> dict:
    """Per-layer metrics of one iteration: timings from its span summary, search
    counters from the reports the workload got back."""
    summary = summary or {}
    counts = counts or {}

    def s(name, field="total_s"):
        return summary.get(name, {}).get(field, 0)

    m: dict[str, float] = {"search.dfs_s": s("search.search_srsg", "self_s")}
    for k in ("nodes", "leaves", "pruned_degree", "pruned_pair"):
        m[f"search.{k}"] = counts.get(k, 0)
    m["search.nodes_per_s"] = m["search.nodes"] / m["search.dfs_s"] if m["search.dfs_s"] else 0.0
    m["search.leaf_yield"] = counts.get("raw_hits", 0) / counts["leaves"] if counts.get("leaves") else 0.0

    canon = [v for k, v in summary.items() if k.startswith("iso.canonical_form")]
    durations = sorted(d for v in canon for d in v["durations"])
    m["iso.canonical_form_calls"] = sum(v["calls"] for v in canon)
    m["iso.canonical_form_s"] = sum(v["total_s"] for v in canon)
    # every class a dedupe returns is decoded once, per host and per catalog
    classes = s("iso.decode_canonical", "calls")
    m["iso.calls_per_class"] = s("iso.canonical_form@search", "calls") / classes if classes else 0.0
    m["iso.canon_ms_p50"] = 1e3 * statistics.median(durations) if durations else 0.0
    m["iso.canon_ms_max"] = 1e3 * durations[-1] if durations else 0.0
    for name in ("iso.are_isomorphic", "iso.automorphism_count", "iso.decode_canonical",
                 "regularity.extract_params", "regularity.classify", "regularity.char_poly",
                 "sgio.roundtrip", "params.feasible_param_sets"):
        m[f"{name}_s"] = s(name)
    m["regularity.extract_params_calls"] = s("regularity.extract_params", "calls")
    m["params.rows"] = sum(summary.get("params.feasible_param_sets", {}).get("kept", []))
    for name in ("sgio.read_graph6_s", "sgio.graphs_read", "catalog.build_s", "verify.class_labels_s"):
        m[name] = statistics.median(p[name] for p in setup)
    return m


def repeat_exactly(samples: list[dict], path: str) -> list[str]:
    """Problems where a counter differs between samples or from the value an
    earlier run of the same sources wrote to path."""
    earlier = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
    merged = dict(earlier)
    problems = []
    for sample in samples:
        for k, v in sample.items():
            if merged.setdefault(k, v) != v:
                where = "an earlier run" if k in earlier else "another iteration or worker count"
                problems.append(f"counter {k} = {v}, but {merged[k]} in {where} of this seed")
    if merged != earlier:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
    return problems


def median_metrics(samples: list[tuple[int, dict]]) -> dict:
    """Per-key medians over (input set, metrics) samples.  A count is exact
    for its input set, so it is the low median over the sets, which does not
    depend on how many iterations each set got."""
    out = {}
    for k in samples[0][1]:
        values = [m[k] for _, m in samples]
        if all(isinstance(v, int) for v in values):
            out[k] = statistics.median_low({part: m[k] for part, m in samples}.values())
        else:
            out[k] = statistics.median(values)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    needed = (os.path.join(SRC, "srsg", "__init__.py"), os.path.join(ROOT, "fixtures"), bench_file)
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"error: not an srsg checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import inputs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(bench_file, encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    n_sets = workloads.input_sets(args.workload, args.seed)
    input_dirs = [inputs.prepare(ROOT, os.path.join(RESULTS, "inputs"), args.seed, k) for k in range(n_sets)]
    wls = [workloads.make(args.workload, d, args.seed) for d in input_dirs]
    wl = wls[0]
    # a sweep also runs at the other worker count: for the jobs-invariance
    # gate, the speed-up and, at jobs=1, the traced iterations
    twins = None
    if isinstance(wl, workloads.Sweep):
        twins = [workloads.make("sweep-d6" if wl.jobs > 1 else "sweep-d6-j2", d, args.seed) for d in input_dirs]

    problems: list[str] = []
    tally = {"attempted": 0, "failed": 0}

    def run(w, traced: bool, part: int) -> Iteration:
        it = Iteration(w, traced, part)
        check(w, reference[w.reference], it)
        it.results = None  # keep peak memory independent of the iteration count
        tally["attempted"] += len(w.tasks)
        tally["failed"] += len(it.failed)
        problems.extend(f"{w.name} {key}: {'; '.join(why)}" for key, why in it.failed.items())
        return it

    # the legs of one round, run in turn on input set r mod n_sets until the
    # time is up; pool workers do not report spans back, so sweeps are traced
    # at jobs=1
    if not args.trace:
        legs = {"plain": (wls, False)}
    elif twins is None:
        legs = {"plain": (wls, False), "traced": (wls, True)}
    else:
        legs = {"plain": (wls, False), "twin": (twins, False), "traced": (wls if wl.jobs == 1 else twins, True)}
    its: dict[str, list[Iteration]] = {label: [] for label in legs}
    # set-up probes run between rounds, spread evenly over the run, so that
    # they meet the same host speed as the iterations they are compared with
    setup = [probe_setup(input_dirs[0])]
    t_start = perf_counter()
    for r in itertools.count():
        t_round = perf_counter()
        for label, (ws, traced) in legs.items():
            its[label].append(run(ws[r % n_sets], traced, r % n_sets))
        while len(setup) < min(SETUP_PROBES, SETUP_PROBES * (perf_counter() - t_start) / args.seconds):
            setup.append(probe_setup(input_dirs[0]))
        now = perf_counter()
        if now - t_start + (now - t_round) > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(input_dirs[0]))

    # peak memory of the timed workload, read before an untimed twin pass;
    # the probes are reaped children too, so pool workers count only above them
    children_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 children_rss_kb if children_rss_kb > max(p["rss_kb"] for p in setup) else 0)
    if twins is not None and "twin" not in legs:
        its["twin"] = [run(w, False, k) for k, w in enumerate(twins)]

    plain, traced, twin_its = its["plain"], its.get("traced", []), its.get("twin", [])
    layer = [(it.part, layer_metrics(it.summary, it.counts, setup)) for it in traced]
    # exact counters must agree, per input set, between iterations and worker
    # counts, and with earlier runs of this seed on the same sources
    exact = [{f"set{part}.{k}": m[k] for k in EXACT_COUNTS} for part, m in layer]
    exact += [{f"set{it.part}.search.{k}": v for k, v in it.counts.items()}
              for it in plain + twin_its if it.counts is not None]
    digest = source_digest()
    counts_file = os.path.join(RESULTS, f"counts-{wl.reference}-seed{args.seed}-{digest}.json")
    problems += repeat_exactly(exact, counts_file)

    def wall(group):
        return statistics.median(it.wall for it in group)

    values = {
        "wall_s": wall(plain),
        "cpu_s": statistics.median(it.cpu for it in plain),
        "setup_s": statistics.median(p["setup_s"] for p in setup),
        "peak_rss_mb": rss_kb / 1024,
    }
    if args.trace:
        values.update(median_metrics(layer))
        j1 = plain
        values["search.parallel_speedup"] = 0.0
        if twins is not None:
            j1, j2 = (plain, twin_its) if wl.jobs == 1 else (twin_its, plain)
            values["search.parallel_speedup"] = wall(j1) / wall(j2)
        values["trace.overhead_s"] = wall(traced) - wall(j1)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = tally["attempted"], tally["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "source_digest": digest,
        "input_sets": n_sets,
        "samples": {label: len(v) for label, v in its.items()},
        "parts": {label: [it.part for it in v] for label, v in its.items()},
        "wall_s": {label: [it.wall for it in v] for label, v in its.items()},
        "cpu_s": {label: [it.cpu for it in v] for label, v in its.items()},
        "setup_probes": setup,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "metrics": values,
        "spans": traced[-1].spans if traced else [],
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} samples={report['samples']} "
          f"failed={failed}/{attempted} report={os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
