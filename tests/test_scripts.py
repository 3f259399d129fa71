import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import SWEEP, sweep_stats

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPTS = os.path.join(ROOT, "scripts")


def test_dfs_ladder_counts_the_tree_search_walks():
    """Each line of scripts/dfs_ladder.py has the nodes and leaves that
    search_catalog reports for the same sweep, and a positive rate exactly
    when the search walked nodes (order9 at rho=0 needs no DFS)."""
    out = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "dfs_ladder.py"), "--repeat", "1"],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(row["hosts"], row["rho"]) for row in rows] == list(SWEEP)
    for row, stats in zip(rows, sweep_stats()):
        assert (row["nodes"], row["leaves"]) == (stats.nodes, stats.leaves), row
        assert (row["nodes_per_s"] > 0) == (row["nodes"] > 0), row
    assert rows[3]["nodes"] == 0


def test_canon_ladder_repeats_and_counts():
    """scripts/canon_ladder.py reports one line per ladder graph, with the
    same counts at every --repeat: the twin transpositions take K32,32 in
    125 nodes and 2 leaves, and rook m x m keeps its node counts."""
    out = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "canon_ladder.py"), "--limit", "20", "--repeat", "2"],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = {row["graph"]: row for row in map(json.loads, out.splitlines())}
    assert len(rows) == 12 and not any("timeout" in row for row in rows.values())
    assert (rows["K32,32"]["nodes"], rows["K32,32"]["leaves"]) == (125, 2)
    assert [rows[f"rook{m}"]["nodes"] for m in range(4, 9)] == [15, 21, 28, 36, 45]


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_canon_ladder_refuses_a_limit_below_one(limit):
    """--limit 0 would switch the per-graph alarm off and --limit -1 was
    accepted as is; both are usage errors, as --repeat 0 is."""
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "canon_ladder.py"), "--limit", limit],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and not proc.stdout
    assert "--limit must be at least 1" in proc.stderr


def test_bench_writes_spread_counters_and_deltas(tmp_path):
    """scripts/bench.py at a tiny size, run in a copy of the checkout, since
    perfbench writes its results beside itself: the keys of the bench file,
    its counters against search_catalog's, and its deltas against the newest
    earlier bench file."""
    for name in ("src", "fixtures", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), tmp_path / name,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    (tmp_path / "scripts").mkdir()
    shutil.copy(os.path.join(SCRIPTS, "bench.py"), tmp_path / "scripts")
    earlier = {"workloads": {"sweep-d6-j2": {"end_to_end": {"wall_s": {"median": 1.0}},
                                             "counters": {"search.nodes": 1}}}}
    (tmp_path / "BENCH_1.json").write_text(json.dumps(earlier))
    (tmp_path / "BENCH_3.json").write_text("{}")  # numbered above the new file: not its baseline
    out = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "bench.py"), "--out", str(tmp_path / "BENCH_2.json"),
         "--workloads", "sweep-d6-j2", "--seeds", "0", "--seconds", "0.2", "--trace-seconds", "0.2"],
        capture_output=True, text=True, check=True,
    ).stdout
    bench = json.loads((tmp_path / "BENCH_2.json").read_text())
    assert set(bench) == {"host", "seeds", "seconds", "trace_seconds", "workloads", "baseline", "deltas"}
    assert set(bench["host"]) == {"nproc", "python"}
    wl = bench["workloads"]["sweep-d6-j2"]
    assert [run["seed"] for run in wl["runs"]] == [0] and wl["runs"][0]["correct"] and wl["traced_correct"]
    assert set(wl["end_to_end"]) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    for s in wl["end_to_end"].values():
        assert s["q1"] == s["median"] == s["q3"]  # one seed
    stats = sweep_stats()
    nodes = sum(s.nodes for s in stats)
    assert wl["counters"]["search.nodes"] == nodes
    assert wl["counters"]["search.leaves"] == sum(s.leaves for s in stats)
    assert wl["counters"]["search.pruned_pair"] == sum(s.pruned_pair for s in stats)
    assert bench["baseline"] == "BENCH_1.json"
    assert set(bench["deltas"]["sweep-d6-j2"]) == {"wall_s", "search.nodes"}
    assert bench["deltas"]["sweep-d6-j2"]["search.nodes"] == {"before": 1, "after": nodes, "change": nodes - 1}
    assert "delta vs BENCH_1.json: sweep-d6-j2 search.nodes: 1 -> " in out
