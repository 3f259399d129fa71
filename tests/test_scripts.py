import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from conftest import SWEEP, kmm, sweep_stats
from srsg.search import SearchConfig, search_srsg

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPTS = os.path.join(ROOT, "scripts")
FIXTURES = os.path.join(ROOT, "fixtures")


def _tree(top):
    """{path relative to top: bytes} for every file below top."""
    return {str(path.relative_to(top)): path.read_bytes() for path in pathlib.Path(top).rglob("*") if path.is_file()}


def test_make_fixtures_regenerates_the_fixtures_byte_for_byte(tmp_path, monkeypatch):
    """scripts/make_fixtures.py, run into an empty directory, writes the same
    set of files as fixtures/ holds, each with the same bytes; one changed
    byte in a copy of fixtures/ is told apart."""
    spec = importlib.util.spec_from_file_location("make_fixtures", os.path.join(SCRIPTS, "make_fixtures.py"))
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "FIXTURES", str(tmp_path / "out"))
    make_fixtures.main()
    assert _tree(tmp_path / "out") == _tree(FIXTURES)
    mutant = tmp_path / "mutant"
    shutil.copytree(FIXTURES, mutant)
    data = bytearray((mutant / "6reg_order10.g6").read_bytes())
    data[1] ^= 1
    (mutant / "6reg_order10.g6").write_bytes(bytes(data))
    assert _tree(mutant) != _tree(FIXTURES)


def test_make_fixtures_checks_every_batch_under_python_o_before_writing(tmp_path):
    """Under python -O, where asserts vanish, an order-10 batch one class
    short stops the script with exit 1 and a message naming the file and
    both counts, before any file, order 8's included, is written."""
    out = tmp_path / "out"
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('make_fixtures', sys.argv[1])\n"
        "m = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(m)\n"
        "six_regular = m.six_regular\n"
        "m.six_regular = lambda n: six_regular(n)[:-1] if n == 10 else six_regular(n)\n"
        "m.FIXTURES = sys.argv[2]\n"
        "m.main()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, os.path.join(SCRIPTS, "make_fixtures.py"), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and not proc.stdout
    assert "6reg_order10.g6 would hold 20 graphs, expected 21" in proc.stderr
    assert not out.exists()


def test_dfs_ladder_counts_the_tree_search_walks():
    """The first six lines of scripts/dfs_ladder.py have the nodes and leaves
    that search_catalog reports for the same sweep, and a positive rate
    exactly when the search walked nodes (order9 at rho=0 needs no DFS).  The
    seventh is K8,8 at rho=2 with dedupe "none", with the counters that
    search_srsg reports for it: 37,247 nodes, no leaf."""
    out = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "dfs_ladder.py"), "--repeat", "1"],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(row["hosts"], row["rho"]) for row in rows[:6]] == list(SWEEP)
    for row, stats in zip(rows, sweep_stats()):
        assert (row["nodes"], row["leaves"]) == (stats.nodes, stats.leaves), row
    for row in rows:
        assert (row["nodes_per_s"] > 0) == (row["nodes"] > 0), row
    assert rows[3]["nodes"] == 0
    assert len(rows) == 7 and (rows[6]["hosts"], rows[6]["rho"], rows[6]["dedupe"]) == ("K8,8", 2, "none")
    stats = search_srsg(kmm(8), SearchConfig(rho=2, dedupe="none")).stats
    counters = ("nodes", "leaves", "pruned_degree", "pruned_pair")
    assert [rows[6][name] for name in counters] == [getattr(stats, name) for name in counters]
    assert (stats.nodes, stats.leaves, stats.pruned_pair) == (37247, 0, 35966)


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


@pytest.mark.parametrize("flag", ["--seconds", "--trace-seconds"])
def test_bench_refuses_a_duration_of_zero(tmp_path, flag):
    """--seconds 0 once fell back to the 50 s default and --trace-seconds 0
    was refused by perfbench only after every untraced run; both are usage
    errors now, refused before any perfbench run.  The bench script runs in
    a copy whose perfbench/run.py only leaves a mark."""
    (tmp_path / "scripts").mkdir()
    (tmp_path / "perfbench").mkdir()
    shutil.copy(os.path.join(SCRIPTS, "bench.py"), tmp_path / "scripts")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    mark = tmp_path / "ran"
    (tmp_path / "perfbench" / "run.py").write_text(f"open({str(mark)!r}, 'w').close()\n")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "bench.py"), "--out", str(tmp_path / "BENCH_1.json"), flag, "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and not proc.stdout
    assert f"{flag} must be positive" in proc.stderr
    assert not mark.exists() and not (tmp_path / "BENCH_1.json").exists()


def test_bench_writes_spread_counters_and_deltas(tmp_path):
    """scripts/bench.py at a tiny size, run in a copy of the checkout, since
    perfbench writes its results beside itself: the keys of the bench file,
    its counters against search_catalog's, the traced run's other per-layer
    metrics, and its deltas against the newest earlier bench file."""
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
    assert "search.nodes" not in wl["layers"] and wl["layers"]["search.parallel_speedup"] > 0
    assert bench["baseline"] == "BENCH_1.json"
    assert set(bench["deltas"]["sweep-d6-j2"]) == {"wall_s", "search.nodes"}
    assert bench["deltas"]["sweep-d6-j2"]["search.nodes"] == {"before": 1, "after": nodes, "change": nodes - 1}
    assert "delta vs BENCH_1.json: sweep-d6-j2 search.nodes: 1 -> " in out
