import json
import os
import subprocess
import sys

from conftest import FIXTURES, kmm
from srsg.search import SearchConfig, search_catalog
from srsg.sgio import read_graph6_file

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def test_dfs_ladder_counts_the_tree_search_walks():
    """Each line of scripts/dfs_ladder.py has the nodes and leaves that
    search_catalog reports for the same sweep."""
    out = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "dfs_ladder.py"), "--repeat", "1"],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    hosts = {
        name: [(f"{name}[{i}]", g) for i, g in enumerate(read_graph6_file(os.path.join(FIXTURES, f"6reg_{name}.g6")))]
        for name in ("order10", "order9")
    }
    hosts["K8,8"] = [("K8,8", kmm(8))]
    assert [(row["hosts"], row["rho"]) for row in rows] == [
        ("order10", 0), ("order10", 2), ("order10", 4), ("order9", 0), ("order9", 2), ("K8,8", 4),
    ]
    for row in rows:
        stats = search_catalog(hosts[row["hosts"]], SearchConfig(rho=row["rho"])).stats
        assert (row["nodes"], row["leaves"]) == (stats.nodes, stats.leaves), row
