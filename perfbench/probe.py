"""Set-up probe, run in a fresh interpreter: import srsg, read every graph6
input of one seed, build the catalog objects and label the catalog classes.

Usage: python3 perfbench/probe.py <src dir> <seed input dir>
Prints one JSON object of timings in seconds and the probe's peak RSS in KiB.
"""

import glob
import json
import os
import resource
import sys
from time import perf_counter


def main(src: str, input_dir: str) -> dict:
    sys.path.insert(0, src)
    t0 = perf_counter()
    from srsg import catalog
    from srsg.sgio import read_graph6_file
    from srsg.verify import class_labels

    t1 = perf_counter()
    files = glob.glob(os.path.join(input_dir, "*.g6")) + glob.glob(os.path.join(input_dir, "targets", "*.g6"))
    graphs_read = sum(len(read_graph6_file(f)) for f in sorted(files))
    t2 = perf_counter()
    for name in catalog.list_names():
        catalog.build(name)
    for name in catalog.underlying_names():
        catalog.build_underlying(name)
    t3 = perf_counter()
    class_labels()
    t4 = perf_counter()
    return {
        "setup_s": t4 - t0,
        "import_s": t1 - t0,
        "sgio.read_graph6_s": t2 - t1,
        "sgio.graphs_read": graphs_read,
        "catalog.build_s": t3 - t2,
        "verify.class_labels_s": t4 - t3,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2])))
