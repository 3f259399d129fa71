#!/usr/bin/env python3
"""Write perfbench/reference.json: every task's normalised output at seed 0.

    python3 perfbench/make_reference.py

The outputs are canonical, so every seed must reproduce them.  The file pins
what the program returns; regenerate it only in a change that is meant to
alter the program's output, and say so in that change.
"""

import json
import os
import sys

import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    import inputs
    import workloads

    input_dir = inputs.prepare(run.ROOT, os.path.join(run.RESULTS, "inputs"), 0)
    reference = {}
    for name in ("verify-d6", "sweep-d6", "toolkit-mix"):
        wl = workloads.make(name, input_dir, 0)
        it = run.Iteration(wl, traced=False)
        if it.failed:
            print(json.dumps(it.failed, indent=1), file=sys.stderr)
            return 1
        reference[wl.reference] = {t.key: wl.output(t, it.results[t.key]) for t in wl.tasks}
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
