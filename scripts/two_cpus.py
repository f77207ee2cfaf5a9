#!/usr/bin/env python3
"""The two-CPU split of the CSR matvec and the kernel's passes, timed against a parent tree.

    python3 scripts/two_cpus.py --parent ../parent --out BENCH_two_cpus.json

``--parent`` is another checkout of this repository (for example a ``git
clone`` of the commit before the split). Three parts, each in its own
processes:

- ``handoff_us``: one round trip of ``worker.halves`` with two empty calls
  over ``SPLIT_MIN_N`` elements, with the process on two CPUs: the best and
  the median of ``HANDOFF_ROUNDS`` means of ``HANDOFF_CALLS`` calls.
- ``parts``: ``kernel_parts.time_parts(n, method)`` for each n of ``SIZES``
  and each method, with this process pinned (``os.sched_setaffinity`` on
  itself only) to one CPU and to two. ``worker.SPLIT_MIN_N`` is lowered to
  just above ``BLOCK``, so every two-CPU row hands off and every one-CPU row
  runs the same halves in sequence; the rows at the smallest n show whether
  the hand-off pays there. ``gain`` is the
  one-CPU time over the two-CPU time, per part.
- ``pairs``: ``stream_memory.claim_pairs`` over ``WORKLOADS``: ``PAIRS``
  alternating pairs of ``perfbench/run.py --seconds 40 --trace 0`` at seeds
  ``FIRST_SEED`` upward, each tree running its own copy; the parent runs
  first in even pairs. ``summary`` gives each end-to-end metric's quartiles
  and win count, and ``verdict`` the claim's rule on ``sparse_file``
  ``solve_s.power``, with a median drop of at least ``CLAIM_SHARE`` (15%) on
  top.

The JSON goes to ``--out`` and to standard output. This process itself holds
no arrays: on Linux a child's ``ru_maxrss`` starts at the peak its parent had
reached when it was spawned.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stream_memory import ROOT, _host, _revision, claim_pairs, perfbench  # noqa: E402

SIZES = (65536, 131072, 262144, 1_000_000)
HANDOFF_ROUNDS, HANDOFF_CALLS = 20, 500
WORKLOADS = ("sparse_file", "dense_paper", "small_file")
PAIRS, FIRST_SEED = 10, 81
CLAIM, CLAIM_SHARE = "sparse_file:solve_s.power", 0.15
TIMED = ("matvec", "reductions", "vectors", "update", "measure", "whole_iteration")

# argv: the CPU count to pin to
_PARTS = """
import json, os, statistics, sys, timeit
cpus = int(sys.argv[1])
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
from kernel_parts import time_parts
from splitmerge import worker
from splitmerge.solvers import BLOCK, METHODS
worker.SPLIT_MIN_N = BLOCK + 1
out = {"parts": [time_parts(n, method) for n in json.loads(sys.argv[2]) for method in METHODS]}
if cpus > 1:
    empty = lambda: None
    rounds, calls = int(sys.argv[3]), int(sys.argv[4])
    means = [t / calls * 1e6 for t in timeit.repeat(
        lambda: worker.halves(worker.SPLIT_MIN_N, empty, empty), number=calls, repeat=rounds)]
    out["handoff_us"] = {"best": min(means), "median": statistics.median(means)}
print(json.dumps(out))
"""


def parts() -> dict:
    """Per-part times pinned to one CPU and to two, and the hand-off cost on two."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "scripts"), os.environ.get("PYTHONPATH")])))
    runs = {}
    for cpus in (1, 2):
        done = subprocess.run(
            [sys.executable, "-c", _PARTS, str(cpus), json.dumps(SIZES), str(HANDOFF_ROUNDS),
             str(HANDOFF_CALLS)], env=env, capture_output=True, text=True, check=True)
        runs[cpus] = json.loads(done.stdout)
    rows = []
    for one, two in zip(runs[1]["parts"], runs[2]["parts"]):
        gain = {name: round(one[name] / two[name], 3) for name in TIMED}
        rows.append({"n": one["n"], "method": one["method"], "one_cpu": one, "two_cpus": two,
                     "gain": gain})
    return {"handoff_us": runs[2]["handoff_us"], "parts": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    payload = {"trees": {side: _revision(tree) for side, tree in trees.items()}, "host": _host()}
    payload.update(parts())
    print(json.dumps({"handoff_us": payload["handoff_us"]}), file=sys.stderr)

    payload.update(claim_pairs(trees, CLAIM, WORKLOADS, PAIRS, FIRST_SEED, perfbench))
    rule = payload["verdict"]
    rule["median_drop_share"] = 1.0 - rule["median_ratio"]
    rule["met"] = rule["met"] and rule["median_drop_share"] >= CLAIM_SHARE
    payload["script_peak_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    text = json.dumps(payload, indent=1)
    args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
