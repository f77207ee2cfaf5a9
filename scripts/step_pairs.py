#!/usr/bin/env python3
"""Time the four public step functions against a parent tree, in alternating processes.

    python3 scripts/step_pairs.py --parent ../parent --out BENCH_public_steps.json

``--parent`` is another checkout of this repository. Each of ``PAIRS``
pairs starts one fresh interpreter per tree (the parent first in even
pairs, the change first in odd ones), with one BLAS thread. The
interpreter builds ``kernel_parts.tridiagonal(N, SEED)`` from this tree's
scripts, takes x and x_prev from that tree's ``init_vector``, and reports
the best of ``REPEAT`` calls of ``power_step``, ``gd_step`` (alpha 0.3),
``power_momentum_step`` (beta 0.2) and ``split_merge_step``, in
milliseconds. ``summary`` gives each step's median per tree and the
change's median as a share of the parent's. The JSON goes to ``--out`` and
to standard output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stream_memory import ONE_THREAD, ROOT, _host, _revision  # noqa: E402

N, SEED, REPEAT, PAIRS = 1_000_000, 0, 30, 7
STEPS = ("power_step", "gd_step", "power_momentum_step", "split_merge_step")

# argv: library src directory, this tree's scripts directory, n, seed, repeat
_STEPS = """
import json, sys, timeit
src, scripts, n, seed, repeat = sys.argv[1:]
sys.path[:0] = [src, scripts]
from kernel_parts import tridiagonal
from splitmerge.solvers import gd_step, init_vector, power_momentum_step, power_step, split_merge_step
op = tridiagonal(int(n), int(seed))
x, prev = init_vector(op.n, 0, op), init_vector(op.n, 1, op)
calls = {"power_step": lambda: power_step(op, x), "gd_step": lambda: gd_step(op, x, 0.3),
         "power_momentum_step": lambda: power_momentum_step(op, x, prev, 0.2),
         "split_merge_step": lambda: split_merge_step(op, x)}
print(json.dumps({name: min(timeit.repeat(call, number=1, repeat=int(repeat))) * 1e3
                  for name, call in calls.items()}))
"""


def time_steps(tree: Path, n: int = N, repeat: int = REPEAT) -> dict:
    """Best milliseconds per call of each public step, in a fresh interpreter on ``tree``."""
    done = subprocess.run(
        [sys.executable, "-c", _STEPS, str(tree / "src"), str(ROOT / "scripts"), str(n), str(SEED),
         str(repeat)],
        env={**os.environ, **ONE_THREAD}, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summarize(runs: dict) -> dict:
    summary = {}
    for step in STEPS:
        parent = statistics.median(r[step] for r in runs["parent"])
        change = statistics.median(r[step] for r in runs["change"])
        summary[step] = {"parent_median_ms": parent, "change_median_ms": change,
                         "change_over_parent": change / parent}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(time_steps(trees[side]))
            print(json.dumps({"pair": i, side: runs[side][-1]}), file=sys.stderr)
    payload = {"trees": {side: _revision(tree) for side, tree in trees.items()}, "host": _host(),
               "n": N, "seed": SEED, "repeat": REPEAT, "unit": "ms, best of repeat calls",
               "summary": summarize(runs), "runs": runs}
    text = json.dumps(payload, indent=1)
    args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
