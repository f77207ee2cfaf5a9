#!/usr/bin/env python3
"""Trace CSVs written in a helper process, against a parent tree: perfbench pairs and identical output.

    python3 scripts/trace_writer_pairs.py --parent ../parent --out BENCH_trace_writer.json

``--parent`` is another checkout of this repository (for example a ``git
clone`` of the parent commit). Each tree runs its own copy of perfbench:

- ``identity``: ``stream_memory.identity`` on one ``IDENTITY_TRIALS``-trial
  ``small_file`` experiment (workload seed ``IDENTITY_SEED``) per tree under
  a tick clock; whether every trace CSV and ``report.json`` the parent writes
  is byte-identical in the change's output.
- ``pairs``: for each of ``WORKLOADS``, ``PAIRS`` pairs of ``perfbench/run.py
  --seconds 40 --trace 0`` runs at seeds ``FIRST_SEED`` upward. The parent
  runs first in even pairs and the change in odd ones. After each run, its
  ``leftovers`` count the ``*.tmp`` files in that tree's perfbench trace
  directory and the ``perfbench/run.py`` processes still alive.
- ``summary`` gives, per end-to-end metric of ``BENCHMARK.json``, each side's
  quartiles and the number of pairs the change won (ties count for
  neither); ``verdict`` applies the claim's rule to ``small_file`` ``wall_s``:
  lower in at least 9 of 10 pairs, and a median drop larger than the
  parent's interquartile range.

The JSON goes to ``--out`` and to standard output. This process holds no
more than the numbers it reports (``script_peak_mib``): on Linux a child's
``ru_maxrss`` starts at the peak its parent had reached when it was spawned.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stream_memory import ROOT, _host, _quartiles, _revision, identity, perfbench, summarize  # noqa: E402

WORKLOADS = ("small_file", "dense_paper", "sparse_file")
PAIRS, FIRST_SEED = 10, 51
IDENTITY_SEED, IDENTITY_TRIALS = 47, 19
CLAIM = ("small_file", "wall_s")


def leftovers(tree: Path, workload: str) -> dict:
    """``*.tmp`` files in the tree's perfbench traces, and perfbench processes still running."""
    traces = tree / ".perfbench_work" / "out" / workload / "traces"
    ps = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True, check=True).stdout
    return {"tmp_files": len(list(traces.glob("*.tmp"))),
            "processes": sum("perfbench/run.py" in line for line in ps.splitlines())}


def verdict(pairs: list, metric: str) -> dict:
    """The claim's rule for a lower-is-better metric."""
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    q1, median, q3 = _quartiles(parent)
    lower = sum(c < p for p, c in zip(parent, change))
    drop = median - statistics.median(change)
    return {"change_lower": f"{lower} of {len(pairs)}", "median_drop": drop,
            "parent_iqr": q3 - q1, "met": lower >= 0.9 * len(pairs) and drop > q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    payload = {"trees": {side: _revision(tree) for side, tree in trees.items()}, "host": _host()}

    with tempfile.TemporaryDirectory() as tmp:
        payload["identity"] = identity(trees["parent"], ROOT, IDENTITY_TRIALS, IDENTITY_SEED,
                                       Path(tmp))
    print(json.dumps(payload["identity"]), file=sys.stderr)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    payload["pairs_command"] = ("python3 perfbench/run.py --workload {workload} --seed {seed} "
                                "--seconds 40 --trace 0")
    pairs = {}
    for workload in WORKLOADS:
        pairs[workload] = []
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = perfbench(trees[side], workload, seed)
                pair[side]["leftovers"] = leftovers(trees[side], workload)
            pairs[workload].append(pair)
            print(json.dumps({"workload": workload, **pair}), file=sys.stderr)
    workload, metric = CLAIM
    payload["verdict"] = {"metric": f"{workload} {metric}", **verdict(pairs[workload], metric)}
    payload["summary"] = {workload: summarize(p, metrics) for workload, p in pairs.items()}
    payload["pairs"] = pairs
    payload["script_peak_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    text = json.dumps(payload, indent=1)
    args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
