#!/usr/bin/env python3
"""The dense set-up's memory against a parent tree: perfbench pairs and ``bench gen``.

    python3 scripts/setup_memory.py --parent ../parent --out BENCH_setup_memory.json

``--parent`` is another checkout of this repository (for example a ``git
clone`` of the parent commit). Each tree runs its own copy of the library
and of perfbench:

- ``gen``: ``GEN_ROUNDS`` alternating rounds of ``bench gen --n GEN_N --gap
  1e-3 --seed 0`` per tree, each in a new interpreter with the BLAS threads
  this process was given: the child's peak RSS (``ru_maxrss``), the seconds
  of the command itself, and the SHA-256 of the file it wrote, which is then
  deleted. ``identical`` says whether every file equals the parent's first.
- ``pairs``: for each of ``WORKLOADS``, ``PAIRS`` pairs of ``perfbench/run.py
  --seconds 40 --trace 0`` runs at seeds ``FIRST_SEED`` upward. The parent
  runs first in even pairs and the change in odd ones.
- ``summary`` gives, per end-to-end metric of ``BENCHMARK.json``, each side's
  quartiles and the number of pairs the change won (ties count for neither),
  and ``matvecs_equal`` whether ``matvecs_total`` agreed in every pair.
  ``verdict`` applies the claim's rule (``stream_memory.verdict``) to
  ``dense_paper`` ``peak_rss_mb``, with the ratio of the medians.

The JSON goes to ``--out`` and to standard output. This process holds no
more than the numbers it reports (``script_peak_mib``), and hashes each file
in 1 MiB blocks: on Linux a child's ``ru_maxrss`` starts at the peak its
parent had reached when it was spawned.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stream_memory import ROOT, _host, _revision, claim_pairs, perfbench  # noqa: E402

WORKLOADS = ("dense_paper", "sparse_file", "small_file")
PAIRS, FIRST_SEED = 10, 101
GEN_N, GEN_ROUNDS = 4096, 2
CLAIM = "dense_paper:peak_rss_mb"

# argv: library src directory, order, output path
_GEN = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from splitmerge.cli import main
start = time.perf_counter()
main(["gen", "--n", sys.argv[2], "--gap", "1e-3", "--seed", "0", "--out", sys.argv[3]])
print(json.dumps({"seconds": round(time.perf_counter() - start, 2),
                  "peak_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}))
"""


def gen(tree: Path, n: int, out: Path) -> dict:
    """``bench gen`` of order n from the tree's library: peak RSS, seconds and the file's hash."""
    done = subprocess.run([sys.executable, "-c", _GEN, str(tree / "src"), str(n), str(out)],
                          capture_output=True, text=True, check=True)
    digest = hashlib.sha256()
    with open(out, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    out.unlink()
    return {**json.loads(done.stdout.splitlines()[-1]), "sha256": digest.hexdigest()}


def gen_rounds(trees: dict, n: int, rounds: int, tmp: Path) -> dict:
    done = {"n": n, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "parent": [], "change": []}
    for i in range(rounds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            done[side].append(gen(trees[side], n, tmp / f"{side}.mtx"))
            print(json.dumps({"gen": side, **done[side][-1]}), file=sys.stderr)
    first = done["parent"][0]["sha256"]
    done["identical"] = all(run["sha256"] == first for run in done["parent"] + done["change"])
    return done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    payload = {"trees": {side: _revision(tree) for side, tree in trees.items()}, "host": _host()}
    payload["host"]["blas_threads"] = "1 in perfbench; inherited in gen"

    with tempfile.TemporaryDirectory() as tmp:
        payload["gen"] = gen_rounds(trees, GEN_N, GEN_ROUNDS, Path(tmp))

    payload.update(claim_pairs(trees, CLAIM, WORKLOADS, PAIRS, FIRST_SEED, perfbench))
    payload["script_peak_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    text = json.dumps(payload, indent=1)
    args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
