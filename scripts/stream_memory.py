#!/usr/bin/env python3
"""Streamed traces against a parent tree: peak memory, identical output, emit cost and perfbench pairs.

    python3 scripts/stream_memory.py --parent ../parent --out BENCH_stream_traces.json
    python3 scripts/stream_memory.py --parent ../parent --out BENCH_tridiagonal_reference.json \
        --claim sparse_file:setup_s --first-seed 121

``--parent`` is another checkout of this repository (for example a ``git
clone`` of the parent commit). Every measurement runs on that tree and on
this one, each in fresh interpreters, with one BLAS thread:

- ``standalone``: for each count of ``TRIALS``, ``run_experiment`` on
  perfbench's ``small_file`` input (n = 128, workload seed
  ``STANDALONE_SEED``) with perfbench's ``small_file`` config; the resident
  size before the experiment and the peak (``ru_maxrss``) after it.
- ``identity``: one ``IDENTITY_TRIALS``-trial ``small_file`` experiment
  (workload seed ``IDENTITY_SEED``) per tree into the same output path, with
  ``time.perf_counter`` replaced by an integer tick counter so that the
  seconds repeat; whether every trace CSV and ``report.json`` the parent
  writes is byte-identical in the change's output.
- ``emit``: ``emit_traces`` alone on ``EMIT_TRACES`` synthetic traces of
  ``EMIT_ROWS`` rows (every other one with split-merge coefficients):
  seconds for all of them in each of ``EMIT_ROUNDS`` alternating rounds, and
  the tracemalloc peak of emitting one.
- ``pairs``: for each of ``WORKLOADS``, ``PAIRS`` pairs of ``perfbench/run.py
  --seconds 40 --trace 0`` runs, each tree running its own copy, at seeds
  ``FIRST_SEED`` upward. The parent runs first in even pairs and the change
  in odd ones. ``summary`` gives, per end-to-end metric of
  ``BENCHMARK.json``, each side's median and quartiles and the number of
  pairs the change won (ties count for neither), and ``matvecs_equal``
  whether ``matvecs_total`` agreed in every pair; ``verdict`` applies the
  claim's rule to ``small_file`` ``peak_rss_mb``, with the ratio of the
  medians. ``--first-seed`` moves the seeds.

``--claim WORKLOAD:METRIC`` (a lower-is-better end-to-end metric) runs the
``pairs`` alone and gives the verdict on that metric instead
(``claim_pairs``, which other pair scripts share).

Both trees run this tree's ``perfbench/workloads.py`` for ``standalone`` and
``identity``. The JSON goes to ``--out`` and to standard output.

This process stays small, and records its own peak as ``script_peak_mib``:
on Linux a child's ``ru_maxrss`` starts at the peak its parent had reached
when the child was spawned, so a script that once held ~100 MiB would floor
every ``peak_rss_mb`` and ``peak_mib`` it measures there.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

TRIALS = (5, 19, 40)
STANDALONE_SEED = 0
IDENTITY_SEED, IDENTITY_TRIALS = 31, 19
EMIT_TRACES, EMIT_ROWS, EMIT_ROUNDS = 24, 20000, 3
WORKLOADS = ("small_file", "dense_paper", "sparse_file")
PAIRS, FIRST_SEED = 10, 21

# argv: library src directory, perfbench directory, trials, workload seed, scratch directory
_STANDALONE = """
import json, resource, sys
from pathlib import Path
src, bench, trials, seed, tmp = sys.argv[1:]
sys.path[:0] = [src, bench]
import workloads
from splitmerge.bench import run_experiment

def rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

workload = workloads.WORKLOADS["small_file"]
inputs = workloads.prepare(workload, int(seed), Path(tmp))
config = workloads.experiment_config(workload, int(seed), 0, int(trials), inputs, Path(tmp) / "out")
before = rss_mib()
run_experiment(config)
print(json.dumps({"before_mib": round(before, 1), "peak_mib": round(rss_mib(), 1)}))
"""

# argv: library src directory, perfbench directory, trials, workload seed, cache directory, out
_TICKS = """
import itertools, sys, time
from pathlib import Path
src, bench, trials, seed, cache, out = sys.argv[1:]
sys.path[:0] = [src, bench]
ticks = itertools.count()
time.perf_counter = lambda: float(next(ticks))    # integer "seconds" that repeat across runs
import workloads
from splitmerge.bench import run_experiment
workload = workloads.WORKLOADS["small_file"]
inputs = workloads.prepare(workload, int(seed), Path(cache))
run_experiment(workloads.experiment_config(workload, int(seed), 0, int(trials), inputs, Path(out)))
"""

# argv: library src directory, traces, rows, scratch directory
_EMIT = """
import json, sys, time, tracemalloc, types
from array import array
import numpy as np
src, traces, rows, tmp = sys.argv[1:]
sys.path.insert(0, src)
from splitmerge.bench import TrialRecord, emit_traces
from splitmerge.solvers import IterationTrace, SplitMergeCoefficients

rows, rng = int(rows), np.random.default_rng(0)

def record(i):
    c = rng.standard_normal((5, rows))
    coeffs = [SplitMergeCoefficients(mu=2.0, gamma=0.5, sigma=0.75, zeta=float(z), omega=0.3,
                                     rho=1.0, degenerate=False) for z in c[4]]
    trace = IterationTrace(
        method="split_merge" if i % 2 else "power", sin_theta=array("d", np.abs(c[0])),
        f_value=array("d", c[1]), rayleigh=array("d", c[2]), residual=array("d", np.abs(c[3])),
        matvecs=array("q", range(1, rows + 1)), seconds=array("d", np.abs(c[4])),
        coeffs=coeffs if i % 2 else None)
    # emit_traces reads only result.trace, and SolveResult's fields differ between trees
    result = types.SimpleNamespace(trace=trace)
    return TrialRecord(f"m{i}", i, True, rows - 1, rows, 1.0, result=result, f_star=-0.25)

records = [record(i) for i in range(int(traces))]
emit_traces(records[:1], tmp)                      # warm-up
start = time.perf_counter()
emit_traces(records, tmp)
seconds = time.perf_counter() - start
tracemalloc.start()
emit_traces(records[1:2], tmp)                     # one trace with coefficients
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"seconds": round(seconds, 3), "peak_mb": round(peak / 1e6, 2)}))
"""


def _child(program: str, *args) -> str:
    done = subprocess.run([sys.executable, "-c", program, *map(str, args)],
                          env={**os.environ, **ONE_THREAD}, capture_output=True, text=True,
                          check=True)
    return done.stdout


def standalone(tree: Path, trials: int, seed: int, tmp: Path) -> dict:
    out = _child(_STANDALONE, tree / "src", ROOT / "perfbench", trials, seed, tmp)
    return json.loads(out.splitlines()[-1])


def identity(parent: Path, change: Path, trials: int, seed: int, tmp: Path) -> dict:
    """Run both trees under a tick clock into the same path; compare the parent's files."""
    out, written = tmp / "out", {}
    for side, tree in (("parent", parent), ("change", change)):
        _child(_TICKS, tree / "src", ROOT / "perfbench", trials, seed, tmp / "cache", out)
        written[side] = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).digest()
                         for p in sorted(out.rglob("*")) if p.is_file()}
        out.rename(tmp / side)
    differing = [name for name, data in written["parent"].items()
                 if written["change"].get(name) != data]
    return {"trials": trials, "workload_seed": seed, "parent_files": len(written["parent"]),
            "differing": differing}


def emit(tree: Path, traces: int, rows: int, tmp: Path) -> dict:
    return json.loads(_child(_EMIT, tree / "src", traces, rows, tmp).splitlines()[-1])


def perfbench(tree: Path, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "40", "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"], **metrics}


def alternating_pairs(trees: dict, workloads, pairs: int, first_seed: int, run, after=None) -> dict:
    """Per workload, ``pairs`` pairs of ``run(tree, workload, seed)``: pair i at seed ``first_seed
    + i``, the parent first in even pairs. ``after(tree, workload)`` returns entries to add to
    each run's result. One JSON line per pair goes to stderr."""
    done = {}
    for workload in workloads:
        done[workload] = []
        for i in range(pairs):
            seed = first_seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(trees[side], workload, seed)
                if after is not None:
                    pair[side].update(after(trees[side], workload))
            done[workload].append(pair)
            print(json.dumps({"workload": workload, **pair}), file=sys.stderr)
    return done


def _quartiles(values) -> list:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(pairs: list, metrics: list) -> dict:
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        entry = {"better": metric["better"], "change_won": f"{wins} of {len(pairs)}"}
        if len(pairs) > 1:
            entry["parent_q1_median_q3"] = _quartiles(parent)
            entry["change_q1_median_q3"] = _quartiles(change)
        else:
            entry["parent"], entry["change"] = parent[0], change[0]
        summary[name] = entry
    return summary


def verdict(pairs: list, metric: str) -> dict:
    """The claim's rule for a lower-is-better metric: lower in >= 9 of 10 pairs, and a
    median drop larger than the parent's interquartile range."""
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    q1, median, q3 = _quartiles(parent)
    lower = sum(c < p for p, c in zip(parent, change))
    drop = median - statistics.median(change)
    return {"change_lower": f"{lower} of {len(pairs)}", "median_drop": drop,
            "parent_iqr": q3 - q1, "met": lower >= 0.9 * len(pairs) and drop > q3 - q1}


def _revision(tree: Path) -> str:
    """The tree's commit, marked when tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        commit = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "not a git checkout"
    return commit + (" with uncommitted changes" if dirty else "")


def _host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"), "blas_threads": 1}


def claim_pairs(trees: dict, claim: str, workloads, count: int, first_seed: int, run,
                after=None) -> dict:
    """``alternating_pairs`` of ``run`` (and ``after``), each workload's summary, and the verdict
    of ``claim`` (``WORKLOAD:METRIC``, lower is better) with the ratio of its medians."""
    workload, metric = claim.split(":")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = alternating_pairs(trees, workloads, count, first_seed, run, after)
    ratio = (statistics.median(p["change"][metric] for p in pairs[workload])
             / statistics.median(p["parent"][metric] for p in pairs[workload]))
    return {
        "pairs_command": ("python3 perfbench/run.py --workload {workload} --seed {seed} "
                          "--seconds 40 --trace 0"),
        "verdict": {"metric": f"{workload} {metric}", **verdict(pairs[workload], metric),
                    "median_ratio": ratio},
        "summary": {name: {**summarize(p, metrics), "matvecs_equal": all(
            pair["parent"]["matvecs_total"] == pair["change"]["matvecs_total"] for pair in p)}
            for name, p in pairs.items()},
        "pairs": pairs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="run the perfbench pairs alone, with this claim's verdict")
    parser.add_argument("--first-seed", type=int, default=FIRST_SEED)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    payload = {"trees": {side: _revision(tree) for side, tree in trees.items()}, "host": _host()}

    if args.claim is None:
        payload.update(standalone_seed=STANDALONE_SEED, standalone=[])
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for trials in TRIALS:
                row = {"trials": trials}
                for side, tree in trees.items():
                    row[side] = standalone(tree, trials, STANDALONE_SEED, tmp)
                payload["standalone"].append(row)
                print(json.dumps(row), file=sys.stderr)
            payload["identity"] = identity(trees["parent"], ROOT, IDENTITY_TRIALS, IDENTITY_SEED,
                                           tmp / "identity")
            print(json.dumps(payload["identity"]), file=sys.stderr)
            rounds = {"parent": [], "change": []}
            for i in range(EMIT_ROUNDS):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    rounds[side].append(emit(trees[side], EMIT_TRACES, EMIT_ROWS, tmp))
            payload["emit"] = {"traces": EMIT_TRACES, "rows": EMIT_ROWS, **rounds}
            print(json.dumps(payload["emit"]), file=sys.stderr)

    payload.update(claim_pairs(trees, args.claim or "small_file:peak_rss_mb", WORKLOADS, PAIRS,
                               args.first_seed, perfbench))
    payload["script_peak_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    text = json.dumps(payload, indent=1)
    args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
