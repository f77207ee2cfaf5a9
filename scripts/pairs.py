#!/usr/bin/env python3
"""This tree against a parent tree: perfbench pairs for a claim, and extra measurements.

    python3 scripts/pairs.py --parent ../parent --out BENCH_name.json
        [--claim WORKLOAD:METRIC] [--first-seed N] [--extra NAME]...

``--parent`` is another checkout of this repository, for example a ``git
clone`` of the parent commit. Each tree runs its own library and perfbench,
in fresh interpreters.

``--claim`` names a workload and an end-to-end metric of ``BENCHMARK.json``
and is checked before anything runs. Per workload of ``BENCHMARK.json``, the
claimed one first, ``PAIRS`` pairs of ``perfbench/run.py --seconds 40
--trace 0`` run at seeds ``--first-seed`` upward, the parent first in even
pairs and the change in odd ones. ``summary`` gives each end-to-end metric's
quartiles per side, the pairs the change won (ties count for neither) and
``matvecs_equal``; ``verdict`` applies the claim's rule in the metric's
direction: better in >= 9 of 10 pairs, by a median gain beyond the parent's
interquartile range. Each run also records its ``leftovers``: the ``*.tmp``
files left in that tree's perfbench traces and the ``perfbench/run.py``
processes alive after it. Without ``--claim`` no pair runs.

Each ``--extra`` adds one measurement, in the order given:

- ``stream``: the resident size before and the peak after ``run_experiment``
  on perfbench's ``small_file`` (workload seed ``STANDALONE_SEED``) for each
  count of ``TRIALS``; then ``EMIT_ROUNDS`` rounds of ``emit_traces`` on
  ``EMIT_TRACES`` synthetic traces of ``EMIT_ROWS`` rows: the seconds for all
  and the tracemalloc peak of one.
- ``identity``: which of the parent's trace CSVs and ``report.json`` differ in
  the change's, both written to one path by an ``IDENTITY_TRIALS``-trial
  ``small_file`` experiment (workload seed ``IDENTITY_SEED``) under a tick clock.
- ``gen``: ``GEN_ROUNDS`` rounds of ``bench gen --n GEN_N --gap 1e-3 --seed 0``
  with the BLAS threads this process was given: the peak RSS, the seconds and
  the SHA-256 of the file, which is then deleted; ``identical`` if all equal.
- ``parts``: ``kernel_parts.time_parts`` on this tree for each n of ``SIZES``
  and each method, pinned to one CPU and to two, with every two-CPU row
  handing off (``worker.SPLIT_MIN_N`` just above ``BLOCK``); ``gain`` is the
  one-CPU time over the two-CPU time, for ``whole_iteration`` the ratio of
  the medians of the solves (each row also holds their quartiles,
  ``whole_iteration_q1`` and ``whole_iteration_q3``). ``handoff_us`` times
  ``worker.halves`` with two empty calls.
- ``steps``: ``STEP_ROUNDS`` rounds of the best of ``STEP_REPEAT`` calls of
  each public step on ``kernel_parts.tridiagonal(STEP_N, STEP_SEED)``, and
  each step's median per tree. It writes its own ``summary``, so it runs
  without ``--claim``.

Rounds alternate as pairs do. Children other than ``gen`` and ``parts`` run
with one BLAS thread; both trees use this tree's ``perfbench/workloads.py``
and ``scripts/kernel_parts.py``. The JSON goes to ``--out`` and to standard
output. This process holds only the numbers it reports, and with ``--claim``
records its own peak as ``script_peak_mib``: on Linux a child's
``ru_maxrss`` starts at the peak its parent had reached when it was spawned.
"""

import argparse
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

PAIRS, FIRST_SEED = 10, 21
TRIALS, STANDALONE_SEED = (5, 19, 40), 0
EMIT_TRACES, EMIT_ROWS, EMIT_ROUNDS = 24, 20000, 3
IDENTITY_SEED, IDENTITY_TRIALS = 47, 19
GEN_N, GEN_ROUNDS = 4096, 2
SIZES = (65536, 131072, 262144, 1_000_000)
HANDOFF_ROUNDS, HANDOFF_CALLS = 20, 500
TIMED = ("matvec", "reductions", "vectors", "update", "measure", "whole_iteration")
STEP_N, STEP_SEED, STEP_REPEAT, STEP_ROUNDS = 1_000_000, 0, 30, 7
STEPS = ("power_step", "gd_step", "power_momentum_step", "split_merge_step")

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

# argv: library src directory, perfbench directory, trials, workload seed, cache directory, out;
# prints the SHA-256 of each file written under out
_TICKS = """
import hashlib, itertools, json, sys, time
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
print(json.dumps({str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(Path(out).rglob("*")) if p.is_file()}))
"""

# argv: library src directory, order, output path; hashes the file in blocks, then deletes it
_GEN = """
import hashlib, json, os, resource, sys, time
src, n, out = sys.argv[1:]
sys.path.insert(0, src)
from splitmerge.cli import main
start = time.perf_counter()
main(["gen", "--n", n, "--gap", "1e-3", "--seed", "0", "--out", out])
done = {"seconds": round(time.perf_counter() - start, 2),
        "peak_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}
digest = hashlib.sha256()
with open(out, "rb") as fh:
    for block in iter(lambda: fh.read(1 << 20), b""):
        digest.update(block)
done["sha256"] = digest.hexdigest()
os.remove(out)
print(json.dumps(done))
"""

# argv: library src directory, scripts directory, CPU count, sizes, hand-off rounds, calls
_PARTS = """
import json, os, statistics, sys, timeit
sys.path[:0] = sys.argv[1:3]
cpus = int(sys.argv[3])
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
from kernel_parts import time_parts
from splitmerge import worker
from splitmerge.solvers import BLOCK, METHODS
worker.SPLIT_MIN_N = BLOCK + 1
out = {"parts": [time_parts(n, method) for n in json.loads(sys.argv[4]) for method in METHODS]}
if cpus > 1:
    empty = lambda: None
    rounds, calls = int(sys.argv[5]), int(sys.argv[6])
    means = [t / calls * 1e6 for t in timeit.repeat(
        lambda: worker.halves(worker.SPLIT_MIN_N, empty, empty), number=calls, repeat=rounds)]
    out["handoff_us"] = {"best": min(means), "median": statistics.median(means)}
print(json.dumps(out))
"""

# argv: library src directory, scripts directory, n, seed, repeat
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


def _child(program: str, *args, one_thread: bool = True):
    """Run ``program`` in a fresh interpreter; its last line of output, read as JSON."""
    env = {**os.environ, **(ONE_THREAD if one_thread else {})}
    done = subprocess.run([sys.executable, "-c", program, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _order(i: int) -> tuple:
    """The sides of round or pair i in the order they run: the parent first in even ones."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def rounds(trees: dict, count: int, run) -> dict:
    """``count`` alternating rounds of ``run(tree)``, listed per side."""
    done = {"parent": [], "change": []}
    for i in range(count):
        for side in _order(i):
            done[side].append(run(trees[side]))
            print(json.dumps({side: done[side][-1]}), file=sys.stderr)
    return done


def stream(trees: dict, tmp: Path) -> dict:
    standalone = []
    for trials in TRIALS:
        row = {"trials": trials}
        for side, tree in trees.items():
            row[side] = _child(_STANDALONE, tree / "src", ROOT / "perfbench", trials,
                               STANDALONE_SEED, tmp)
        standalone.append(row)
        print(json.dumps(row), file=sys.stderr)
    emitted = rounds(trees, EMIT_ROUNDS, lambda tree: _child(
        _EMIT, tree / "src", EMIT_TRACES, EMIT_ROWS, tmp))
    return {"standalone_seed": STANDALONE_SEED, "standalone": standalone,
            "emit": {"traces": EMIT_TRACES, "rows": EMIT_ROWS, **emitted}}


def identity(trees: dict, tmp: Path) -> dict:
    out, written = tmp / "out", {}
    for side, tree in trees.items():
        written[side] = _child(_TICKS, tree / "src", ROOT / "perfbench", IDENTITY_TRIALS,
                               IDENTITY_SEED, tmp / "cache", out)
        out.rename(tmp / side)          # the next tree writes to the same path
    differing = [name for name, data in written["parent"].items()
                 if written["change"].get(name) != data]
    return {"identity": {"trials": IDENTITY_TRIALS, "workload_seed": IDENTITY_SEED,
                         "parent_files": len(written["parent"]), "differing": differing}}


def gen(trees: dict, tmp: Path) -> dict:
    done = {"n": GEN_N, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            **rounds(trees, GEN_ROUNDS, lambda tree: _child(
                _GEN, tree / "src", GEN_N, tmp / "gen.mtx", one_thread=False))}
    done["identical"] = len({run["sha256"] for run in done["parent"] + done["change"]}) == 1
    return {"gen": done}


def parts(trees: dict, tmp: Path) -> dict:
    runs = {cpus: _child(_PARTS, ROOT / "src", ROOT / "scripts", cpus, json.dumps(SIZES),
                         HANDOFF_ROUNDS, HANDOFF_CALLS, one_thread=False) for cpus in (1, 2)}
    rows = [{"n": one["n"], "method": one["method"], "one_cpu": one, "two_cpus": two,
             "gain": {name: round(one[name] / two[name], 3) for name in TIMED}}
            for one, two in zip(runs[1]["parts"], runs[2]["parts"])]
    return {"handoff_us": runs[2]["handoff_us"], "parts": rows}


def steps(trees: dict, tmp: Path) -> dict:
    runs = rounds(trees, STEP_ROUNDS, lambda tree: _child(
        _STEPS, tree / "src", ROOT / "scripts", STEP_N, STEP_SEED, STEP_REPEAT))
    summary = {}
    for step in STEPS:
        parent = statistics.median(r[step] for r in runs["parent"])
        change = statistics.median(r[step] for r in runs["change"])
        summary[step] = {"parent_median_ms": parent, "change_median_ms": change,
                         "change_over_parent": change / parent}
    return {"n": STEP_N, "seed": STEP_SEED, "repeat": STEP_REPEAT,
            "unit": "ms, best of repeat calls", "summary": summary, "runs": runs}


EXTRAS = {"stream": stream, "identity": identity, "gen": gen, "parts": parts, "steps": steps}


def _ps() -> str:
    return subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True, check=True).stdout


def leftovers(tree: Path, workload: str) -> dict:
    traces = tree / ".perfbench_work" / "out" / workload / "traces"
    return {"leftovers": {"tmp_files": len(list(traces.glob("*.tmp"))),
                          "processes": sum("perfbench/run.py" in line
                                           for line in _ps().splitlines())}}


def perfbench(tree: Path, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "40", "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"], **metrics}


def alternating_pairs(trees: dict, workloads, pairs: int, first_seed: int, run, after) -> dict:
    """Per workload, ``pairs`` pairs of ``run(tree, workload, seed)``: pair i at seed ``first_seed
    + i``, the parent first in even pairs. ``after(tree, workload)`` returns entries to add to
    each run's result. One JSON line per pair goes to stderr."""
    done = {}
    for workload in workloads:
        done[workload] = []
        for i in range(pairs):
            order = _order(i)
            pair = {"seed": first_seed + i, "first": order[0]}
            for side in order:
                pair[side] = run(trees[side], workload, pair["seed"])
                pair[side].update(after(trees[side], workload))
            done[workload].append(pair)
            print(json.dumps({"workload": workload, **pair}), file=sys.stderr)
    return done


def _quartiles(values) -> list:
    return statistics.quantiles(values, n=4, method="inclusive")


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


def verdict(pairs: list, metric: str, better: str) -> dict:
    """The claim's rule: the change better (``better`` is "lower" or "higher") in >= 9 of 10
    pairs, and its median better than the parent's by more than the parent's interquartile
    range. A higher-is-better metric is negated first, so ``change_lower`` counts the pairs
    the change was higher and ``median_drop`` is its median gain."""
    sign = 1.0 if better == "lower" else -1.0
    parent = [sign * p["parent"][metric] for p in pairs]
    change = [sign * p["change"][metric] for p in pairs]
    q1, median, q3 = _quartiles(parent)
    wins = sum(c < p for p, c in zip(parent, change))
    drop = median - statistics.median(change)
    return {"change_lower": f"{wins} of {len(pairs)}", "median_drop": drop,
            "parent_iqr": q3 - q1, "met": wins >= 0.9 * len(pairs) and drop > q3 - q1}


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _claim(text: str) -> tuple:
    """``WORKLOAD:METRIC`` as (workload, the metric's ``BENCHMARK.json`` entry)."""
    bench = _benchmark()
    workload, _, metric = text.partition(":")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if workload not in workloads or metric not in metrics:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not WORKLOAD:METRIC with a workload of {workloads} and an "
            f"end-to-end metric of {list(metrics)}")
    return workload, metrics[metric]


def claim_pairs(trees: dict, claim: tuple, first_seed: int) -> dict:
    """``alternating_pairs`` of ``perfbench`` and its ``leftovers`` over ``BENCHMARK.json``'s
    workloads, the claimed one first; each workload's summary, and the claim's verdict with
    the ratio of its medians."""
    workload, metric = claim
    bench = _benchmark()
    workloads = [workload] + [w["name"] for w in bench["workloads"] if w["name"] != workload]
    pairs = alternating_pairs(trees, workloads, PAIRS, first_seed, perfbench, leftovers)
    name = metric["name"]
    ratio = (statistics.median(p["change"][name] for p in pairs[workload])
             / statistics.median(p["parent"][name] for p in pairs[workload]))
    return {
        "pairs_command": ("python3 perfbench/run.py --workload {workload} --seed {seed} "
                          "--seconds 40 --trace 0"),
        "verdict": {"metric": f"{workload} {name}",
                    **verdict(pairs[workload], name, metric["better"]), "median_ratio": ratio},
        "summary": {w: {**summarize(p, bench["end_to_end"]), "matvecs_equal": all(
            pair["parent"]["matvecs_total"] == pair["change"]["matvecs_total"] for pair in p)}
            for w, p in pairs.items()},
        "pairs": pairs,
    }


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


def _host(extras) -> dict:
    inherited = " and ".join(name for name in ("gen", "parts") if name in extras)
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "the BLAS default")
    blas = f"1 in perfbench; {threads}, inherited, in {inherited}" if inherited else 1
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
            **{lib: importlib.metadata.version(lib) for lib in ("numpy", "scipy")},
            "blas_threads": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", type=_claim, metavar="WORKLOAD:METRIC",
                        help="run the perfbench pairs, with this claim's verdict")
    parser.add_argument("--first-seed", type=int, default=FIRST_SEED)
    parser.add_argument("--extra", action="append", default=[], choices=EXTRAS)
    args = parser.parse_args(argv)
    if args.claim is not None and "steps" in args.extra:
        parser.error("--extra steps writes its own summary: give it without --claim")

    trees = {"parent": args.parent.resolve(), "change": ROOT}
    payload = {"trees": {side: _revision(tree) for side, tree in trees.items()},
               "host": _host(args.extra)}
    with tempfile.TemporaryDirectory() as tmp:
        for name in dict.fromkeys(args.extra):
            (Path(tmp) / name).mkdir()
            payload.update(EXTRAS[name](trees, Path(tmp) / name))
    if args.claim is not None:
        payload.update(claim_pairs(trees, args.claim, args.first_seed))
        payload["script_peak_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    text = json.dumps(payload, indent=1)
    args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
