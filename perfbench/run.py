#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the split-merge harness.

    python3 perfbench/run.py --workload dense_paper --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the repository root. Each workload runs whole experiments through
``splitmerge.bench.run_experiment`` in this one process, with one worker
and BLAS pinned to one thread. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` a separate traced run's per-layer metrics. A run makes two
experiments; ``--seconds`` sets how many trials each holds (see
``workloads.Workload.trials``). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the
environment (with the resolved experiment configs) and a readable table.

Every (solver, trial) run must pass the gate: it converged, its reported
matvecs equal the operator counter's delta, its Rayleigh quotient matches
the known lambda1 (exact 1.0 for generated matrices, the certified
reference for the sparse file), and its iteration and matvec counts equal
those recorded by an earlier run of the same seed and sources, when there
is one. Failed runs are counted in ``failed`` and left out of every time.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
METHODS = ("power", "split_merge", "gd_difference", "power_momentum")
LAMBDA_RTOL = 1e-8        # Rayleigh error at sin(theta) <= 1e-5 is <= 1e-10
TRUTH_RTOL = 1e-10        # ground truth handed to the solvers vs the known lambda1
CERTIFY_RTOL = 1e-10      # residual the reference must meet on the benchmark's own matrix


@dataclass
class Experiment:
    """One run_experiment call: its config, timing and the report's trial records."""

    index: int
    config: object
    start: float
    wall_s: float
    records: list = field(default_factory=list)   # TrialRecord, solver results dropped
    trace_rows: int = 0

    def method(self, label: str) -> str:
        return next(s.method for s in self.config.solvers if s.label == label)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "splitmerge" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Before numpy is imported: one BLAS thread, so wall times do not contend.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    if args.workload == "all":
        return _run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    result = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def _run_all(args, registry) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for name in registry:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return status


def run_workload(workload, seed: int, seconds: int, traced: bool) -> dict:
    import workloads
    from environment import environment
    from spans import Probe, hook_cost_s
    from splitmerge.bench import run_experiment

    digest = workloads.source_digest(ROOT)
    inputs = workloads.prepare(workload, seed, WORK / "inputs")
    out_dir = WORK / "out" / workload.name
    _warm_up(workload)

    trials = workload.trials(seconds)
    configs = [workloads.experiment_config(workload, seed, e, trials, inputs, out_dir)
               for e in range(workloads.EXPERIMENTS)]
    print(f"perfbench: workload={workload.name} seed={seed} seconds={seconds} trace={int(traced)} "
          f"experiments={len(configs)} trials/experiment={trials}")
    print("environment: " + json.dumps({
        **environment(ROOT, digest), "workload": workload.name, "seed": seed,
        "configs": [_resolved(config) for config in configs],
    }))

    probe = Probe(traced)
    experiments = []
    with probe:
        for e, config in enumerate(configs):
            probe.experiment = e
            span = probe.open_span("experiment") if traced else None
            start = time.perf_counter()
            report = run_experiment(config)
            wall = time.perf_counter() - start
            if span is not None:
                probe.close_span(span)
            experiments.append(_extract(e, config, start, wall, report))
            del report

    failures = _gate(workload, seed, seconds, digest, experiments, probe, inputs)
    attempted = sum(len(x.records) for x in experiments)
    failed = len(failures)
    for key, reasons in sorted(failures.items()):
        print(f"FAILED experiment={key[0]} solver={key[1]} trial={key[2]}: {'; '.join(reasons)}")

    extras = {}
    if traced:
        metrics = _layer_metrics(experiments, probe, inputs, hook_cost_s())
        _write_spans(out_dir, probe)
    else:
        metrics, extras = _end_to_end(experiments, probe, failures)
    _print_table(metrics, extras, failed, attempted)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _resolved(config) -> dict:
    resolved = dict(vars(config))
    resolved["solvers"] = [s.label for s in config.solvers]
    return resolved


def _warm_up(workload) -> None:
    """One untimed tiny experiment, so imports and first-call set-up are done."""
    import workloads
    from splitmerge import DenseOperator, save_matrix_market
    from splitmerge.bench import ExperimentConfig, parse_solver_list, run_experiment

    warm = WORK / "warmup" / workload.name
    warm.mkdir(parents=True, exist_ok=True)
    config = ExperimentConfig(n=64, gap=0.1, trials=1, solvers=parse_solver_list(workload.solvers),
                              out_dir=str(warm / "out"), workers=1)
    if workload.name == "small_file":
        import numpy as np
        path = warm / "tiny.mtx"
        save_matrix_market(DenseOperator(np.diag(np.linspace(1.0, 0.1, 16))), path)
        config.source, config.matrix_path = "matrix_market", str(path)
    elif workload.name == "sparse_file":
        diag, off = workloads.sparse_entries(0, n=2000)
        path = warm / "tiny.mtx"
        workloads.write_tridiagonal(path, diag, off)
        config.source, config.matrix_path, config.dense_limit = "matrix_market", str(path), 100
    run_experiment(config)


def _extract(e, config, start, wall, report) -> Experiment:
    """Keep what the metrics need and drop the solver results, which can be large."""
    exp = Experiment(e, config, start, wall, records=report.records)
    for rec in report.records:
        if rec.result is not None:
            exp.trace_rows += len(rec.result.trace.k)
            rec.result = None
    return exp


# -- correctness gate ------------------------------------------------------------


def _gate(workload, seed, seconds, digest, experiments, probe, inputs) -> dict:
    """Map (experiment, solver, trial) of every failed run to its reasons."""
    failures: dict[tuple, list[str]] = {}

    def fail(key, reason):
        failures.setdefault(key, []).append(reason)

    counts = []
    for exp in experiments:
        settings = exp.config.solvers
        calls = [c for c in probe.solves if c.experiment == exp.index]
        known, truth_problem = _known_lambda1(inputs, probe.truths.get(exp.index))
        for rec in exp.records:
            key = (exp.index, rec.solver, rec.trial)
            counts.append([*key, rec.iterations, rec.matvecs])
            if rec.error is not None:
                fail(key, rec.error)
                continue
            if not rec.converged:
                fail(key, f"not converged after {rec.iterations} iterations")
            # workers = 1: solves run trial by trial, solvers in config order
            pos = rec.trial * len(settings) + [s.label for s in settings].index(rec.solver)
            call = calls[pos] if len(calls) == len(exp.records) else None
            if call is None or call.method != exp.method(rec.solver):
                fail(key, "solve calls do not line up with the report")
                continue
            if not (rec.matvecs == call.reported_matvecs == call.counter_delta):
                fail(key, f"reported matvecs {rec.matvecs} != counter delta {call.counter_delta}")
            if rec.iterations != call.iterations:
                fail(key, f"reported iterations {rec.iterations} != solver's {call.iterations}")
            if probe.traced and call.traced_matvecs != call.counter_delta:
                fail(key, f"traced matvecs {call.traced_matvecs} != counter delta {call.counter_delta}")
            if truth_problem:
                fail(key, truth_problem)
            elif abs(call.truth_lambda1 - known) > TRUTH_RTOL * known:
                fail(key, f"ground-truth lambda1 {call.truth_lambda1!r} != known {known!r}")
            if not abs(call.rayleigh - known) <= LAMBDA_RTOL * known:
                fail(key, f"Rayleigh estimate {call.rayleigh!r} != lambda1 {known!r}")

    record = WORK / "counts" / f"{workload.name}-s{seed}-t{seconds}-{digest}.json"
    if record.exists():
        previous = {tuple(r[:3]): r[3:] for r in json.loads(record.read_text())}
        for e, label, trial, iterations, matvecs in counts:
            if previous.get((e, label, trial)) != [iterations, matvecs]:
                fail((e, label, trial), f"counts {[iterations, matvecs]} differ from an earlier run's "
                     f"{previous.get((e, label, trial))}")
    elif not failures:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts))
    return failures


def _known_lambda1(inputs, truth) -> tuple[float, str | None]:
    """lambda1 the runs must reach, and why it cannot be trusted (or None)."""
    if inputs.lambda1 is not None:
        return inputs.lambda1, None
    import numpy as np

    if truth is None:
        return math.nan, "no ground truth was passed to the solvers"
    u = np.asarray(truth.u1, dtype=float)
    lam = float(truth.lambda1)
    resid = float(np.linalg.norm(inputs.check_matrix @ u - lam * u) / np.linalg.norm(u))
    # the diagonal holds a 1.0 and every Gershgorin disc ends at or below 1.002
    if not (resid <= CERTIFY_RTOL * lam and 1.0 <= lam + 1e-12 and lam <= 1.002):
        return lam, f"reference pair (lambda1={lam!r}, residual={resid:.3e}) fails its certificate"
    return lam, None


# -- metrics ---------------------------------------------------------------------


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def _median(values) -> float:
    """Median, or 0.0 for a layer this workload never called."""
    return statistics.median(values) if values else 0.0


def _end_to_end(experiments, probe, failures) -> tuple[dict, dict]:
    good = [(exp.method(rec.solver), rec) for exp in experiments for rec in exp.records
            if (exp.index, rec.solver, rec.trial) not in failures]
    seconds = {m: [rec.seconds for method, rec in good if method == m] for m in METHODS}
    matvecs = {m: [rec.matvecs for method, rec in good if method == m] for m in METHODS}
    setups = []
    for exp in experiments:
        first = [c.start for c in probe.solves if c.experiment == exp.index]
        if first:
            setups.append(min(first) - exp.start)
    metrics = {
        "wall_s": _metric(_median([x.wall_s for x in experiments]), "s"),
        "setup_s": _metric(_median(setups), "s"),
    }
    # Mean, not median: the spread between seeds comes from how many
    # iterations each random start needs, and the mean of a handful of
    # right-skewed trials varies less between seeds than their median.
    metrics["solve_s.power"] = _metric(_mean(seconds["power"]), "s")
    metrics["speedup_time"] = _metric(_ratio_of_means(seconds["power"], seconds["split_merge"]), "x")
    metrics["speedup_matvecs"] = _metric(_ratio_of_means(matvecs["power"], matvecs["split_merge"]), "x")
    metrics["matvecs_total"] = _metric(sum(rec.matvecs for exp in experiments for rec in exp.records), "count")
    metrics["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    # Printed without a bound. gd_difference and power_momentum run on one
    # workload only. Split-merge's solve time moved ~20% between seeds on
    # dense_paper, where six trials fit in a run; speedup_time (its ratio to
    # power's time on the same trials) carries it with half that spread.
    extras = {f"solve_s.{m}": _metric(_mean(seconds[m]), "s") for m in METHODS if m != "power" and seconds[m]}
    return metrics, extras


def _mean(values) -> float:
    return statistics.fmean(values) if values else math.nan


def _ratio_of_means(base, other) -> float:
    return _mean(base) / _mean(other) if base and other else math.nan


def _layer_metrics(experiments, probe, inputs, hook_cost) -> dict:
    spans = probe.spans
    by_exp = {exp.index: [s for s in spans if s.experiment == exp.index] for exp in experiments}
    calls = [c for c in probe.solves if c.iterations is not None]

    def stage_median(name):
        return _median([sum(s.seconds for s in group if s.name == name) for group in by_exp.values()])

    count = sum(c.traced_matvecs for c in calls)
    matvec_s = sum(c.traced_matvec_s for c in calls)
    solve_s = sum(s.seconds for s in spans if s.name == "solve")
    load_s = stage_median("load_matrix_market")
    metrics = {
        "linop.matvec_count": _metric(count, "count"),
        "linop.matvec_s": _metric(matvec_s, "s"),
        "linop.matvec_us": _metric(1e6 * matvec_s / count if count else 0.0, "us"),
        "linop.matvec_gbps_computed": _metric(
            inputs.bytes_per_matvec * count / matvec_s / 1e9 if matvec_s else 0.0, "GB/s"),
        "linop.load_s": _metric(load_s, "s"),
        "linop.load_mbps": _metric(inputs.file_bytes / 1e6 / load_s if load_s else 0.0, "MB/s"),
        "matgen.generate_s": _metric(stage_median("generate"), "s"),
        "theory.oracle_s": _metric(stage_median("dense_eigendecomposition"), "s"),
        "theory.reference_s": _metric(stage_median("reference_dominant_eigenpair"), "s"),
        "theory.reference_matvecs": _metric(
            sum(s.matvecs for s in spans if s.name == "reference_dominant_eigenpair"), "count"),
        "solvers.self_s": _metric(solve_s - matvec_s, "s"),
        "solvers.self_share": _metric((solve_s - matvec_s) / solve_s if solve_s else 0.0, "ratio"),
    }
    for m in METHODS:
        mine = [c for c in calls if c.method == m]
        # the loop body runs iterations + 1 times: the last pass only measures
        metrics[f"solvers.us_per_iter.{m}"] = _metric(
            _median([1e6 * (c.end - c.start) / (c.iterations + 1) for c in mine]), "us")
        metrics[f"solvers.iterations.{m}"] = _metric(sum(c.iterations for c in mine), "count")
        metrics[f"solvers.retained_mb.{m}"] = _metric(_median([c.retained_bytes / 2**20 for c in mine]), "MiB")

    walk = {e: sum(c.walk_s for c in probe.solves if c.experiment == e) for e in by_exp}
    self_times, overheads = [], []
    for e, group in by_exp.items():
        root = next(s for s in group if s.name == "experiment")
        root_id = spans.index(root)
        children = sum(s.seconds for s in group if s.parent == root_id)
        self_times.append(root.seconds - children - walk[e])
        hooked = sum(s.matvecs for s in group)
        overheads.append(hook_cost * hooked + walk[e])
    metrics["bench.emit_traces_s"] = _metric(stage_median("emit_traces"), "s")
    metrics["bench.trace_rows"] = _metric(sum(x.trace_rows for x in experiments), "count")
    metrics["bench.self_s"] = _metric(_median(self_times), "s")
    metrics["trace.overhead_s"] = _metric(_median(overheads), "s")
    return metrics


def _write_spans(out_dir: Path, probe) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [{"id": i, "name": s.name, "experiment": s.experiment, "parent": s.parent,
             "start": s.start, "end": s.end, "matvecs": s.matvecs, "matvec_s": s.matvec_s, "method": s.method}
            for i, s in enumerate(probe.spans)]
    (out_dir / "spans.json").write_text(json.dumps(rows))


def _print_table(metrics, extras, failed, attempted) -> None:
    print(f"{'metric':<34}{'value':>16}  unit")
    for name, m in metrics.items():
        print(f"{name:<34}{m['value']:>16.6g}  {m['unit']}")
    for name, m in extras.items():
        print(f"{name:<34}{m['value']:>16.6g}  {m['unit']} (printed only, no bound)")
    print(f"{'failed_frac':<34}{failed / attempted if attempted else 0.0:>16.6g}  "
          f"ratio ({failed} of {attempted} solver runs)")


if __name__ == "__main__":
    sys.exit(main())
