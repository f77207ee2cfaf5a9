"""Smoke tests for the experiment scripts, run as subprocesses on tiny cells."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splitmerge import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return done.stdout.splitlines()


def test_speedup_table_prints_harness_ratios(tmp_path):
    lines = _run_script("speedup_table.py", "--n-list", "32", "--gaps", "0.1", "--trials", "2")
    assert lines[0].split() == ["n", "gap", "iter", "x", "matvec", "x", "time", "x"]
    n, gap, it, mv, t = lines[1].split()
    assert (n, gap) == ("32", "1e-01")
    assert float(t) > 0.0

    # the same cell straight through the harness: ratios of means over the trials
    report = run_experiment(ExperimentConfig(n=32, gap=0.1, trials=2, seed=0, out_dir=str(tmp_path)))
    power, sm = report.stats
    assert it == f"{power.mean_iterations / sm.mean_iterations:.2f}"
    assert mv == f"{sm.speedup_matvecs:.2f}"
    assert float(mv) > 1.0


def test_step_size_sweep_writes_per_alpha_traces(tmp_path):
    out = tmp_path / "sweep"
    lines = _run_script(
        "step_size_sweep.py", "--n", "32", "--gap", "0.1", "--alphas", "0.5,0.9", "--out", str(out)
    )
    assert lines[0].startswith("gd_difference(alpha=0.5): ")
    assert lines[0].endswith("matvec speed-up 1.00x")
    assert lines[1].startswith("gd_difference(alpha=0.9): ")
    assert lines[2] == f"traces -> {out}/traces"

    report = json.loads((out / "report.json").read_text())
    assert report["baseline"] == "gd_difference(alpha=0.5)"
    paths = sorted((out / "traces").glob("*.csv"))
    assert [p.name for p in paths] == [
        "gd_difference_alpha_0.5___trial000.csv",
        "gd_difference_alpha_0.9___trial000.csv",
    ]
    for path in paths:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["k"]) for r in rows] == list(range(len(rows)))
        gaps = [float(r["f_minus_fstar"]) for r in rows]
        assert min(gaps) >= -1e-12
        assert gaps[-1] < gaps[0]


def test_kernel_parts_prints_each_part():
    for method in ("power", "gd_difference", "power_momentum", "split_merge"):
        (line,) = _run_script("kernel_parts.py", "--n", "500", "--method", method, "--repeat", "1",
                              "--iters", "3")
        parts = json.loads(line)
        assert (parts["n"], parts["method"]) == (500, method)
        for name in ("matvec", "measure", "reductions", "vectors", "update", "trace_recording",
                     "whole_iteration"):
            assert parts[name] > 0.0, name
        assert ("scalars" in parts) == (method == "split_merge")


def test_reference_sweep_prints_each_cell_and_the_library_call():
    from splitmerge import theory

    lines = _run_script("reference_sweep.py", "--n", "2000", "--seed", "3", "--tols", "0,1e-11",
                        "--ncvs", "4,8")
    rows = [json.loads(line) for line in lines]
    assert [(r["tol"], r["ncv"]) for r in rows[:4]] == [(0.0, 4), (0.0, 8), (1e-11, 4), (1e-11, 8)]
    assert rows[4]["call"] == "reference_dominant_eigenpair"
    assert (rows[4]["tol"], rows[4]["ncv"]) == (theory.REFERENCE_TOL, theory.REFERENCE_NCV)
    for row in rows:
        assert (row["n"], row["seed"]) == (2000, 3)
        assert row["seconds"] > 0.0 and row["matvecs"] > 0
        assert row["rel_residual"] <= theory.REFERENCE_CERTIFY
        assert row["lambda1"] == pytest.approx(rows[0]["lambda1"], rel=1e-12)
    # the library's call is the (REFERENCE_TOL, REFERENCE_NCV) cell plus one residual matvec
    assert rows[4]["matvecs"] == rows[3]["matvecs"] + 1


def _script_module(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stream_memory_measures_a_tree(tmp_path):
    module = _script_module("stream_memory")
    row = module.standalone(ROOT, 1, 0, tmp_path)
    assert 0.0 < row["before_mib"] <= row["peak_mib"]
    emitted = module.emit(ROOT, 2, 5, tmp_path)
    assert emitted["seconds"] > 0.0 and emitted["peak_mb"] > 0.0


def test_stream_memory_identity_of_a_tree_with_itself(tmp_path):
    same = _script_module("stream_memory").identity(ROOT, ROOT, 1, 0, tmp_path)
    assert same["differing"] == []
    assert same["parent_files"] == 6        # four trace CSVs, progress.jsonl and report.json


def test_stream_memory_summary_counts_wins_by_direction():
    module = _script_module("stream_memory")
    pairs = [{"parent": {"rss": p, "speedup": p}, "change": {"rss": c, "speedup": c}}
             for p, c in ((100.0, 80.0), (90.0, 90.0), (95.0, 99.0))]
    metrics = [{"name": "rss", "better": "lower"}, {"name": "speedup", "better": "higher"}]
    summary = module.summarize(pairs, metrics)
    assert summary["rss"]["change_won"] == "1 of 3"        # the tie counts for neither
    assert summary["speedup"]["change_won"] == "1 of 3"
    assert summary["rss"]["parent_q1_median_q3"] == [92.5, 95.0, 97.5]
    assert summary["rss"]["change_q1_median_q3"] == [85.0, 90.0, 94.5]
