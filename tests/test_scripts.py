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
    emitted = module.emit(ROOT, 2, 2000, tmp_path)     # ~10 ms: its seconds are rounded to 1 ms
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


def test_trace_writer_pairs_drives_alternating_pairs(tmp_path, monkeypatch):
    module = _script_module("trace_writer_pairs")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = []

    def fake_perfbench(tree, workload, seed):
        runs.append((tree, workload, seed))
        wall = 9.0 if tree == ROOT.parent else 7.0      # the "parent" tree is slower
        return {"correct": True, "failed": 0, **dict.fromkeys(names, 1.0), "wall_s": wall + seed % 2}

    monkeypatch.setattr(module, "perfbench", fake_perfbench)
    monkeypatch.setattr(module, "identity", lambda *args: {"differing": []})
    monkeypatch.setattr(module, "PAIRS", 2)
    out = tmp_path / "bench.json"
    assert module.main(["--parent", str(ROOT.parent), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [(tree == ROOT, seed) for tree, workload, seed in runs[:4]] == [
        (False, 51), (True, 51), (True, 52), (False, 52),
    ]
    assert [w for _, w, _ in runs[::4]] == list(module.WORKLOADS)
    assert payload["verdict"]["metric"] == "small_file wall_s"
    assert payload["verdict"]["change_lower"] == "2 of 2"
    assert payload["summary"]["small_file"]["wall_s"]["change_won"] == "2 of 2"
    for pair in payload["pairs"]["sparse_file"]:
        assert pair["change"]["leftovers"]["tmp_files"] == 0


def test_trace_writer_pairs_verdict_needs_a_drop_beyond_the_parent_spread():
    module = _script_module("trace_writer_pairs")
    pairs = [{"parent": {"wall_s": p}, "change": {"wall_s": c}}
             for p, c in zip([10.0, 9.0, 11.0, 10.0], [9.5, 8.5, 10.5, 9.5])]
    result = module.verdict(pairs, "wall_s")
    assert result["change_lower"] == "4 of 4"
    assert result["median_drop"] == 0.5 and result["parent_iqr"] == 0.5
    assert not result["met"]


def test_step_pairs_times_each_public_step():
    module = _script_module("step_pairs")
    timed = module.time_steps(ROOT, n=1000, repeat=2)
    assert sorted(timed) == sorted(module.STEPS)
    assert all(ms > 0.0 for ms in timed.values())
    summary = module.summarize({"parent": [timed, timed], "change": [timed, timed]})
    assert all(entry["change_over_parent"] == 1.0 for entry in summary.values())
