"""Smoke tests for the experiment scripts, run as subprocesses on tiny cells, and for the
``bench run`` line that the README gives for the step-size sweep."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splitmerge import ExperimentConfig, cli, run_experiment

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


def test_step_size_sweep_writes_per_alpha_traces(tmp_path, capsys):
    # the README's step-size sweep is one bench run line: gd_difference at each alpha, one trial
    out = tmp_path / "sweep"
    assert cli.main([
        "run", "--n", "32", "--gap", "0.1",
        "--solvers", "gd_difference(alpha=0.5),gd_difference(alpha=0.9)",
        "--baseline", "gd_difference(alpha=0.5)", "--trials", "1", "--eps", "1e-2",
        "--out", str(out),
    ]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["gd_difference(alpha=0.5)",
                                               "gd_difference(alpha=0.9)"]
    assert rows[0].split()[-1] == "1"      # the baseline's matvec speed-up

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
        assert parts["cpus"] == len(os.sched_getaffinity(0))
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
    assert [r["call"] for r in rows[4:]] == ["reference_dominant_eigenpair", "eigh_tridiagonal"]
    for row in rows:
        assert (row["n"], row["seed"]) == (2000, 3)
        assert row["seconds"] > 0.0
        assert row["rel_residual"] <= theory.REFERENCE_CERTIFY
        assert row["lambda1"] == pytest.approx(rows[0]["lambda1"], rel=1e-12)
    # the library's row counts its own matvecs, fewer than any ARPACK cell's; bisection makes none
    assert 0 < rows[4]["matvecs"] < min(row["matvecs"] for row in rows[:4])
    assert rows[5]["matvecs"] == 0


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


def test_alternating_pairs_order_seeds_and_workloads(capsys):
    module = _script_module("stream_memory")
    trees = {"parent": Path("parent"), "change": Path("change")}
    runs = []

    def run(tree, workload, seed):
        runs.append((tree.name, workload, seed))
        return {"wall_s": float(seed)}

    pairs = module.alternating_pairs(trees, ("a", "b"), 3, 51, run,
                                     after=lambda tree, workload: {"after": (tree.name, workload)})
    assert runs == [(side, workload, seed) for workload in ("a", "b") for seed, order in
                    ((51, ("parent", "change")), (52, ("change", "parent")),
                     (53, ("parent", "change"))) for side in order]
    assert sorted(pairs) == ["a", "b"]
    for workload, done in pairs.items():
        assert [(pair["seed"], pair["first"]) for pair in done] == [
            (51, "parent"), (52, "change"), (53, "parent")]
        for pair in done:
            for side in trees:
                assert pair[side] == {"wall_s": float(pair["seed"]), "after": (side, workload)}
    lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [(line["workload"], line["seed"]) for line in lines] == [
        (w, seed) for w in ("a", "b") for seed in (51, 52, 53)]


def test_stream_memory_claim_runs_the_pairs_alone(tmp_path, monkeypatch):
    module = _script_module("stream_memory")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = []

    def fake_perfbench(tree, workload, seed):
        runs.append((tree, workload, seed))
        setup = 3.5 if tree == ROOT.parent else 1.2      # the "parent" tree sets up slower
        return {"correct": True, "failed": 0, **dict.fromkeys(names, 1.0), "setup_s": setup + seed % 2}

    for skipped in ("standalone", "identity", "emit"):
        monkeypatch.setattr(module, skipped, lambda *args: pytest.fail("not a pairs-only run"))
    monkeypatch.setattr(module, "perfbench", fake_perfbench)
    monkeypatch.setattr(module, "PAIRS", 2)
    out = tmp_path / "bench.json"
    assert module.main(["--parent", str(ROOT.parent), "--out", str(out),
                        "--claim", "sparse_file:setup_s", "--first-seed", "121"]) == 0
    payload = json.loads(out.read_text())
    assert sorted({seed for _, _, seed in runs}) == [121, 122]
    assert len(runs) == 4 * len(module.WORKLOADS)
    assert "standalone" not in payload and "identity" not in payload
    assert payload["verdict"]["metric"] == "sparse_file setup_s"
    assert payload["verdict"]["change_lower"] == "2 of 2"
    assert payload["verdict"]["median_ratio"] == pytest.approx(1.7 / 4.0)
    assert all(entry["matvecs_equal"] for entry in payload["summary"].values())
    assert payload["summary"]["sparse_file"]["setup_s"]["change_won"] == "2 of 2"


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
    assert len(runs) == 4 * len(module.WORKLOADS)
    assert payload["verdict"]["metric"] == "small_file wall_s"
    assert payload["verdict"]["change_lower"] == "2 of 2"
    assert payload["summary"]["small_file"]["wall_s"]["change_won"] == "2 of 2"
    assert runs[:2] == [(ROOT.parent, "small_file", module.FIRST_SEED),
                        (ROOT, "small_file", module.FIRST_SEED)]
    for workload, pairs in payload["pairs"].items():
        assert [(pair["seed"], pair["first"]) for pair in pairs] == [
            (module.FIRST_SEED, "parent"), (module.FIRST_SEED + 1, "change")]
        assert all(sorted(pair[side]["leftovers"]) == ["processes", "tmp_files"]
                   for pair in pairs for side in ("parent", "change"))
    for pair in payload["pairs"]["sparse_file"]:
        assert pair["change"]["leftovers"]["tmp_files"] == 0


def test_trace_writer_pairs_verdict_needs_a_drop_beyond_the_parent_spread(tmp_path, monkeypatch):
    module = _script_module("trace_writer_pairs")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    walls = {"parent": [10.0, 9.0, 11.0, 10.0], "change": [9.5, 8.5, 10.5, 9.5]}

    def fake_perfbench(tree, workload, seed):
        side = "parent" if tree == ROOT.parent else "change"
        return {**dict.fromkeys(names, 1.0), "wall_s": walls[side][seed - module.FIRST_SEED]}

    monkeypatch.setattr(module, "perfbench", fake_perfbench)
    monkeypatch.setattr(module, "identity", lambda *args: {"differing": []})
    monkeypatch.setattr(module, "leftovers", lambda tree, workload: {})
    monkeypatch.setattr(module, "WORKLOADS", ("small_file",))
    monkeypatch.setattr(module, "PAIRS", 4)
    out = tmp_path / "bench.json"
    assert module.main(["--parent", str(ROOT.parent), "--out", str(out)]) == 0
    result = json.loads(out.read_text())["verdict"]
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


def test_two_cpus_times_each_part_on_one_cpu_and_on_two(monkeypatch):
    module = _script_module("two_cpus")
    monkeypatch.setattr(module, "SIZES", (500,))
    timed = module.parts()
    assert timed["handoff_us"]["best"] > 0.0
    assert [(row["n"], row["method"]) for row in timed["parts"]] == [
        (500, method) for method in ("power", "gd_difference", "power_momentum", "split_merge")]
    for row in timed["parts"]:
        assert row["one_cpu"]["cpus"] == 1
        assert row["two_cpus"]["cpus"] == min(2, len(os.sched_getaffinity(0)))
        assert sorted(row["gain"]) == sorted(module.TIMED)


def test_two_cpus_drives_alternating_pairs(tmp_path, monkeypatch):
    module = _script_module("two_cpus")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    runs = []

    def fake_perfbench(tree, workload, seed):
        runs.append((tree, workload, seed))
        assert (tree / "perfbench" / "run.py").is_file()
        power = 2.0 if tree == parent else 1.5      # the parent is slower
        return {"correct": True, "failed": 0, **dict.fromkeys(names, 1.0),
                "solve_s.power": power + 0.01 * (seed % 2)}

    monkeypatch.setattr(module, "perfbench", fake_perfbench)
    monkeypatch.setattr(module, "parts", lambda: {"handoff_us": {"best": 1.0}, "parts": []})
    monkeypatch.setattr(module, "PAIRS", 2)
    out = tmp_path / "bench.json"
    assert module.main(["--parent", str(parent), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert sorted({tree for tree, _, _ in runs}) == sorted([parent, ROOT])
    assert len(runs) == 4 * len(module.WORKLOADS)
    assert payload["verdict"]["metric"] == "sparse_file solve_s.power"
    assert payload["verdict"]["change_lower"] == "2 of 2"
    assert payload["verdict"]["median_drop_share"] == pytest.approx(0.5 / 2.005)
    assert payload["verdict"]["met"] is True      # 25% down, beyond the parent's IQR of 0.005
    assert runs[:2] == [(parent, "sparse_file", module.FIRST_SEED),
                        (ROOT, "sparse_file", module.FIRST_SEED)]
    for workload, pairs in payload["pairs"].items():
        assert [(pair["seed"], pair["first"]) for pair in pairs] == [
            (module.FIRST_SEED, "parent"), (module.FIRST_SEED + 1, "change")]


def test_setup_memory_drives_alternating_pairs_and_gen(tmp_path, monkeypatch):
    module = _script_module("setup_memory")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    parent = tmp_path / "parent"
    parent.mkdir()
    (parent / "src").symlink_to(ROOT / "src")     # the same library: identical files
    runs = []

    def fake_perfbench(tree, workload, seed):
        runs.append((tree, workload, seed))
        peak = 140.0 if tree == parent else 112.0      # the parent peaks higher
        return {"correct": True, "failed": 0, **dict.fromkeys(names, 1.0),
                "peak_rss_mb": peak + seed % 2, "matvecs_total": 84678}

    monkeypatch.setattr(module, "perfbench", fake_perfbench)
    monkeypatch.setattr(module, "PAIRS", 2)
    monkeypatch.setattr(module, "GEN_N", 40)
    out = tmp_path / "bench.json"
    assert module.main(["--parent", str(parent), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert sorted({tree for tree, _, _ in runs}) == sorted([parent, ROOT])
    assert len(runs) == 4 * len(module.WORKLOADS)
    assert payload["verdict"]["metric"] == "dense_paper peak_rss_mb"
    assert payload["verdict"]["change_lower"] == "2 of 2"
    assert payload["verdict"]["median_ratio"] == pytest.approx(112.5 / 140.5)
    assert all(entry["matvecs_equal"] for entry in payload["summary"].values())
    gen = payload["gen"]
    assert gen["n"] == 40 and gen["identical"]
    assert len(gen["parent"]) == len(gen["change"]) == module.GEN_ROUNDS
    for run in gen["parent"] + gen["change"]:
        assert run["peak_mib"] > 0.0 and run["seconds"] >= 0.0
    assert payload["script_peak_mib"] > 0.0
