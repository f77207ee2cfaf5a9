"""Smoke tests for the experiment scripts, run as subprocesses on tiny cells, and for the
``bench run`` line that the README gives for the step-size sweep."""

import csv
import json
import os
import statistics
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
        (line,) = _run_script("kernel_parts.py", "--n", "500", "--method", method, "--repeat", "3",
                              "--iters", "3")
        parts = json.loads(line)
        assert (parts["n"], parts["method"]) == (500, method)
        assert parts["cpus"] == len(os.sched_getaffinity(0))
        for name in ("matvec", "measure", "reductions", "vectors", "update", "trace_recording",
                     "whole_iteration"):
            assert parts[name] > 0.0, name
        assert (parts["whole_iteration_q1"] <= parts["whole_iteration"]
                <= parts["whole_iteration_q3"])
        loop = sum(parts[p] for p in ("matvec", "measure", "update", "trace_recording"))
        assert parts["rest_of_loop"] == pytest.approx(parts["whole_iteration"] - loop, abs=2e-3)
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


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
SAME = {"parent": ROOT, "change": ROOT}


@pytest.fixture
def pairs():
    module = _script_module("pairs")
    module._ps = lambda: ""         # no test reads the machine's process list
    return module


def _fake_perfbench(parent, metric, values, runs):
    """A perfbench stand-in: every metric 1.0 but ``metric``, values[side] + 0.01 * (seed % 2)."""
    def run(tree, workload, seed):
        runs.append((tree, workload, seed))
        side = "parent" if tree == parent else "change"
        return {"correct": True, "failed": 0, **dict.fromkeys(METRICS, 1.0),
                metric: values[side] + 0.01 * (seed % 2)}
    return run


def _small_extras(pairs, monkeypatch):
    for name, value in (("TRIALS", (1,)), ("EMIT_TRACES", 2), ("EMIT_ROWS", 2000),
                        ("EMIT_ROUNDS", 1), ("IDENTITY_TRIALS", 1), ("GEN_N", 40),
                        ("SIZES", (500,)), ("HANDOFF_ROUNDS", 2), ("HANDOFF_CALLS", 10),
                        ("STEP_N", 1000), ("STEP_REPEAT", 2), ("STEP_ROUNDS", 2)):
        monkeypatch.setattr(pairs, name, value)


def test_stream_extra_measures_each_tree(pairs, tmp_path, monkeypatch):
    _small_extras(pairs, monkeypatch)
    done = pairs.stream(SAME, tmp_path)
    (row,) = done["standalone"]
    assert row["trials"] == 1 and done["standalone_seed"] == pairs.STANDALONE_SEED
    for side in SAME:
        assert 0.0 < row[side]["before_mib"] <= row[side]["peak_mib"]
        (emitted,) = done["emit"][side]        # ~10 ms: its seconds are rounded to 1 ms
        assert emitted["seconds"] > 0.0 and emitted["peak_mb"] > 0.0


def test_identity_extra_of_a_tree_with_itself(pairs, tmp_path, monkeypatch):
    _small_extras(pairs, monkeypatch)
    same = pairs.identity(SAME, tmp_path)["identity"]
    assert same["differing"] == []
    assert same["parent_files"] == 6        # four trace CSVs, progress.jsonl and report.json


def test_gen_extra_hashes_each_file(pairs, tmp_path, monkeypatch):
    _small_extras(pairs, monkeypatch)
    gen = pairs.gen(SAME, tmp_path)["gen"]
    assert gen["n"] == 40 and gen["identical"]
    assert len(gen["parent"]) == len(gen["change"]) == pairs.GEN_ROUNDS
    for run in gen["parent"] + gen["change"]:
        assert run["peak_mib"] > 0.0 and run["seconds"] >= 0.0 and len(run["sha256"]) == 64
    assert list(tmp_path.iterdir()) == []      # each file is deleted once hashed


def test_parts_extra_times_each_part_on_one_cpu_and_on_two(pairs, tmp_path, monkeypatch):
    _small_extras(pairs, monkeypatch)
    timed = pairs.parts(SAME, tmp_path)
    assert timed["handoff_us"]["best"] > 0.0
    assert [(row["n"], row["method"]) for row in timed["parts"]] == [
        (500, method) for method in ("power", "gd_difference", "power_momentum", "split_merge")]
    for row in timed["parts"]:
        assert row["one_cpu"]["cpus"] == 1
        assert row["two_cpus"]["cpus"] == min(2, len(os.sched_getaffinity(0)))
        assert sorted(row["gain"]) == sorted(pairs.TIMED)
        for parts in (row["one_cpu"], row["two_cpus"]):
            assert (parts["whole_iteration_q1"] <= parts["whole_iteration"]
                <= parts["whole_iteration_q3"])


def test_steps_extra_times_each_public_step(pairs, tmp_path, monkeypatch):
    _small_extras(pairs, monkeypatch)
    done = pairs.steps(SAME, tmp_path)
    assert (done["n"], done["seed"], done["repeat"]) == (1000, 0, 2)
    for side in SAME:
        assert len(done["runs"][side]) == 2
        assert all(sorted(run) == sorted(pairs.STEPS) and min(run.values()) > 0.0
                   for run in done["runs"][side])
    for step in pairs.STEPS:
        parent = statistics.median(run[step] for run in done["runs"]["parent"])
        change = statistics.median(run[step] for run in done["runs"]["change"])
        assert done["summary"][step] == {"parent_median_ms": parent, "change_median_ms": change,
                                         "change_over_parent": change / parent}


def test_summary_counts_wins_by_direction(pairs):
    done = [{"parent": {"rss": p, "speedup": p}, "change": {"rss": c, "speedup": c}}
            for p, c in ((100.0, 80.0), (90.0, 90.0), (95.0, 99.0))]
    metrics = [{"name": "rss", "better": "lower"}, {"name": "speedup", "better": "higher"}]
    summary = pairs.summarize(done, metrics)
    assert summary["rss"]["change_won"] == "1 of 3"        # the tie counts for neither
    assert summary["speedup"]["change_won"] == "1 of 3"
    assert summary["rss"]["parent_q1_median_q3"] == [92.5, 95.0, 97.5]
    assert summary["rss"]["change_q1_median_q3"] == [85.0, 90.0, 94.5]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_verdict_needs_a_gain_beyond_the_parent_spread(pairs, better):
    sign = 1.0 if better == "lower" else -1.0       # the same pairs, mirrored for "higher"
    walls = {"parent": [10.0, 9.0, 11.0, 10.0], "change": [9.5, 8.5, 10.5, 9.5]}
    done = [{side: {"m": sign * walls[side][i]} for side in walls} for i in range(4)]
    result = pairs.verdict(done, "m", better)
    assert result == {"change_lower": "4 of 4", "median_drop": 0.5, "parent_iqr": 0.5,
                      "met": False}
    assert pairs.verdict(done, "m", "lower" if better == "higher" else "higher")[
        "change_lower"] == "0 of 4"


def test_alternating_pairs_order_seeds_and_workloads(pairs, capsys):
    trees = {"parent": Path("parent"), "change": Path("change")}
    runs = []

    def run(tree, workload, seed):
        runs.append((tree.name, workload, seed))
        return {"wall_s": float(seed)}

    done = pairs.alternating_pairs(trees, ("a", "b"), 3, 51, run,
                                   after=lambda tree, workload: {"after": (tree.name, workload)})
    assert runs == [(side, workload, seed) for workload in ("a", "b") for seed, order in
                    ((51, ("parent", "change")), (52, ("change", "parent")),
                     (53, ("parent", "change"))) for side in order]
    assert sorted(done) == ["a", "b"]
    for workload, listed in done.items():
        assert [(pair["seed"], pair["first"]) for pair in listed] == [
            (51, "parent"), (52, "change"), (53, "parent")]
        for pair in listed:
            for side in trees:
                assert pair[side] == {"wall_s": float(pair["seed"]), "after": (side, workload)}
    lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [(line["workload"], line["seed"]) for line in lines] == [
        (w, seed) for w in ("a", "b") for seed in (51, 52, 53)]


def test_claim_runs_the_pairs_without_extras(pairs, tmp_path, monkeypatch):
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    runs = []
    fake = _fake_perfbench(parent, "setup_s", {"parent": 3.5, "change": 1.2}, runs)

    def perfbench(tree, workload, seed):
        assert (tree / "perfbench" / "run.py").is_file()
        result = fake(tree, workload, seed)
        if workload == "small_file" and tree == parent:
            result["matvecs_total"] = 2.0
        return result

    for name in pairs.EXTRAS:
        monkeypatch.setitem(pairs.EXTRAS, name, lambda *args: pytest.fail("not asked for"))
    monkeypatch.setattr(pairs, "perfbench", perfbench)
    monkeypatch.setattr(pairs, "PAIRS", 2)
    out = tmp_path / "bench.json"
    assert pairs.main(["--parent", str(parent), "--out", str(out),
                       "--claim", "sparse_file:setup_s", "--first-seed", "121"]) == 0
    payload = json.loads(out.read_text())
    assert list(payload) == ["trees", "host", "pairs_command", "verdict", "summary", "pairs",
                             "script_peak_mib"]
    assert payload["script_peak_mib"] > 0.0
    assert runs[:2] == [(parent, "sparse_file", 121), (ROOT, "sparse_file", 121)]
    assert len(runs) == 4 * len(BENCHMARK["workloads"])
    assert list(payload["pairs"]) == ["sparse_file", "dense_paper", "small_file"]
    for listed in payload["pairs"].values():
        assert [(pair["seed"], pair["first"]) for pair in listed] == [
            (121, "parent"), (122, "change")]
        keys = sorted(["correct", "failed", *METRICS, "leftovers"])
        assert all(sorted(pair["change"]) == keys for pair in listed)
    assert payload["verdict"]["metric"] == "sparse_file setup_s"
    assert payload["verdict"]["change_lower"] == "2 of 2" and payload["verdict"]["met"]
    assert payload["verdict"]["median_ratio"] == pytest.approx(1.205 / 3.505)
    assert {w: entry["matvecs_equal"] for w, entry in payload["summary"].items()} == {
        "sparse_file": True, "dense_paper": True, "small_file": False}
    assert payload["summary"]["sparse_file"]["setup_s"]["change_won"] == "2 of 2"


def test_higher_is_better_claim_is_met(pairs, tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(pairs, "perfbench", _fake_perfbench(
        ROOT.parent, "speedup_time", {"parent": 4.0, "change": 5.0}, runs))
    monkeypatch.setattr(pairs, "PAIRS", 2)
    out = tmp_path / "bench.json"
    assert pairs.main(["--parent", str(ROOT.parent), "--out", str(out),
                       "--claim", "dense_paper:speedup_time"]) == 0
    result = json.loads(out.read_text())["verdict"]
    assert result["metric"] == "dense_paper speedup_time"
    assert result["change_lower"] == "2 of 2"       # counted on the negated values
    assert result["median_drop"] == pytest.approx(1.0) and result["met"]
    assert result["median_ratio"] == pytest.approx(5.005 / 4.005)


@pytest.mark.parametrize("claim", ["sparse_file:setup", "sparse:setup_s", "sparse_file",
                                   "sparse_file:linop.load_s"])
def test_a_bad_claim_is_refused_before_any_run(pairs, tmp_path, monkeypatch, capsys, claim):
    monkeypatch.setattr(pairs, "perfbench", lambda *args: pytest.fail("perfbench ran"))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as stopped:
        pairs.main(["--parent", str(ROOT), "--out", str(out), "--claim", claim])
    assert stopped.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert f"error: argument --claim: {claim!r} is not WORKLOAD:METRIC" in error
    assert not out.exists()


def test_each_perfbench_run_reports_its_leftovers(pairs, tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    traces = parent / ".perfbench_work" / "out" / "sparse_file" / "traces"
    traces.mkdir(parents=True)
    (traces / "t.csv.tmp").write_text("")
    change.mkdir()
    (change / "BENCHMARK.json").symlink_to(ROOT / "BENCHMARK.json")
    monkeypatch.setattr(pairs, "ROOT", change)
    monkeypatch.setattr(pairs, "_ps", lambda: "ARGS\npython3 perfbench/run.py --seed 1\nps\n")
    monkeypatch.setattr(pairs, "perfbench", _fake_perfbench(parent, "wall_s", dict(
        parent=9.0, change=7.0), []))
    monkeypatch.setattr(pairs, "PAIRS", 2)
    out = tmp_path / "bench.json"
    assert pairs.main(["--parent", str(parent), "--out", str(out),
                       "--claim", "small_file:wall_s"]) == 0
    payload = json.loads(out.read_text())
    assert payload["trees"] == {"parent": "not a git checkout", "change": "not a git checkout"}
    for workload, listed in payload["pairs"].items():
        for pair in listed:
            for side in ("parent", "change"):
                left = int(side == "parent" and workload == "sparse_file")
                assert pair[side]["leftovers"] == {"tmp_files": left, "processes": 1}


def test_steps_extra_refuses_a_claim(pairs, tmp_path):
    with pytest.raises(SystemExit) as stopped:
        pairs.main(["--parent", str(ROOT), "--out", str(tmp_path / "x.json"),
                    "--claim", "small_file:wall_s", "--extra", "steps"])
    assert stopped.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_host_names_the_extras_that_inherit_blas_threads(pairs, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert pairs._host(["stream", "identity", "steps"])["blas_threads"] == 1
    assert pairs._host(["parts", "gen"])["blas_threads"] == (
        "1 in perfbench; 2, inherited, in gen and parts")


def _readme_commands():
    """Each ``scripts/pairs.py`` command of the README: its arguments after the script."""
    import shlex

    readme = (ROOT / "README.md").read_text()
    return [shlex.split(line)[2:] for line in readme.splitlines()
            if line.startswith("python3 scripts/pairs.py")]


def test_readme_commands_write_each_bench_files_keys(pairs, tmp_path, monkeypatch):
    _small_extras(pairs, monkeypatch)
    monkeypatch.setattr(pairs, "PAIRS", 2)
    monkeypatch.setattr(pairs, "perfbench", _fake_perfbench(ROOT, "wall_s", dict(
        parent=2.0, change=1.0), []))
    outs = set()
    for args in _readme_commands():
        given = dict(zip(args[::2], args[1::2]))
        outs.add(given["--out"])
        stored = json.loads((ROOT / given["--out"]).read_text())
        args[args.index("--parent") + 1] = str(ROOT)
        args[args.index("--out") + 1] = str(tmp_path / "out.json")
        assert pairs.main(args) == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        assert sorted(payload) == sorted(stored), given["--out"]
        if "--claim" in given:
            assert stored["verdict"]["metric"] == given["--claim"].replace(":", " ")
            assert {listed[0]["seed"] for listed in stored["pairs"].values()} == {
                int(given["--first-seed"])}
            assert sorted(payload["pairs"]) == sorted(stored["pairs"])
    built = {p.name for p in ROOT.glob("BENCH_*.json") if "trees" in json.loads(p.read_text())}
    assert outs == built and len(built) == 9


def test_stored_verdicts_match_their_pairs(pairs):
    checked = 0
    for path in sorted(ROOT.glob("BENCH_*.json")):
        stored = json.loads(path.read_text())
        if not ("pairs" in stored and "verdict" in stored):
            continue
        workload, metric = stored["verdict"]["metric"].split()
        result = pairs.verdict(stored["pairs"][workload], metric, METRICS[metric]["better"])
        assert result["change_lower"] == stored["verdict"]["change_lower"], path.name
        assert result["met"] == stored["verdict"]["met"], path.name
        drop = stored["verdict"].get("median_drop", stored["verdict"].get("median_drop_mib"))
        assert result["median_drop"] == pytest.approx(drop), path.name
        checked += 1
    assert checked == 8


def test_readme_names_each_script_and_no_other():
    import re

    named = set(re.findall(r"scripts/(\w+)\.py", (ROOT / "README.md").read_text()))
    assert named == {path.stem for path in (ROOT / "scripts").glob("*.py")}
