import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from splitmerge import (
    DenseOperator,
    DominantReference,
    ExperimentConfig,
    load_config,
    load_matrix_market,
    run_experiment,
)
from splitmerge import worker
from splitmerge.bench import SETTINGS, TRACE_HEADER, RunReport, SolverSetting, parse_solver_list
from splitmerge.cli import main as cli_main
from splitmerge.errors import ConfigError


# a value other than the default for every config key, as its text
SAMPLE_SETTINGS = {
    "source": "matrix_market", "n": "48", "gap": "0.05", "matrix": "m.mtx",
    "solvers": "power, gd_difference(alpha=0.9)", "baseline": "gd_difference", "trials": "7",
    "eps": "1e-4", "max_iter": "500", "seed": "3", "out": "results", "stop_mode": "residual",
    "residual_tol": "1e-9", "dense_limit": "100",
}


def _config(tmp_path, **overrides):
    base = dict(
        source="synthetic", n=24, gap=0.2, trials=3, seed=0,
        out_dir=str(tmp_path / "out"),
        solvers=[SolverSetting("power"), SolverSetting("split_merge")],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _solve_results(monkeypatch):
    """The list that every SolveResult bench.solve returns is appended to, in call order."""
    import splitmerge.bench as harness

    results = []
    real_solve = harness.solve

    def spy(op, config, ground_truth=None, x0=None):
        result = real_solve(op, config, ground_truth=ground_truth, x0=x0)
        results.append(result)
        return result

    monkeypatch.setattr(harness, "solve", spy)
    return results


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


class TestRunExperiment:
    def test_deterministic_across_reruns(self, tmp_path):
        report_a = run_experiment(_config(tmp_path / "a", trials=1))
        report_b = run_experiment(_config(tmp_path / "b", trials=1))
        for rec_a, rec_b in zip(report_a.records, report_b.records):
            assert rec_a.iterations == rec_b.iterations
            assert rec_a.matvecs == rec_b.matvecs
        for path_a, path_b in zip(report_a.trace_paths, report_b.trace_paths):
            head_a, rows_a = _read_csv(path_a)
            head_b, rows_b = _read_csv(path_b)
            for row_a, row_b in zip(rows_a, rows_b):
                # all columns except wall-clock seconds are bit-identical
                assert row_a[:6] == row_b[:6]
                assert row_a[7] == row_b[7]

    def test_traces_match_report(self, tmp_path):
        from splitmerge.bench import _slug

        report = run_experiment(_config(tmp_path))
        by_solver = {}
        for path in report.trace_paths:
            header, rows = _read_csv(path)
            assert header == TRACE_HEADER.split(",")
            name = Path(path).name.split("__")[0]
            by_solver.setdefault(name, []).append(rows)
        for stats in report.stats:
            rows_per_trial = by_solver[_slug(stats.solver)]
            iterations = [int(rows[-1][0]) for rows in rows_per_trial]
            matvecs = [int(rows[-1][5]) for rows in rows_per_trial]
            assert statistics.fmean(iterations) == pytest.approx(stats.mean_iterations, abs=1e-12)
            assert statistics.fmean(matvecs) == pytest.approx(stats.mean_matvecs, abs=1e-12)
            assert statistics.median(iterations) == pytest.approx(stats.median_iterations, abs=1e-12)

    def test_report_json_written(self, tmp_path):
        config = _config(tmp_path)
        run_experiment(config)
        payload = json.loads((Path(config.out_dir) / "report.json").read_text())
        assert payload["baseline"] == "power"
        assert {s["solver"] for s in payload["solvers"]} == {"power", "split_merge"}
        assert len(payload["trials"]) == 6

    def test_matvec_totals_exact(self, tmp_path, monkeypatch):
        results = _solve_results(monkeypatch)
        report = run_experiment(_config(tmp_path, trials=2))
        # solves run trial by trial, solvers in config order
        by_key = dict(zip([(s, t) for t in range(2) for s in ("power", "split_merge")], results))
        for rec in report.records:
            assert rec.result is None    # its trace is on disk
            result = by_key[rec.solver, rec.trial]
            assert rec.matvecs == result.trace.matvecs[-1]
            per_iter = 2 if rec.solver == "split_merge" else 1
            assert rec.matvecs == per_iter * (rec.iterations + 1)

    def test_sin_theta_monotone_for_power(self, tmp_path):
        report = run_experiment(_config(tmp_path, n=4, trials=2))
        for path in report.trace_paths:
            if "power" not in Path(path).name:
                continue
            _, rows = _read_csv(path)
            sins = [float(r[1]) for r in rows]
            assert all(b <= a + 1e-9 for a, b in zip(sins, sins[1:]))

    def test_f_minus_fstar_nonnegative(self, tmp_path):
        report = run_experiment(_config(tmp_path))
        for path in report.trace_paths:
            _, rows = _read_csv(path)
            gaps = [float(r[2]) for r in rows]
            assert all(g >= -1e-12 for g in gaps)

    def test_neg_zeta_over_omega_column(self, tmp_path):
        report = run_experiment(_config(tmp_path, trials=1))
        for path in report.trace_paths:
            _, rows = _read_csv(path)
            values = [r[7] for r in rows]
            if "split_merge" in Path(path).name:
                assert any(v != "" for v in values)
                floats = [float(v) for v in values if v != ""]
                assert all(math.isfinite(v) for v in floats)
            else:
                assert all(v == "" for v in values)

    def test_speedup_definition(self, tmp_path):
        report = run_experiment(_config(tmp_path))
        stats = {s.solver: s for s in report.stats}
        base = stats["power"]
        assert base.speedup_time == pytest.approx(1.0)
        assert stats["split_merge"].speedup_matvecs == pytest.approx(
            base.mean_matvecs / stats["split_merge"].mean_matvecs
        )

    def test_workers_other_than_one_rejected(self, tmp_path):
        _config(tmp_path, workers=1).validate()
        with pytest.raises(ConfigError, match="workers"):
            _config(tmp_path, workers=2).validate()
        assert cli_main(["run", "--workers", "2"]) == 1

    def test_matrix_market_source_with_residual_stop(self, tmp_path):
        mtx = tmp_path / "m.mtx"
        assert cli_main(["gen", "--n", "12", "--gap", "0.2", "--seed", "3", "--out", str(mtx)]) == 0
        config = _config(tmp_path, source="matrix_market", matrix_path=str(mtx),
                         stop_mode="residual", trials=2)
        report = run_experiment(config)
        for rec in report.records:
            assert rec.converged
        for path in report.trace_paths:
            _, rows = _read_csv(path)
            assert all(r[1] == "" for r in rows)   # no oracle: sin column empty
            assert all(r[2] == "" for r in rows)   # and no f* reference

    def test_matrix_market_source_with_oracle(self, tmp_path):
        mtx = tmp_path / "m.mtx"
        cli_main(["gen", "--n", "10", "--gap", "0.3", "--seed", "1", "--out", str(mtx)])
        config = _config(tmp_path, source="matrix_market", matrix_path=str(mtx), trials=2)
        report = run_experiment(config)
        for rec in report.records:
            assert rec.converged
        for path in report.trace_paths:
            _, rows = _read_csv(path)
            assert float(rows[-1][1]) <= 1e-5

    def test_matrix_market_above_dense_limit_uses_certified_reference(self, tmp_path, monkeypatch):
        import splitmerge.bench as harness

        truths = []
        real_solve = harness.solve

        def spy(*args, **kwargs):
            truths.append(kwargs["ground_truth"])
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(harness, "solve", spy)
        mtx = tmp_path / "big.mtx"
        cli_main(["gen", "--n", "12", "--gap", "0.3", "--seed", "2", "--out", str(mtx)])
        config = _config(tmp_path, source="matrix_market", matrix_path=str(mtx),
                         trials=1, dense_limit=4)
        report = run_experiment(config)
        for rec in report.records:
            assert rec.converged
        assert len(truths) == len(report.records)
        dense = load_matrix_market(mtx).to_dense()
        for truth in truths:
            assert isinstance(truth, DominantReference)
            resid = np.linalg.norm(dense @ truth.u1 - truth.lambda1 * truth.u1)
            assert resid <= 1e-10 * truth.lambda1
        # the reference's own counter, not the shared operator's, gives its stage line
        stages = [line for line in _progress(config) if "stage" in line]
        assert [line["stage"] for line in stages] == [
            "load_matrix_market", "reference_dominant_eigenpair",
        ]
        assert stages[1]["matvecs"] == truths[0].matvecs > 0

    def test_seconds_column_round_trips_report(self, tmp_path):
        from splitmerge.bench import _slug

        report = run_experiment(_config(tmp_path, trials=2))
        by_key = {}
        for path in report.trace_paths:
            _, rows = _read_csv(path)
            name = Path(path).name
            solver, trial = name.split("__trial")
            by_key[(solver, int(trial.split(".")[0]))] = float(rows[-1][6])
        for rec in report.records:
            assert by_key[(_slug(rec.solver), rec.trial)] == rec.seconds

    def test_momentum_auto_beta_accelerates(self, tmp_path):
        # beta=auto resolves to the ideal lambda2^2/4 from the exact spectrum
        config = _config(
            tmp_path, n=32, gap=0.05, trials=3,
            solvers=[SolverSetting("power"), SolverSetting("power_momentum", {"beta": "auto"})],
        )
        report = run_experiment(config)
        stats = {s.solver: s for s in report.stats}
        momentum = stats["power_momentum(beta=auto)"]
        assert momentum.non_converged == 0 and momentum.breakdowns == 0
        assert momentum.mean_iterations < stats["power"].mean_iterations

    def test_momentum_auto_beta_without_spectrum_is_config_error(self, tmp_path):
        mtx = tmp_path / "m.mtx"
        cli_main(["gen", "--n", "8", "--gap", "0.2", "--seed", "0", "--out", str(mtx)])
        config = _config(
            tmp_path, source="matrix_market", matrix_path=str(mtx),
            stop_mode="residual", trials=1,
            solvers=[SolverSetting("power_momentum", {"beta": "auto"})],
            baseline="power_momentum",
        )
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_solver_breakdowns_counted_not_fatal(self, tmp_path):
        # beta=auto needs a spectrum; with residual stop on synthetic the
        # spectrum exists, so instead force breakdowns via a huge beta that
        # cannot converge -> counted as non-converged, not an exception
        config = _config(
            tmp_path, trials=2,
            solvers=[SolverSetting("power"), SolverSetting("power_momentum", {"beta": 50.0})],
        )
        report = run_experiment(config)
        stats = {s.solver: s for s in report.stats}
        label = "power_momentum(beta=50.0)"
        assert stats[label].breakdowns + stats[label].non_converged > 0

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(_config(tmp_path, trials=0))
        with pytest.raises(ConfigError):
            run_experiment(_config(tmp_path, trials=2.5))
        with pytest.raises(ConfigError):
            run_experiment(_config(tmp_path, solvers=[]))
        with pytest.raises(ConfigError):
            run_experiment(_config(tmp_path, baseline="nope"))
        with pytest.raises(ConfigError):
            run_experiment(_config(tmp_path, source="matrix_market", matrix_path=None))
        with pytest.raises(ConfigError):
            run_experiment(_config(tmp_path, dense_limit=0))
        # each method takes only its own parameter
        with pytest.raises(ConfigError, match="alpha"):
            run_experiment(_config(tmp_path, solvers=parse_solver_list("power(alpha=0.3)")))
        with pytest.raises(ConfigError, match="beta"):
            run_experiment(_config(tmp_path, solvers=parse_solver_list("split_merge(beta=0.1)")))

    @pytest.mark.parametrize("overrides, message", [
        (dict(n=2.5), "n must be an integer, got 2.5"),
        (dict(seed=0.5), "seed must be an integer >= 0, got 0.5"),
        (dict(seed=-1), "seed must be an integer >= 0, got -1"),
        (dict(dense_limit=2.5), "dense_limit must be an integer >= 1, got 2.5"),
        # a file's seed only seeds the start vectors, and is checked all the same
        (dict(source="matrix_market", matrix_path="m.mtx", seed=-1),
         "seed must be an integer >= 0, got -1"),
    ])
    def test_integer_fields_are_config_errors(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError) as info:
            run_experiment(_config(tmp_path, **overrides))
        assert str(info.value) == message
        assert not (tmp_path / "out").exists()

    def test_synthetic_n_above_dense_limit_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="n = 65 is above dense_limit = 64"):
            _config(tmp_path, n=65, dense_limit=64).validate()
        _config(tmp_path, n=64, dense_limit=64).validate()

    def test_bad_solver_setting_fails_before_loading(self, tmp_path, monkeypatch):
        import splitmerge.bench as harness

        def no_load(path):
            pytest.fail("the matrix was loaded before the solver settings were checked")

        monkeypatch.setattr(harness, "load_matrix_market", no_load)
        config = _config(
            tmp_path, source="matrix_market", matrix_path=str(tmp_path / "m.mtx"),
            solvers=parse_solver_list("power, gd_difference(alpha=2.0)"),
        )
        with pytest.raises(ConfigError, match=r"gd_difference\(alpha=2.0\)"):
            run_experiment(config)

    def test_auto_beta_in_residual_mode_fails_before_loading(self, tmp_path, monkeypatch):
        import splitmerge.bench as harness

        def no_load(path):
            pytest.fail("the matrix was loaded although beta=auto cannot be resolved")

        monkeypatch.setattr(harness, "load_matrix_market", no_load)
        config = _config(
            tmp_path, source="matrix_market", matrix_path=str(tmp_path / "m.mtx"),
            stop_mode="residual", solvers=parse_solver_list("power, power_momentum(beta=auto)"),
        )
        with pytest.raises(ConfigError, match="beta=auto"):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    def test_auto_beta_above_dense_limit_fails_before_reference(self, tmp_path, monkeypatch):
        import splitmerge.bench as harness

        def no_reference(op):
            pytest.fail("the ARPACK reference was computed although beta=auto cannot use it")

        op = DenseOperator(np.diag(np.arange(8.0, 0.0, -1.0)))
        monkeypatch.setattr(harness, "load_matrix_market", lambda path: op)
        monkeypatch.setattr(harness, "reference_dominant_eigenpair", no_reference)
        config = _config(
            tmp_path, source="matrix_market", matrix_path=str(tmp_path / "m.mtx"),
            dense_limit=4, solvers=parse_solver_list("power, power_momentum(beta=auto)"),
        )
        with pytest.raises(ConfigError, match="beta=auto"):
            run_experiment(config)
        assert not (tmp_path / "out").exists()


class TestStreaming:
    def test_progress_lines_in_event_order(self, tmp_path):
        config = _config(tmp_path, trials=2)
        report = run_experiment(config)
        lines = _progress(config)
        assert [(line.get("stage"), line.get("solver"), line["trial"]) for line in lines] == [
            ("generate", None, 0), (None, "power", 0), (None, "split_merge", 0),
            ("generate", None, 1), (None, "power", 1), (None, "split_merge", 1),
        ]
        assert set(lines[0]) == {"stage", "trial", "seconds", "matvecs"}
        assert lines[0]["matvecs"] == 0 and lines[0]["seconds"] > 0.0
        records = {(r.solver, r.trial): r for r in report.records}
        for line in lines:
            if "solver" not in line:
                continue
            rec = records[line["solver"], line["trial"]]
            assert line == {
                "solver": rec.solver, "trial": rec.trial, "seconds": rec.seconds,
                "matvecs": rec.matvecs, "iterations": rec.iterations,
                "converged": rec.converged, "stop_reason": rec.stop_reason, "error": rec.error,
                "trace": line["trace"],
            }
            assert line["trace"] in report.trace_paths
        assert report.trace_paths == sorted(report.trace_paths)

    def test_dense_oracle_stage_and_failed_run_lines(self, tmp_path):
        mtx = tmp_path / "m.mtx"
        cli_main(["gen", "--n", "10", "--gap", "0.3", "--seed", "1", "--out", str(mtx)])
        config = _config(tmp_path, source="matrix_market", matrix_path=str(mtx), trials=1,
                         solvers=[SolverSetting("power"),
                                  SolverSetting("split_merge", {"rho_policy": 1e-9})])
        run_experiment(config)
        lines = _progress(config)
        assert [line.get("stage") for line in lines[:2]] == [
            "load_matrix_market", "dense_eigendecomposition",
        ]
        assert all(line["trial"] is None and line["matvecs"] == 0 for line in lines[:2])
        failed = lines[3]
        assert failed["error"].startswith("SigmaNotPositiveError")
        assert failed["trace"] is None and failed["stop_reason"] == "error"

    def test_interrupted_run_keeps_finished_trials(self, tmp_path, monkeypatch):
        import splitmerge.bench as harness

        k = 2
        real_solve = harness.solve
        calls = []

        def interrupt(op, config, ground_truth=None, x0=None):
            calls.append(config.method)
            if len(calls) == 2 * k + 1:     # trial k's first solve
                raise KeyboardInterrupt
            return real_solve(op, config, ground_truth=ground_truth, x0=x0)

        monkeypatch.setattr(harness, "solve", interrupt)
        config = _config(tmp_path, trials=k + 2)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config)
        out = Path(config.out_dir)
        assert sorted(p.name for p in (out / "traces").iterdir()) == [
            f"{solver}__trial{t:03d}.csv" for solver in ("power", "split_merge") for t in range(k)
        ]
        lines = _progress(config)
        runs = [(line["solver"], line["trial"]) for line in lines if "solver" in line]
        assert runs == [(solver, t) for t in range(k) for solver in ("power", "split_merge")]
        assert [line["trial"] for line in lines if "stage" in line] == list(range(k + 1))
        assert not (out / "report.json").exists()

    def test_rerun_truncates_progress(self, tmp_path):
        config = _config(tmp_path, trials=2)
        run_experiment(config)
        config.trials = 1
        run_experiment(config)
        assert len(_progress(config)) == 3

    def test_trace_longer_than_one_block_matches_one_shot_format(self, tmp_path):
        from splitmerge.bench import _TRACE_ROW, TRACE_BLOCK, emit_traces
        from splitmerge.solvers import IterationTrace

        rows = 2 * TRACE_BLOCK + 3
        rng = np.random.default_rng(5)
        columns = rng.standard_normal((5, rows))
        columns[0, ::7] = math.nan                 # sin theta missing on some rows
        trace = IterationTrace(
            method="split_merge", sin_theta=list(columns[0]), f_value=list(columns[1]),
            rayleigh=list(columns[2]), residual=list(columns[3]),
            matvecs=list(range(2, 2 * rows + 2, 2)), seconds=list(np.abs(columns[4])),
            coeffs=[_coeffs(z, 0.0 if i % 5 == 0 else 0.3) for i, z in enumerate(columns[4])],
        )
        (path,) = emit_traces([_record("split_merge", 0, trace, f_star=-0.25)], tmp_path)
        nzo = [c.neg_zeta_over_omega for c in trace.coeffs]
        table = np.column_stack([
            np.arange(rows), trace.sin_theta, np.asarray(trace.f_value) + 0.25, trace.rayleigh,
            trace.residual, trace.matvecs, trace.seconds, nzo,
        ])
        one_shot = (_TRACE_ROW * rows) % tuple(table.ravel().tolist())
        expected = TRACE_HEADER + "\r\n" + one_shot.replace(",nan", ",")
        assert path.read_bytes() == expected.encode()


def _counting_forks(monkeypatch):
    """The trace writer's children's pids; a fork before the last child was reaped fails."""
    import os

    real_fork, real_waitpid = os.fork, os.waitpid
    forked, reaped = [], set()

    def fork():
        assert reaped.issuperset(forked), "a second write in flight"
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def waitpid(pid, options):
        done = real_waitpid(pid, options)
        reaped.add(done[0])
        return done

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return forked, reaped


def _no_fork(monkeypatch):
    import os

    def refuse():
        pytest.fail("the trace writer forked a child")

    monkeypatch.setattr(os, "fork", refuse)


def _assert_no_child_left():
    import os

    with pytest.raises(ChildProcessError):    # no child at all, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def _long_config(tmp_path, **overrides):
    """Runs to max_iter: each trial's two traces hold just over TRACE_BLOCK rows together."""
    from splitmerge.bench import TRACE_BLOCK

    return _config(tmp_path, gap=1e-3, stop_mode="residual", residual_tol=1e-300,
                   max_iter=TRACE_BLOCK // 2 + 50, **overrides)


class TestTraceWriter:
    """Every trial but the last is written by a forked child while the next trial solves."""

    def test_helper_csvs_are_the_inline_bytes(self, tmp_path, monkeypatch):
        from splitmerge.bench import TrialRecord, emit_traces

        monkeypatch.setattr(worker, "cpus", lambda: 2)     # the children even on one CPU
        forked, reaped = _counting_forks(monkeypatch)
        results = _solve_results(monkeypatch)
        report = run_experiment(_long_config(tmp_path, trials=4))
        assert len(forked) == 3 and reaped.issuperset(forked)
        _assert_no_child_left()
        # solves run trial by trial, solvers in config order; records are in (solver, trial) order
        by_key = dict(zip([(s, t) for t in range(4) for s in ("power", "split_merge")], results))
        inline = [TrialRecord(rec.solver, rec.trial, rec.converged, rec.iterations, rec.matvecs,
                              rec.seconds, result=by_key[rec.solver, rec.trial], f_star=rec.f_star)
                  for rec in report.records]
        expected = emit_traces(inline, tmp_path / "inline")
        assert [Path(p).name for p in report.trace_paths] == [p.name for p in expected]
        for got, want in zip(report.trace_paths, expected):
            assert Path(got).read_bytes() == want.read_bytes()

    def test_helper_ignores_sigint_at_the_lowest_priority(self, tmp_path, monkeypatch):
        import os
        import signal

        import splitmerge.bench as harness

        seen = tmp_path / "seen.jsonl"
        real_emit = harness.emit_traces

        def emit(records, out_dir):
            with open(seen, "a") as fh:
                fh.write(json.dumps([os.getpid(), signal.getsignal(signal.SIGINT) == signal.SIG_IGN,
                                     os.nice(0)]) + "\n")
            return real_emit(records, out_dir)

        monkeypatch.setattr(harness, "emit_traces", emit)
        monkeypatch.setattr(worker, "cpus", lambda: 2)
        run_experiment(_long_config(tmp_path, trials=3))
        calls = [json.loads(line) for line in seen.read_text().splitlines()]
        children = [(ignored, niceness) for pid, ignored, niceness in calls if pid != os.getpid()]
        assert children == [(True, 19), (True, 19)] and len(calls) == 3

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_write_failure_is_an_io_error(self, tmp_path, monkeypatch, capsys, cpus):
        import shutil

        import splitmerge.bench as harness

        monkeypatch.setattr(worker, "cpus", lambda: cpus)
        out = tmp_path / "out"
        real_solve = harness.solve
        calls = []

        def break_traces(op, config, ground_truth=None, x0=None):
            calls.append(config.method)
            if len(calls) == 2:      # trial 0's last solve: traces/ becomes a file
                shutil.rmtree(out / "traces")
                (out / "traces").write_text("")
            return real_solve(op, config, ground_truth=ground_truth, x0=x0)

        monkeypatch.setattr(harness, "solve", break_traces)
        config = _long_config(tmp_path, trials=3)
        with pytest.raises(OSError):
            run_experiment(config)
        calls.clear()
        shutil.rmtree(out)
        cfg = tmp_path / "long.cfg"
        cfg.write_text("".join(f"{key} = {getattr(config, key)}\n" for key in (
            "n", "gap", "trials", "stop_mode", "residual_tol", "max_iter")))
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1

    def test_a_childs_failure_is_raised_at_the_next_trial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker, "cpus", lambda: 2)
        config = _long_config(tmp_path, trials=3)
        blocked = Path(config.out_dir) / "traces" / "power__trial000.csv"
        blocked.mkdir(parents=True)     # the child's rename onto it fails; later writes do not
        with pytest.raises(OSError, match="^IsADirectoryError: "):
            run_experiment(config)
        assert [line["trial"] for line in _progress(config) if "solver" in line] == [0, 0]
        _assert_no_child_left()

    @pytest.mark.parametrize("case", ["one_cpu", "one_trial", "few_rows"])
    def test_no_helper_where_it_cannot_pay(self, tmp_path, monkeypatch, case):
        import os

        _no_fork(monkeypatch)
        trials = 1 if case == "one_trial" else 3
        if case == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        else:
            monkeypatch.setattr(worker, "cpus", lambda: 2)
        make = _config if case == "few_rows" else _long_config
        report = run_experiment(make(tmp_path, trials=trials))
        traces = Path(report.trace_paths[0]).parent
        assert sorted(p.name for p in traces.iterdir()) == [
            f"{solver}__trial{t:03d}.csv" for solver in ("power", "split_merge")
            for t in range(trials)
        ]
        for rec in report.records:
            _, rows = _read_csv(traces / f"{rec.solver}__trial{rec.trial:03d}.csv")
            assert len(rows) == rec.iterations + 1

    def test_no_partial_csv_after_an_interrupted_write(self, tmp_path, monkeypatch):
        import splitmerge.bench as harness

        real_rows = harness._write_rows
        written = []

        def interrupt(fh, columns, f_star):
            real_rows(fh, columns, f_star)
            written.append(sorted(p.name for p in Path(fh.name).parent.iterdir()))
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "_write_rows", interrupt)
        config = _config(tmp_path, trials=1)    # one trial: written in this process
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config)
        assert written == [["power__trial000.csv.tmp"]]     # only the temporary name, while written
        assert list((Path(config.out_dir) / "traces").iterdir()) == []

    def test_no_tmp_file_or_process_left(self, tmp_path, monkeypatch):
        import splitmerge.bench as harness

        monkeypatch.setattr(worker, "cpus", lambda: 2)
        config = _long_config(tmp_path, trials=3)
        run_experiment(config)
        traces = Path(config.out_dir) / "traces"
        assert len(list(traces.glob("*.csv"))) == 6 and list(traces.glob("*.tmp")) == []
        _assert_no_child_left()

        real_solve = harness.solve
        calls = []

        def interrupt(op, config, ground_truth=None, x0=None):
            calls.append(config.method)
            if len(calls) == 5:     # trial 2's first solve, with trial 1 in a child
                raise KeyboardInterrupt
            return real_solve(op, config, ground_truth=ground_truth, x0=x0)

        monkeypatch.setattr(harness, "solve", interrupt)
        config = _long_config(tmp_path / "interrupted", trials=4)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config)
        traces = Path(config.out_dir) / "traces"
        assert sorted(p.name for p in traces.iterdir()) == [
            f"{solver}__trial{t:03d}.csv" for solver in ("power", "split_merge") for t in range(2)
        ]
        _assert_no_child_left()

    def test_children_never_flush_the_parents_buffers(self, tmp_path):
        import os
        import subprocess
        import sys

        script = (
            "import os, sys\n"
            "from splitmerge import ExperimentConfig, run_experiment, worker\n"
            "from splitmerge.bench import TRACE_BLOCK\n"
            "worker.cpus = lambda: 2\n"
            "real_fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or real_fork()\n"
            "print('marker', end='')    # buffered: stdout is a pipe\n"
            "run_experiment(ExperimentConfig(n=24, gap=1e-3, trials=3, stop_mode='residual',\n"
            "    residual_tol=1e-300, max_iter=TRACE_BLOCK // 2 + 50, out_dir='out'))\n"
            "print(len(forks), file=sys.stderr)\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        env.pop("PYTHONUNBUFFERED", None)    # the marker must wait in the buffer
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        assert done.stderr.split() == ["2"] and done.stdout == "marker"


def _progress(config):
    text = (Path(config.out_dir) / "progress.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()]


def test_auto_beta_on_a_one_by_one_file_leaves_no_output(tmp_path):
    mtx = tmp_path / "one.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 2.0\n")
    config = _config(tmp_path, source="matrix_market", matrix_path=str(mtx),
                     solvers=parse_solver_list("power, power_momentum(beta=auto)"))
    with pytest.raises(ConfigError, match="beta=auto"):
        run_experiment(config)
    assert not (tmp_path / "out").exists()


def test_unreadable_matrix_leaves_no_output(tmp_path):
    out = tmp_path / "a" / "b" / "out"
    config = _config(tmp_path, source="matrix_market", matrix_path=str(tmp_path / "none.mtx"),
                     out_dir=str(out))
    with pytest.raises(OSError):
        run_experiment(config)
    assert list(tmp_path.iterdir()) == []       # the parents made for out are gone too


def test_failed_set_up_keeps_an_existing_output_directory(tmp_path, monkeypatch):
    import splitmerge.bench as harness
    from splitmerge.errors import OracleConvergenceError

    def no_oracle(op, dense_limit):
        raise OracleConvergenceError("no convergence")

    monkeypatch.setattr(harness, "load_matrix_market", lambda path: DenseOperator(np.eye(3)))
    monkeypatch.setattr(harness, "dense_eigendecomposition", no_oracle)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(OracleConvergenceError):
        run_experiment(_config(tmp_path, source="matrix_market", matrix_path="m.mtx"))
    assert (out / "traces").is_dir()


class TestConfigParsing:
    def test_solver_list_grammar(self):
        settings = parse_solver_list("power, split_merge, gd_difference(alpha=0.9)")
        assert [s.method for s in settings] == ["power", "split_merge", "gd_difference"]
        assert settings[2].params == {"alpha": 0.9}
        assert settings[2].label == "gd_difference(alpha=0.9)"
        # empty parentheses are accepted and mean no parameter
        assert [s.label for s in parse_solver_list("power(), split_merge( )")] == [
            "power", "split_merge",
        ]

    def test_solver_list_multiple_params(self):
        (setting,) = parse_solver_list("power_momentum(beta=auto)")
        assert setting.params == {"beta": "auto"}

    def test_bad_solver_entry(self):
        # an entry sets at most one key=value
        for text in ("gd_difference(alpha)", "gd_difference(alpha=0.9, beta=0.1)"):
            with pytest.raises(ConfigError):
                parse_solver_list(text)

    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "# comment\n"
            "source = synthetic\n"
            "n = 48\n"
            "gap = 1e-2   # trailing comment\n"
            "solvers = power, split_merge, gd_difference(alpha=0.9)\n"
            "trials = 7\n"
            "eps = 1e-4\n"
            "max_iter = 500\n"
            "seed = 3\n"
            "out = results\n"
            "stop_mode = oracle\n"
        )
        config = load_config(cfg)
        assert config.n == 48
        assert config.gap == pytest.approx(1e-2)
        assert len(config.solvers) == 3
        assert config.trials == 7
        assert config.eps == pytest.approx(1e-4)
        assert config.out_dir == "results"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 3\n")
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_workers_key_is_unknown(self, tmp_path):
        cfg = tmp_path / "workers.cfg"
        cfg.write_text("workers = 2\n")
        with pytest.raises(ConfigError, match="unknown key 'workers'"):
            load_config(cfg)

    def test_matrix_without_source_loads_the_file(self, tmp_path):
        mtx = tmp_path / "m.mtx"
        assert cli_main(["gen", "--n", "10", "--gap", "0.3", "--seed", "1", "--out", str(mtx)]) == 0
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"matrix = {mtx}\nn = 32\ntrials = 1\nout = {tmp_path / 'out'}\n")
        config = load_config(cfg)
        assert (config.source, config.matrix_path) == ("matrix_market", str(mtx))
        run_experiment(config)
        stages = [line.get("stage") for line in _progress(config)]
        assert stages[:2] == ["load_matrix_market", "dense_eigendecomposition"]

    @pytest.mark.parametrize("text", ["matrix = m.mtx\nsource = synthetic\n",
                                      "source = synthetic\nmatrix = m.mtx\n"])
    def test_synthetic_source_with_a_matrix_is_config_error(self, tmp_path, text):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match="a synthetic source takes no matrix"):
            load_config(cfg).validate()

    @pytest.mark.parametrize("key", sorted(SETTINGS))
    def test_each_key_sets_the_same_field_from_a_file_and_from_its_flag(
        self, tmp_path, monkeypatch, key
    ):
        import splitmerge.cli as cli

        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"{key} = {SAMPLE_SETTINGS[key]}\n")
        from_file = load_config(cfg)
        seen = []

        def capture(config):
            seen.append(config)
            return RunReport(baseline=config.baseline, stats=[], records=[], trace_paths=[])

        monkeypatch.setattr(cli, "run_experiment", capture)
        flag = "--" + key.replace("_", "-")
        assert cli_main(["run", flag, SAMPLE_SETTINGS[key]]) == 0
        field = SETTINGS[key][0]
        assert getattr(from_file, field) != getattr(ExperimentConfig(), field)
        assert vars(seen[0]) == vars(from_file)


class TestCli:
    def test_run_with_config_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n = 16\ngap = 0.2\ntrials = 2\nsolvers = power, split_merge\n")
        out = tmp_path / "results"
        code = cli_main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        captured = capsys.readouterr()
        assert "split_merge" in captured.out

    def test_run_defaults_without_config(self, tmp_path):
        code = cli_main([
            "run", "--n", "12", "--gap", "0.3", "--trials", "1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert cli_main(["run", "--config", str(cfg)]) == 1
        assert cli_main([
            "run", "--solvers", "power,split_merge(rho_policy=0)", "--out", str(tmp_path / "o"),
        ]) == 1

    def test_synthetic_n_below_two_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli_main(["run", "--n", "1", "--trials", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: n must be >= 2, got 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "run"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command):
        out = tmp_path / ("m.mtx" if command == "gen" else "o")
        args = ["--n", "8", "--gap", "0.2"] if command == "gen" else ["--n", "8", "--trials", "1"]
        assert cli_main([command, *args, "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    def test_unknown_flag_exit_code(self):
        assert cli_main(["run", "--bogus", "3"]) == 1

    def test_non_ascii_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_bytes("n = 16   # café\n".encode())
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: ") and err.count("\n") == 1

    def test_gen_above_dense_limit_is_config_error(self, tmp_path, capsys, monkeypatch):
        import splitmerge.cli as cli
        from splitmerge.theory import DENSE_LIMIT_DEFAULT

        monkeypatch.setattr(cli, "generate", lambda spec: pytest.fail("the matrix was generated"))
        out = tmp_path / "m.mtx"
        n = DENSE_LIMIT_DEFAULT + 1
        assert cli_main(["gen", "--n", str(n), "--gap", "0.2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: n = {n} is above ")
        assert not out.exists()

    def test_missing_config_file_exit_code(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_config_files_matrix_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"matrix = {tmp_path / 'absent.mtx'}\nn = 32\ntrials = 1\n"
                       f"out = {tmp_path / 'o'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("i/o error: ")
        # a flag's source overrides the file's rule, and a synthetic matrix is refused
        assert cli_main(["run", "--config", str(cfg), "--source", "synthetic"]) == 1
        assert cli_main(["run", "--config", str(cfg), "--matrix", ""]) == 1

    def test_malformed_matrix_exit_code(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n9 9 1.0\n")
        assert cli_main([
            "run", "--matrix", str(bad), "--trials", "1", "--out", str(tmp_path / "o"),
        ]) == 2

    def test_non_ascii_banner_exit_code(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_bytes("%%MatrixMarket matrix coordinate réal symmetric\n1 1 1\n1 1 4.0\n".encode())
        assert cli_main([
            "run", "--matrix", str(bad), "--trials", "1", "--out", str(tmp_path / "o"),
        ]) == 2

    def test_library_error_exit_code(self, tmp_path, capsys):
        # diag(-1, -2, -3): x'Ax < 0 for every start, so init_vector gives up
        neg = tmp_path / "neg.mtx"
        neg.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 -1\n2 2 -2\n3 3 -3\n"
        )
        assert cli_main([
            "run", "--matrix", str(neg), "--trials", "1", "--out", str(tmp_path / "o"),
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: InitializationError: ")
        assert "Traceback" not in err

    def test_allocation_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import splitmerge.bench as harness

        def too_big(spec):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(harness, "generate", too_big)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"n = 100000\ndense_limit = 100000\nout = {tmp_path / 'o'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == "error: MemoryError: Unable to allocate 74.5 GiB for an array\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")    # the Frobenius norm overflows
    def test_huge_entries_exit_with_one_line(self, tmp_path, capsys):
        """Entries near 1e200 have a finite Frobenius norm, so both solvers run, and each
        fails with a typed error once ||Ax||^2 overflows; beta=auto is refused."""
        big = tmp_path / "big.mtx"
        big.write_text("%%MatrixMarket matrix array real general\n2 2\n1e200\n-1.0\n-1.0\n1.5e200\n")
        out = tmp_path / "o"
        with pytest.warns(RuntimeWarning):    # numpy overflows on ||Ax||^2
            assert cli_main(["run", "--matrix", str(big), "--trials", "1", "--out", str(out)]) == 0
        runs = [line for line in map(json.loads, (out / "progress.jsonl").read_text().splitlines())
                if "solver" in line]
        assert [(run["solver"], run["error"].split(":")[0]) for run in runs] == [
            ("power", "OverflowGuardError"), ("split_merge", "OverflowGuardError")]
        assert cli_main(["run", "--matrix", str(big), "--trials", "1", "--out", str(out),
                         "--solvers", "power,power_momentum(beta=auto)"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("config error: power_momentum(beta=auto): beta must be finite")
        assert len(err) == 1

    def test_gen_round_trip(self, tmp_path):
        mtx = tmp_path / "gen.mtx"
        assert cli_main(["gen", "--n", "8", "--gap", "0.25", "--seed", "2", "--out", str(mtx)]) == 0
        from splitmerge import dense_eigendecomposition, load_matrix_market

        spec = dense_eigendecomposition(load_matrix_market(mtx))
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert spec.eigenvalues[1] == pytest.approx(0.75, abs=1e-12)

    def test_gen_bad_gap_exit_code(self, tmp_path):
        assert cli_main(["gen", "--n", "8", "--gap", "2.0", "--out", str(tmp_path / "x.mtx")]) == 1

    def test_run_unwritable_out_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        import splitmerge.bench as harness

        monkeypatch.setattr(harness, "generate", lambda spec: pytest.fail("generate was called"))
        monkeypatch.setattr(harness, "solve", lambda *a, **k: pytest.fail("solve was called"))
        taken = tmp_path / "a_file"
        taken.write_text("")
        assert cli_main(["run", "--n", "8", "--trials", "2", "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1

    def test_gen_unwritable_out_exit_code(self, tmp_path):
        target = tmp_path / "no_dir" / "x.mtx"
        assert cli_main(["gen", "--n", "4", "--gap", "0.5", "--out", str(target)]) == 2

    def test_empty_out_is_config_error(self, tmp_path, capsys, monkeypatch):
        # Path("") is the working directory, which would receive traces/ and report.json
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n = 8\ntrials = 1\nout =\n")
        for argv in (["run", "--out", "", "--n", "8", "--trials", "1"], ["run", "--config", str(cfg)]):
            assert cli_main(argv) == 1
            assert capsys.readouterr().err == (
                "config error: out must name a directory, got an empty value\n")
        assert list(cwd.iterdir()) == []

    def test_rows_beyond_the_file_size_exit_with_one_line(self, tmp_path, capsys):
        huge = tmp_path / "huge.mtx"
        huge.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "400000000 400000000 1\n1 1 1.0\n")
        out = tmp_path / "o"
        assert cli_main(["run", "--matrix", str(huge), "--trials", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {huge}: 400000000 rows declared in 78 bytes")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_duplicate_solvers_are_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("solvers = split_merge, split_merge()\n")
        out = tmp_path / "o"
        for argv in (["run", "--solvers", "power,power", "--out", str(out)],
                     ["run", "--config", str(cfg), "--out", str(out)]):
            assert cli_main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: duplicate solver entries") and err.count("\n") == 1
        assert not out.exists()


def _coeffs(zeta, omega, degenerate=False):
    from splitmerge.solvers import SplitMergeCoefficients

    return SplitMergeCoefficients(
        mu=2.0, gamma=0.5, sigma=0.75, zeta=zeta, omega=omega, rho=1.0, degenerate=degenerate,
    )


def _record(label, trial, trace, f_star=math.nan):
    from splitmerge.bench import TrialRecord
    from splitmerge.solvers import SolveResult

    result = SolveResult(
        x=np.ones(2), rayleigh_estimate=1.0,
        iterations=len(trace.matvecs) - 1, converged=True, trace=trace,
    )
    return TrialRecord(label, trial, True, result.iterations, trace.matvecs[-1],
                       trace.seconds[-1], result=result, f_star=f_star)


def test_trace_csv_exact_bytes(tmp_path):
    # residual-mode split-merge run (no sin theta) with a degenerate (omega = 0)
    # record, and an oracle-mode power run without f* and without coefficients
    from splitmerge.bench import TrialRecord, emit_traces
    from splitmerge.solvers import IterationTrace

    sm = IterationTrace(
        method="split_merge", sin_theta=[math.nan] * 3,
        f_value=[0.5, -0.2, -0.2499999999999999], rayleigh=[0.7, 0.95, 1.0],
        residual=[0.3, 1e-3, 2.5e-17], matvecs=[2, 4, 6],
        seconds=[1e-5, 2.5e-5, 4.0e-5],
        coeffs=[_coeffs(-0.2, 0.4), _coeffs(0.35, 0.0, True), _coeffs(0.1, 0.3)],
    )
    pw = IterationTrace(
        method="power", sin_theta=[0.5, 0.0], f_value=[0.1, 0.2],
        rayleigh=[1.0 / 3.0, 123456.789], residual=[1.0, 0.0],
        matvecs=[1, 2], seconds=[0.125, 3.0],
    )
    failed = TrialRecord("power", 1, False, 0, 5, 0.0, error="BreakdownError: x")
    records = [
        _record("split_merge(rho_policy=convergence_guaranteed)", 3, sm, f_star=-0.25),
        _record("power", 0, pw),
        failed,
    ]
    paths = emit_traces(records, tmp_path)
    header = b"k,sin_theta,f_minus_fstar,rayleigh,residual,matvecs,seconds,neg_zeta_over_omega\r\n"
    assert [p.name for p in paths] == [
        "split_merge_rho_policy_convergence_guaranteed___trial003.csv", "power__trial000.csv",
    ]
    assert paths[0].read_bytes() == header + (
        b"0,,0.75,0.69999999999999996,0.29999999999999999,2,1.0000000000000001e-05,0.5\r\n"
        b"1,,0.049999999999999989,0.94999999999999996,0.001,4,2.5000000000000001e-05,\r\n"
        b"2,,1.1102230246251565e-16,1,2.4999999999999999e-17,6,4.0000000000000003e-05,"
        b"-0.33333333333333337\r\n"
    )
    assert paths[1].read_bytes() == header + (
        b"0,0.5,,0.33333333333333331,1,1,0.125,\r\n"
        b"1,0,,123456.789,0,2,3,\r\n"
    )


def test_report_carries_stop_reason_counters_and_failure_time(tmp_path, monkeypatch):
    # a constant rho far below gamma/mu makes sigma <= 0 at the first step
    results = _solve_results(monkeypatch)
    config = _config(
        tmp_path, trials=2,
        solvers=[SolverSetting("power"), SolverSetting("split_merge"),
                 SolverSetting("split_merge", {"rho_policy": 1e-9})],
    )
    report = run_experiment(config)
    # the failing entry raises, so per trial the spy sees power, then split_merge
    by_key = dict(zip([(s, t) for t in range(2) for s in ("power", "split_merge")], results))
    payload = json.loads((Path(config.out_dir) / "report.json").read_text())
    for rec, entry in zip(report.records, payload["trials"]):
        assert entry["stop_reason"] == rec.stop_reason
        assert entry["safeguard_activations"] == rec.safeguard_activations
        assert entry["degenerate_fallbacks"] == rec.degenerate_fallbacks
        assert type(entry["matvecs"]) is int and type(entry["seconds"]) is float
        if rec.error is None:
            assert rec.stop_reason == "converged"
            coeffs = by_key[rec.solver, rec.trial].trace.coeffs or []
            assert rec.safeguard_activations == sum(c.rho > 1.0 for c in coeffs)
            assert rec.degenerate_fallbacks == sum(c.degenerate for c in coeffs)
        else:
            assert rec.error.startswith("SigmaNotPositiveError")
            assert rec.stop_reason == "error"
            assert rec.seconds > 0.0
    assert sum(r.error is not None for r in report.records) == 2
