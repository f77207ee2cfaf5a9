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
from splitmerge.bench import TRACE_HEADER, SolverSetting, parse_solver_list
from splitmerge.cli import main as cli_main
from splitmerge.errors import ConfigError


def _config(tmp_path, **overrides):
    base = dict(
        source="synthetic", n=24, gap=0.2, trials=3, seed=0,
        out_dir=str(tmp_path / "out"),
        solvers=[SolverSetting("power"), SolverSetting("split_merge")],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


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

    def test_matvec_totals_exact(self, tmp_path):
        report = run_experiment(_config(tmp_path, trials=2))
        for rec in report.records:
            assert rec.result is not None
            assert rec.matvecs == rec.result.trace.matvecs[-1]
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

    def test_missing_config_file_exit_code(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2

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

    def test_gen_round_trip(self, tmp_path):
        mtx = tmp_path / "gen.mtx"
        assert cli_main(["gen", "--n", "8", "--gap", "0.25", "--seed", "2", "--out", str(mtx)]) == 0
        from splitmerge import dense_eigendecomposition, load_matrix_market

        spec = dense_eigendecomposition(load_matrix_market(mtx))
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert spec.eigenvalues[1] == pytest.approx(0.75, abs=1e-12)

    def test_gen_bad_gap_exit_code(self, tmp_path):
        assert cli_main(["gen", "--n", "8", "--gap", "2.0", "--out", str(tmp_path / "x.mtx")]) == 1

    def test_gen_unwritable_out_exit_code(self, tmp_path):
        target = tmp_path / "no_dir" / "x.mtx"
        assert cli_main(["gen", "--n", "4", "--gap", "0.5", "--out", str(target)]) == 2


def _coeffs(zeta, omega, degenerate=False):
    from splitmerge.solvers import SplitMergeCoefficients

    return SplitMergeCoefficients(
        mu=2.0, gamma=0.5, sigma=0.75, zeta=zeta, omega=omega, rho=1.0, degenerate=degenerate,
    )


def _record(label, trial, trace, f_star=math.nan):
    from splitmerge.bench import TrialRecord
    from splitmerge.solvers import SolveResult

    result = SolveResult(
        x=np.ones(2), x_unit=np.ones(2), lambda_estimate=1.0, rayleigh_estimate=1.0,
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
        lambda_of_x=[1.0, 1.0, 1.0], residual=[0.3, 1e-3, 2.5e-17], matvecs=[2, 4, 6],
        seconds=[1e-5, 2.5e-5, 4.0e-5],
        coeffs=[_coeffs(-0.2, 0.4), _coeffs(0.35, 0.0, True), _coeffs(0.1, 0.3)],
    )
    pw = IterationTrace(
        method="power", sin_theta=[0.5, 0.0], f_value=[0.1, 0.2],
        rayleigh=[1.0 / 3.0, 123456.789], lambda_of_x=[1.0, 1.0], residual=[1.0, 0.0],
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


def test_report_carries_stop_reason_counters_and_failure_time(tmp_path):
    # a constant rho far below gamma/mu makes sigma <= 0 at the first step
    config = _config(
        tmp_path, trials=2,
        solvers=[SolverSetting("power"), SolverSetting("split_merge"),
                 SolverSetting("split_merge", {"rho_policy": 1e-9})],
    )
    report = run_experiment(config)
    payload = json.loads((Path(config.out_dir) / "report.json").read_text())
    for rec, entry in zip(report.records, payload["trials"]):
        assert entry["stop_reason"] == rec.stop_reason
        assert entry["safeguard_activations"] == rec.safeguard_activations
        assert entry["degenerate_fallbacks"] == rec.degenerate_fallbacks
        assert type(entry["matvecs"]) is int and type(entry["seconds"]) is float
        if rec.error is None:
            assert rec.stop_reason == "converged"
            coeffs = rec.result.trace.coeffs or []
            assert rec.safeguard_activations == sum(c.rho > 1.0 for c in coeffs)
            assert rec.degenerate_fallbacks == sum(c.degenerate for c in coeffs)
        else:
            assert rec.error.startswith("SigmaNotPositiveError")
            assert rec.stop_reason == "error"
            assert rec.seconds > 0.0
    assert sum(r.error is not None for r in report.records) == 2
