import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from splitmerge import (
    CsrOperator,
    DenseOperator,
    SolverConfig,
    SyntheticSpec,
    eval_f,
    generate,
    gd_step,
    init_vector,
    power_momentum_step,
    power_step,
    solve,
    split_merge_step,
)
from splitmerge.errors import (
    BreakdownError,
    DimensionMismatchError,
    InitializationError,
    MatrixMarketError,
    NonDifferentiablePointError,
    OverflowGuardError,
    SigmaNotPositiveError,
)
from splitmerge.solvers import (
    BLOCK,
    METHODS,
    IterationKernel,
    SplitMergeCoefficients,
    _unit_u1,
    coefficients_from_sums,
)

from conftest import random_psd_operator

# frozen 50-digit references for A = diag(2,1), x = (1,1)/sqrt(2), rho = 1
SM2X2 = {
    "mu": 2.4494897427831781,
    "gamma": 4.0 / 3.0,
    "sigma": 0.45566894604818264,
    "zeta": -0.20135607293817015,
    "omega": 0.36576261804121990,
    "x1": (0.74977242087062019, 0.11625298291381846),
    "sin1": 0.15322019444047309,
    "rho_cg": 1.2247448713915890 + 1e-12,  # sqrt(1.5) + slack
}


class TestInitVector:
    def test_identity_quad_form(self):
        op = DenseOperator(np.eye(8))
        x = init_vector(8, 42, op)
        assert np.linalg.norm(x) == pytest.approx(1.0)
        assert float(x @ op.apply(x)) == pytest.approx(1.0)

    def test_zero_matrix_fails(self):
        op = DenseOperator(np.zeros((4, 4)))
        with pytest.raises(InitializationError):
            init_vector(4, 0, op)

    @pytest.mark.parametrize("n, bad", [(64, np.nan), (256, np.inf), (2, None)])
    def test_non_finite_norm_fails_before_any_draw(self, n, bad):
        # a nan or inf entry, or finite entries whose norm overflows: no operator, so no floor
        matrix = np.full((2, 2), 1e308) if bad is None else np.diag(np.r_[np.ones(n - 1), bad])
        with pytest.raises(MatrixMarketError, match=rf"order {n} has \|\|A\|\|_F = (nan|inf)"):
            DenseOperator(matrix)

    def test_deterministic(self):
        op = DenseOperator(np.eye(6))
        np.testing.assert_array_equal(init_vector(6, 7, op), init_vector(6, 7, op))


class TestPowerStep:
    def test_normalizes_image(self, diag21):
        got = power_step(diag21, np.array([1.0, 1.0]) / math.sqrt(2))
        np.testing.assert_allclose(got, np.array([2.0, 1.0]) / math.sqrt(5), atol=1e-15)

    def test_fixed_point(self, diag21):
        np.testing.assert_allclose(power_step(diag21, np.array([1.0, 0.0])), [1.0, 0.0])

    def test_orthogonal_start_stalls(self, diag21):
        x = np.array([0.0, 1.0])
        for _ in range(5):
            x = power_step(diag21, x)
        np.testing.assert_allclose(x, [0.0, 1.0])

    def test_breakdown(self):
        op = DenseOperator(np.diag([1.0, 0.0]))
        with pytest.raises(BreakdownError):
            power_step(op, np.array([0.0, 1.0]))

    def test_zero_start_breaks_down(self, diag21):
        with pytest.raises(BreakdownError):
            power_step(diag21, np.zeros(2))

    def test_zero_quadratic_form_is_not_an_error(self):
        # power needs only ||Ax|| > 0, not x'Ax > 0
        got = power_step(DenseOperator(np.diag([1.0, -1.0])), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(got, np.array([1.0, -1.0]) / math.sqrt(2.0))


@pytest.mark.parametrize("start", [(math.nan, 1.0), (math.inf, 1.0)], ids=["nan", "inf"])
@pytest.mark.parametrize("step", [
    power_step,
    lambda op, x: gd_step(op, x, 0.9),
    lambda op, x: power_momentum_step(op, x, np.zeros(2), 0.1),
    split_merge_step,
], ids=["power", "gd_difference", "power_momentum", "split_merge"])
def test_non_finite_start_is_not_differentiable(diag21, step, start):
    # as solve refuses it, and before a matvec could warn on the inf
    with pytest.raises(NonDifferentiablePointError, match="nan or inf"):
        step(diag21, np.array(start))
    assert diag21.matvec_count == 0


class TestGdStep:
    def test_fixed_point_at_minimizer_scale(self):
        op = DenseOperator(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(
            gd_step(op, np.array([1.0, 0.0]), 0.5), [1.0, 0.0], atol=1e-15
        )

    def test_alpha_09_direct_arithmetic(self, diag21):
        got = gd_step(diag21, np.array([1.0, 1.0]), 0.9)
        np.testing.assert_allclose(
            got, [0.23923048454132638, -0.28038475772933681], atol=1e-15
        )

    def test_half_step_collinear_with_power(self, rng):
        # the alpha = 1/2 iterate is the unnormalized power direction
        for _ in range(100):
            n = int(rng.integers(2, 12))
            op = random_psd_operator(rng, n)
            x = rng.standard_normal(n)
            a = gd_step(op, x, 0.5)
            b = power_step(op, x)
            cos = abs(a @ b) / np.linalg.norm(a)
            assert cos >= 1.0 - 1e-12

    def test_zero_start_not_differentiable(self, diag21):
        with pytest.raises(NonDifferentiablePointError):
            gd_step(diag21, np.zeros(2), 0.5)


class TestPowerMomentumStep:
    def test_beta_zero_reduces_to_power(self, rng):
        op = random_psd_operator(rng, 6)
        x = rng.standard_normal(6)
        got, _ = power_momentum_step(op, x, rng.standard_normal(6) * 0.0, 0.0)
        np.testing.assert_allclose(got, power_step(op, x), atol=1e-15)

    def test_direct_arithmetic(self, diag21):
        x = np.array([1.0, 1.0]) / math.sqrt(2)
        nxt, prev = power_momentum_step(diag21, x, x, 0.25)
        np.testing.assert_allclose(
            nxt, [0.91914503001805790, 0.39391929857916767], atol=1e-15
        )
        np.testing.assert_allclose(
            prev, [0.52522573143889023, 0.52522573143889023], atol=1e-15
        )

    def test_inputs_are_not_written(self, rng):
        op = random_psd_operator(rng, 6)
        x, x_prev = rng.standard_normal(6), rng.standard_normal(6)
        before = x.copy(), x_prev.copy()
        nxt, prev = power_momentum_step(op, x, x_prev, 0.3)
        np.testing.assert_array_equal(x, before[0])
        np.testing.assert_array_equal(x_prev, before[1])
        assert not np.shares_memory(prev, x_prev) and not np.shares_memory(nxt, x)

    def test_exact_cancellation_breaks_down(self, diag21):
        x = np.array([1.0, 1.0])
        beta = 0.25
        x_prev = diag21.apply(x) / beta
        with pytest.raises(BreakdownError):
            power_momentum_step(diag21, x, x_prev, beta)

    def test_prev_of_wrong_length_rejected(self, diag21):
        with pytest.raises(DimensionMismatchError):
            power_momentum_step(diag21, np.ones(2), np.ones(3), 0.25)


class TestSplitMergeCoeffs:
    def test_two_by_two_reference_values(self, diag21):
        x = np.array([1.0, 1.0]) / math.sqrt(2)
        c = split_merge_step(diag21, x, "fixed_one_with_safeguard")[1]
        assert not c.degenerate
        assert c.rho == 1.0
        assert c.mu == pytest.approx(SM2X2["mu"], abs=1e-14)
        assert c.gamma == pytest.approx(SM2X2["gamma"], abs=1e-14)
        assert c.sigma == pytest.approx(SM2X2["sigma"], abs=1e-14)
        assert c.zeta == pytest.approx(SM2X2["zeta"], abs=1e-14)
        assert c.omega == pytest.approx(SM2X2["omega"], abs=1e-14)

    def test_zero_quadratic_form_not_differentiable(self):
        with pytest.raises(NonDifferentiablePointError):
            split_merge_step(DenseOperator(np.diag([1.0, -1.0])), np.array([1.0, 1.0]))

    def test_eigenvector_degenerates_to_dca(self, diag21):
        c = split_merge_step(diag21, np.array([1.0, 0.0]))[1]
        assert c.degenerate
        assert c.omega == 0.0
        assert c.mu == pytest.approx(2.0 * math.sqrt(2.0))
        assert c.zeta == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))

    def test_convergence_guaranteed_rho(self, diag21):
        x = np.array([1.0, 1.0]) / math.sqrt(2)
        c = split_merge_step(diag21, x, "convergence_guaranteed")[1]
        assert c.rho == pytest.approx(SM2X2["rho_cg"], abs=1e-13)
        assert c.zeta >= 0.0

    def test_constant_rho_sigma_violation(self, diag21):
        x = np.array([1.0, 1.0]) / math.sqrt(2)
        healthy = split_merge_step(diag21, x, 1.0)[1]
        bad_rho = 0.5 * healthy.gamma / healthy.mu
        with pytest.raises(SigmaNotPositiveError):
            split_merge_step(diag21, x, bad_rho)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.inf, math.nan])
    def test_constant_rho_must_be_finite_and_positive(self, diag21, rho):
        with pytest.raises(ValueError, match="finite and positive"):
            split_merge_step(diag21, np.array([1.0, 1.0]) / math.sqrt(2), rho)

    @pytest.mark.parametrize("rho", ["bogus", 0.0])
    def test_bad_policy_rejected_at_an_eigenvector(self, diag21, rho):
        with pytest.raises(ValueError):
            split_merge_step(diag21, np.array([1.0, 0.0]), rho)

    def test_two_matvecs(self, diag21):
        before = diag21.matvec_count
        split_merge_step(diag21, np.array([1.0, 1.0]) / math.sqrt(2))
        assert diag21.matvec_count == before + 2

    def test_safeguard_keeps_sigma_positive(self, rng):
        # gamma/mu >= 1 needs mu = 2*sqrt(x'Ax) small against the spectrum
        # (the early-iteration case); the safeguard then pins sigma at 1 - 1/1.2
        hits = 0
        for _ in range(200):
            n = int(rng.integers(3, 12))
            op = random_psd_operator(rng, n)
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 2)
            c = split_merge_step(op, x, "fixed_one_with_safeguard")[1]
            assert c.degenerate or c.sigma > 0.0
            if not c.degenerate and c.rho != 1.0:
                hits += 1
                assert c.sigma == pytest.approx(1.0 - 1.0 / 1.2)
        assert hits > 0


class TestSplitMergeStep:
    def test_two_by_two_reference_iterate(self, diag21):
        x = np.array([1.0, 1.0]) / math.sqrt(2)
        x1 = split_merge_step(diag21, x)[0]
        np.testing.assert_allclose(x1, SM2X2["x1"], atol=1e-14)
        sin1 = math.sqrt(1.0 - (x1[0] / np.linalg.norm(x1)) ** 2)
        assert sin1 == pytest.approx(SM2X2["sin1"], abs=1e-13)
        # one step beats the power step's 1/sqrt(5) from the same start
        assert sin1 < 1.0 / math.sqrt(5.0)

    def test_degenerate_step_is_dca_iterate(self, rng):
        # eigenvectors with exactly-representable arithmetic (entries k/64,
        # power-of-two scaling) make the orthogonal residual exactly zero
        for _ in range(20):
            n = int(rng.integers(2, 8))
            diag = rng.integers(1, 200, size=n).astype(float) / 64.0
            op = DenseOperator(np.diag(diag))
            i = int(rng.integers(0, n))
            x = np.zeros(n)
            x[i] = float(2.0 ** rng.integers(-3, 4))
            got, c = split_merge_step(op, x)
            assert c.degenerate
            w = op.to_dense() @ x
            dca = w / (2.0 * math.sqrt(float(x @ w)))
            assert np.linalg.norm(got - dca) <= 1e-12 * np.linalg.norm(dca)

    def test_x_of_wrong_length_rejected(self, diag21):
        with pytest.raises(DimensionMismatchError):
            split_merge_step(diag21, np.ones(3))

    def test_overflow_guard(self, diag21):
        x = np.array([1.0, 1.0]) / math.sqrt(2)
        kernel = IterationKernel(2, "split_merge", "fixed_one_with_safeguard")
        w = diag21.apply(x)
        z = diag21.apply(w)
        kernel.measure(x, w, z)
        c = kernel.coeffs
        kernel.coeffs = SplitMergeCoefficients(
            mu=c.mu, gamma=c.gamma, sigma=c.sigma, zeta=1e200, omega=1e200,
            rho=c.rho, degenerate=False,
        )
        with pytest.raises(OverflowGuardError), pytest.warns(RuntimeWarning, match="overflow"):
            kernel.update(x, w, z)


@pytest.mark.parametrize("method", ["power", "power_momentum"])
def test_an_overflowing_norm_stops_the_first_step(method):
    """||Ax||^2 of entries near 1e200 overflows at iteration 0: an overflow, not x'Ax = 0 next."""
    op = DenseOperator(np.array([[1e200, -1.0], [-1.0, 1.5e200]]))
    config = SolverConfig(method, beta=0.1, stop_mode="residual")
    with pytest.raises(OverflowGuardError, match="is not finite"), \
            pytest.warns(RuntimeWarning, match="overflow"):
        solve(op, config, x0=np.array([1.0, 0.5]))
    kernel = IterationKernel(2, method, 0.1)    # a nan norm is not finite either
    kernel.measure(np.ones(2), np.array([math.nan, 1.0]))
    with pytest.raises(OverflowGuardError, match="nan is not finite"):
        kernel.update(np.ones(2), np.array([math.nan, 1.0]))


@pytest.mark.parametrize("n", [128, 1000])
def test_steps_ignore_memory_layout(rng, n):
    """Every step gives the same bits on a strided view as on its contiguous copy."""
    op = random_psd_operator(rng, n)
    x, x_prev = (rng.standard_normal(2 * n)[::2] for _ in range(2))
    assert not x.flags.c_contiguous
    same = np.testing.assert_array_equal
    same(power_step(op, x), power_step(op, x.copy()))
    same(gd_step(op, x, 0.3), gd_step(op, x.copy(), 0.3))
    got = power_momentum_step(op, x, x_prev, 0.2)
    ref = power_momentum_step(op, x.copy(), x_prev.copy(), 0.2)
    same(got[0], ref[0])
    same(got[1], ref[1])
    got, ref = split_merge_step(op, x), split_merge_step(op, x.copy())
    same(got[0], ref[0])
    assert got[1] == ref[1]


class TestSolverConfig:
    def test_alpha_range_enforced_for_gd(self):
        with pytest.raises(ValueError):
            SolverConfig("gd_difference", alpha=1.0)
        with pytest.raises(ValueError):
            SolverConfig("gd_difference", alpha=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "nope"},
            {"method": "power", "eps": 0.0},
            {"method": "power", "max_iter": 0},
            {"method": "power_momentum", "beta": -0.1},
            {"method": "split_merge", "rho_policy": "bogus"},
            {"method": "power", "stop_mode": "bogus"},
            {"method": "power", "eps": math.nan},
            {"method": "power_momentum", "beta": math.nan},
            {"method": "power", "residual_tol": math.nan},
            {"method": "power", "eps": math.inf},
            {"method": "power", "stop_mode": "residual", "residual_tol": math.inf},
            {"method": "split_merge", "rho_policy": 0},
            {"method": "split_merge", "rho_policy": -1.0},
            {"method": "split_merge", "rho_policy": math.inf},
            {"method": "split_merge", "rho_policy": math.nan},
            {"method": "power_momentum", "beta": math.inf},
            {"method": "power", "max_iter": 2.5},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSolve:
    @pytest.mark.parametrize("u1, unit", [([1e200, 1e200], [math.sqrt(0.5)] * 2),
                                          ([1e-200, 1e-200], [math.sqrt(0.5)] * 2),
                                          ([1e-170, 0.0], [1.0, 0.0])])
    def test_ground_truth_whose_squares_over_or_underflow(self, u1, unit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(_unit_u1(u1, 2), unit, rtol=1e-15)

    def test_power_textbook_convergence(self, diag21):
        op, truth = generate(SyntheticSpec(n=2, gap=0.5, seed=5))
        res = solve(op, SolverConfig("power", seed=3), ground_truth=truth)
        assert res.converged
        assert abs(res.rayleigh_estimate - 1.0) <= 1e-9

    def test_power_on_gap_one_matrix(self, diag21):
        from splitmerge import dense_eigendecomposition

        truth = dense_eigendecomposition(diag21)
        res = solve(diag21, SolverConfig("power", seed=1), ground_truth=truth)
        assert res.converged
        assert abs(res.rayleigh_estimate - 2.0) <= 1e-9

    @pytest.mark.parametrize("method", METHODS)
    def test_rayleigh_estimate_of_a_converged_run(self, method):
        op, truth = generate(SyntheticSpec(n=64, gap=0.1, seed=0))
        config = SolverConfig(method, alpha=0.9, beta=0.01, seed=2)
        res = solve(op, config, ground_truth=truth)
        assert res.converged
        assert abs(res.rayleigh_estimate - truth.lambda1) <= 1e-8 * truth.lambda1

    def test_split_merge_beats_power_same_start(self):
        op, truth = generate(SyntheticSpec(n=16, gap=0.2, seed=11))
        x0 = init_vector(16, 4, op)
        r_sm = solve(op, SolverConfig("split_merge"), ground_truth=truth, x0=x0)
        r_pw = solve(op, SolverConfig("power"), ground_truth=truth, x0=x0)
        assert r_sm.converged and r_pw.converged
        assert r_sm.iterations < r_pw.iterations

    def test_orthogonal_start_never_converges(self, diag21):
        truth = type("GT", (), {"u1": np.array([1.0, 0.0])})()
        res = solve(
            diag21, SolverConfig("power", max_iter=50), ground_truth=truth,
            x0=np.array([0.0, 1.0]),
        )
        assert not res.converged
        assert all(s == pytest.approx(1.0) for s in res.trace.sin_theta)

    @pytest.mark.parametrize(
        "method,delta",
        [("power", 1), ("gd_difference", 1), ("power_momentum", 1), ("split_merge", 2)],
    )
    def test_matvec_deltas_per_iteration(self, method, delta):
        op, truth = generate(SyntheticSpec(n=12, gap=0.3, seed=2))
        config = SolverConfig(method, beta=0.01, max_iter=200)
        res = solve(op, config, ground_truth=truth)
        diffs = set(np.diff(res.trace.matvecs))
        assert diffs == {delta}
        assert res.trace.matvecs[0] == delta

    def test_matvec_total_equals_counter_delta(self):
        op, truth = generate(SyntheticSpec(n=10, gap=0.2, seed=9))
        x0 = init_vector(10, 1, op)
        op.apply(x0)    # a product before the solve is not the solve's
        before = op.matvec_count
        res = solve(op, SolverConfig("split_merge"), ground_truth=truth, x0=x0)
        assert before > 0
        assert res.trace.matvecs[-1] == op.matvec_count - before

    def test_residual_stop_without_ground_truth(self):
        op, _ = generate(SyntheticSpec(n=12, gap=0.3, seed=6))
        config = SolverConfig("power", stop_mode="residual", residual_tol=1e-10)
        res = solve(op, config)
        assert res.converged
        assert math.isnan(res.trace.sin_theta[-1])
        r = res.rayleigh_estimate
        x = res.x
        resid = np.linalg.norm(op.apply(x) - r * x) / (r * np.linalg.norm(x))
        assert resid <= 1e-10

    def test_oracle_mode_requires_ground_truth(self, diag21):
        with pytest.raises(ValueError):
            solve(diag21, SolverConfig("power"))

    @pytest.mark.parametrize(
        "u1, error",
        [
            (np.zeros(3), ValueError),
            (np.array([math.nan, 0.0, 0.0]), ValueError),
            (np.ones(2), DimensionMismatchError),
        ],
        ids=["zero", "nan", "wrong_length"],
    )
    def test_malformed_ground_truth_rejected(self, u1, error):
        # a zero or nan u1 would read as sin theta = 0, converged at iteration 0
        op = DenseOperator(np.diag([2.0, 1.0, 0.5]))
        truth = type("GT", (), {"u1": u1})()
        with pytest.raises(error):
            solve(op, SolverConfig("power"), ground_truth=truth, x0=np.ones(3))

    @pytest.mark.parametrize("method", METHODS)
    def test_nan_start_is_not_differentiable(self, diag21, method):
        # x'Ax = nan must not pass as positive, nor sin theta as 0
        truth = type("GT", (), {"u1": np.array([1.0, 0.0])})()
        with pytest.raises(NonDifferentiablePointError, match="at iteration 0"):
            solve(diag21, SolverConfig(method), ground_truth=truth, x0=np.array([math.nan, 1.0]))

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_quadratic_form_names_the_iteration(self, method):
        # every method, split-merge included, reports the iterate, not the kernel's pass
        op = DenseOperator(np.diag([1.0, -1.0]))
        with pytest.raises(NonDifferentiablePointError, match="x'Ax = 0.000e\\+00 at iteration 0"):
            solve(op, SolverConfig(method, stop_mode="residual"), x0=np.array([1.0, 1.0]))

    def test_trace_lengths_consistent(self):
        op, truth = generate(SyntheticSpec(n=8, gap=0.4, seed=3))
        res = solve(op, SolverConfig("split_merge"), ground_truth=truth)
        n_records = len(res.trace.k)
        assert n_records == res.iterations + 1
        assert len(res.trace.coeffs) == n_records
        assert len(res.trace.applied_coeffs()) == n_records - 1
        assert res.trace.k == list(range(n_records))

    def test_cap_reached_is_not_an_error(self):
        op, truth = generate(SyntheticSpec(n=32, gap=1e-3, seed=0))
        res = solve(op, SolverConfig("power", max_iter=5), ground_truth=truth)
        assert not res.converged
        assert res.iterations == 5


class TestSplitMergePolicies:
    def test_sigma_positive_across_runs_both_policies(self, rng):
        for policy in ("fixed_one_with_safeguard", "convergence_guaranteed"):
            for trial in range(20):
                op, truth = generate(SyntheticSpec(n=16, gap=0.1, seed=trial))
                config = SolverConfig("split_merge", rho_policy=policy, max_iter=500)
                res = solve(op, config, ground_truth=truth)
                for c in res.trace.coeffs:
                    assert c.degenerate or c.sigma > 0.0

    def test_monotone_descent_under_convergence_guaranteed(self):
        for trial in range(10):
            op, truth = generate(SyntheticSpec(n=16, gap=0.1, seed=100 + trial))
            config = SolverConfig(
                "split_merge", rho_policy="convergence_guaranteed", max_iter=2000
            )
            res = solve(op, config, ground_truth=truth)
            f = np.asarray(res.trace.f_value)
            assert np.all(np.diff(f) <= 1e-12)

    def test_iterate_product_form(self, rng):
        # x_k is collinear with A^k * prod_m (zeta_m I + omega_m A) x0
        op, truth = generate(SyntheticSpec(n=12, gap=0.15, seed=21))
        dense = op.to_dense()
        x0 = init_vector(12, 8, op)
        res = solve(
            op, SolverConfig("split_merge", max_iter=12, eps=1e-300),
            ground_truth=truth, x0=x0,
        )
        coeffs = res.trace.applied_coeffs()
        for k in (3, 7, len(coeffs)):
            y = x0.copy()
            for c in coeffs[:k]:
                y = c.zeta * y + c.omega * (dense @ y)
            for _ in range(k):
                y = dense @ y
            y /= np.linalg.norm(y)
            # replay the trajectory to iterate k
            x = x0.copy()
            replay = solve(
                op, SolverConfig("split_merge", max_iter=k, eps=1e-300),
                ground_truth=truth, x0=x,
            )
            xk = replay.x / np.linalg.norm(replay.x)
            sign = math.copysign(1.0, float(y @ xk))
            assert np.linalg.norm(y - sign * xk) <= 1e-8

    def test_gd_larger_step_converges_faster(self):
        # first trace crossing of f - f* <= 1e-8, alpha = 0.99 vs 0.5
        op, truth = generate(SyntheticSpec(n=64, gap=1e-2, seed=13))
        x0 = init_vector(64, 2, op)
        f_star = -truth.lambda1 / 4.0

        def crossing(alpha):
            config = SolverConfig("gd_difference", alpha=alpha, eps=1e-5, max_iter=20000)
            res = solve(op, config, ground_truth=truth, x0=x0)
            f = np.asarray(res.trace.f_value) - f_star
            hits = np.nonzero(f <= 1e-8)[0]
            assert hits.size, f"alpha={alpha} never reached f-f* <= 1e-8"
            return int(hits[0])

        assert crossing(0.99) < crossing(0.5)


@given(st.integers(0, 2**32 - 1))
def test_dca_power_collinearity_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    op = random_psd_operator(rng, n)
    x = rng.standard_normal(n)
    a = gd_step(op, x, 0.5)
    b = power_step(op, x)
    assert abs(a @ b) / np.linalg.norm(a) >= 1.0 - 1e-12


class TestSolveObservability:
    def test_stop_reason(self):
        op, truth = generate(SyntheticSpec(n=16, gap=0.2, seed=11))
        capped = solve(op, SolverConfig("power", max_iter=3), ground_truth=truth)
        assert capped.stop_reason == "max_iter" and not capped.converged
        done = solve(op, SolverConfig("power"), ground_truth=truth)
        assert done.stop_reason == "converged" and done.converged
        assert (capped.safeguard_activations, capped.degenerate_fallbacks) == (0, 0)

    def test_safeguard_activations_count_rho_above_one(self):
        # a tiny start makes mu = 2*sqrt(x'Ax) small, so gamma/mu >= 1 early on
        op, truth = generate(SyntheticSpec(n=16, gap=0.2, seed=11))
        x0 = 1e-3 * init_vector(16, 4, op)
        res = solve(op, SolverConfig("split_merge"), ground_truth=truth, x0=x0)
        assert res.converged
        assert res.safeguard_activations == sum(c.rho > 1.0 for c in res.trace.coeffs) > 0
        assert res.degenerate_fallbacks == sum(c.degenerate for c in res.trace.coeffs)

    def test_degenerate_fallbacks_counted(self, diag21):
        res = solve(
            diag21, SolverConfig("split_merge", stop_mode="residual", max_iter=4),
            x0=np.array([1.0, 0.0]),
        )
        assert res.degenerate_fallbacks == len(res.trace.coeffs) >= 1


def _tridiagonal(n, seed):
    """CSR tridiagonal with diagonal in [2, 3) and off-diagonals in [0, 1): diagonally dominant, PSD."""
    rng = np.random.default_rng([seed, n])
    off = rng.random(n - 1)
    return CsrOperator(sp.diags([off, 2.0 + rng.random(n), off], [-1, 0, 1], format="csr"))


def _kernel_scalars(x, w, z, u1):
    """Every sum split-merge's passes 1 and 2 form at x, and the power update power's pass 2 writes.

    The passes are the kernel's bound block functions, blockwise above BLOCK.
    """
    kernel = IterationKernel(len(x), "split_merge", "fixed_one_with_safeguard", u1)
    quad, xtx, wtw, u1x = kernel._reductions(x, w, u1, True)
    r = quad / xtx
    rr, num, den, zz = kernel._vectors(x, w, kernel._scratch, r, z, wtw / quad)
    power = IterationKernel(len(x), "power")
    out = w.copy()     # power's pass 2 writes its update over its Ax
    power._vectors(x, out, power._scratch, r, math.sqrt(wtw))
    scalars = {"quad": quad, "xtx": xtx, "wtw": wtw, "zz": zz, "u1x": u1x, "rr": rr,
               "num": num, "den": den}
    return scalars, out


def _whole_vector_scalars(x, w, z, u1):
    """The same scalars from whole-vector numpy calls, in the kernel's order of operations."""
    quad, xtx, wtw = x.dot(w), x.dot(x), w.dot(w)
    res = np.subtract(w, np.multiply(x, quad / xtx))
    g = np.subtract(z, np.multiply(w, wtw / quad))
    return {"quad": quad, "xtx": xtx, "wtw": wtw, "zz": z.dot(z), "u1x": u1.dot(x),
            "rr": res.dot(res), "num": g.dot(g), "den": g.dot(w)}


def _relative(got, ref):
    return float(np.linalg.norm(np.subtract(got, ref)) / np.linalg.norm(ref))


class TestBlockBoundaries:
    """The kernel's passes sum over BLOCK-element blocks: exact at one block, round-off above."""

    @pytest.mark.parametrize("n", [128, BLOCK])
    def test_one_block_is_the_whole_vector_computation(self, rng, n):
        op = _tridiagonal(n, 0)
        x, u1 = rng.standard_normal(n), rng.standard_normal(n)
        w = op.apply(x)
        z = op.apply(w)
        got, power_update = _kernel_scalars(x, w, z, u1)
        ref = _whole_vector_scalars(x, w, z, u1)
        assert got == ref
        np.testing.assert_array_equal(power_update, np.divide(w, math.sqrt(w.dot(w))))
        # the first call returns these sums and sets the coefficients they give
        kernel = IterationKernel(n, "split_merge", "fixed_one_with_safeguard", u1)
        r = ref["quad"] / ref["xtx"]
        assert kernel.measure(x, w, z) == (ref["quad"], ref["xtx"], r, ref["u1x"], ref["rr"])
        sums = [ref[name] for name in ("quad", "wtw", "num", "den", "zz")]
        assert kernel.coeffs == coefficients_from_sums(*sums, "fixed_one_with_safeguard")

    @pytest.mark.parametrize("n", [BLOCK + 1, 2 * BLOCK + 17], ids=["one_element_tail", "ragged_tail"])
    def test_blocked_passes_match_whole_vectors(self, rng, n):
        op = _tridiagonal(n, 1)
        x, x_prev, noise = (rng.standard_normal(n) for _ in range(3))
        u1 = x + 0.5 * noise    # correlated with x, so u1'x does not cancel to round-off
        w = op.apply(x)
        z = op.apply(w)
        got, power_update = _kernel_scalars(x, w, z, u1)
        ref = _whole_vector_scalars(x, w, z, u1)
        for name, value in ref.items():
            assert abs(got[name] - value) <= 1e-13 * abs(value), name

        power = w / np.linalg.norm(w)
        assert _relative(power_update, power) <= 1e-13
        assert _relative(power_step(op, x), power) <= 1e-13
        quad = ref["quad"]
        gd = (1.0 - 2.0 * 0.3) * x + (0.3 / math.sqrt(quad)) * w
        assert _relative(gd_step(op, x, 0.3), gd) <= 1e-13
        y = w - 0.2 * x_prev
        nxt, prev = power_momentum_step(op, x, x_prev, 0.2)
        assert _relative(nxt, y / np.linalg.norm(y)) <= 1e-13
        assert _relative(prev, x / np.linalg.norm(y)) <= 1e-13

        merged, coeffs = split_merge_step(op, x, "fixed_one_with_safeguard")
        assert not coeffs.degenerate
        mu = 2.0 * math.sqrt(quad)
        gamma = ref["num"] / ref["den"]
        rho = 1.2 * gamma / mu if gamma / mu >= 1.0 else 1.0
        sigma = 1.0 - gamma / (rho * mu)
        zeta = 1.0 / mu - 4.0 * ref["wtw"] / (mu**4 * sigma * rho)
        omega = 1.0 / (mu**2 * sigma * rho)
        expected = {"mu": mu, "gamma": gamma, "rho": rho, "sigma": sigma, "zeta": zeta, "omega": omega}
        for name, value in expected.items():
            assert abs(getattr(coeffs, name) - value) <= 1e-13 * abs(value), name
        assert _relative(merged, zeta * w + omega * z) <= 1e-13


@pytest.mark.parametrize("n", [128, BLOCK + 17])
@pytest.mark.parametrize("method", METHODS)
def test_public_step_is_the_drivers_first_step(n, method):
    """Each public step from x0 gives the bits of solve's first update from x0."""
    op = _tridiagonal(n, 2)
    x0 = init_vector(n, 3, op)
    alpha, beta, rho = 0.3, 0.2, "convergence_guaranteed"    # each method reads its own
    config = SolverConfig(method, alpha=alpha, beta=beta, rho_policy=rho, stop_mode="residual",
                          residual_tol=1e-300, max_iter=1)
    res = solve(op, config, x0=x0)
    assert res.iterations == 1 and not res.converged
    if method == "power":
        step = power_step(op, x0)
    elif method == "gd_difference":
        step = gd_step(op, x0, alpha)
    elif method == "power_momentum":
        step = power_momentum_step(op, x0, np.zeros(n), beta)[0]
    else:
        step, coeffs = split_merge_step(op, x0, rho)
        assert res.trace.coeffs[0] == coeffs
    np.testing.assert_array_equal(res.x, step)


@pytest.mark.parametrize("n", [128, BLOCK + 17])
@pytest.mark.parametrize("method", METHODS)
def test_step_kernel_forms_only_what_its_update_reads(n, method):
    """Without diagnostics, pass 1 forms x'Ax and ||Ax||^2 only where the update reads them,
    pass 2 forms no residual, and the update keeps its bits."""
    op = _tridiagonal(n, 4)
    x = init_vector(n, 5, op)
    param = {"gd_difference": 0.3, "power_momentum": 0.2, "split_merge": "fixed_one_with_safeguard"}
    kernels = [IterationKernel(n, method, param.get(method), diagnostics=d) for d in (True, False)]
    outputs = []
    for kernel in kernels:
        w = op.apply(x)
        z = op.apply(w) if method == "split_merge" else None
        outputs.append((kernel.measure(x, w, z), kernel.update(x, w, z), kernel.coeffs))
    (full, full_next, full_coeffs), (step, step_next, step_coeffs) = outputs
    quad = full[0] if method in ("gd_difference", "split_merge") else 0.0
    assert step == (quad, 0.0, None, 0.0, 0.0)
    assert full[1] > 0.0 and full[4] > 0.0
    np.testing.assert_array_equal(step_next, full_next)
    assert step_coeffs == full_coeffs


@pytest.mark.parametrize("method", METHODS)
def test_solve_reads_its_start_and_never_returns_it(method):
    """x0 is read in place, not written; a start that meets the stop rule comes back as a copy."""
    op = DenseOperator(np.diag([2.0, 1.0]))
    runs = [(np.array([1.0, 0.0]), 0), (np.array([0.6, 0.8]), 5)]    # an eigenvector stops at 0
    for x0, iterations in runs:
        start = x0.copy()
        config = SolverConfig(method, alpha=0.3, beta=0.2, stop_mode="residual",
                              residual_tol=1e-300, max_iter=5)
        res = solve(op, config, x0=x0)
        assert res.iterations == iterations
        assert res.x is not x0 and not np.shares_memory(res.x, x0)
        np.testing.assert_array_equal(x0, start)
