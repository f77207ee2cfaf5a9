import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from splitmerge import (
    AngleError,
    CsrOperator,
    DenseOperator,
    IterationTrace,
    SolverConfig,
    Spectrum,
    SplitMergeCoefficients,
    SyntheticSpec,
    compute_delta,
    dense_eigendecomposition,
    generate,
    init_vector,
    reference_dominant_eigenpair,
    sin_theta,
    solve,
    split_merge_step,
    square_root_factor,
    theorem51_bounds,
    verify_surrogate_dominance,
    verify_vhat_formula,
)
from splitmerge import theory
from splitmerge.solvers import BLOCK
from splitmerge.errors import (
    AsymmetricMatrixError, MatrixMarketError, OracleConvergenceError, UndefinedRatioError,
)
from splitmerge.theory import hessian_matrix, project_direction, surrogate_matrix

from conftest import random_psd_operator, random_symmetric

ROOT = Path(__file__).resolve().parents[1]
ONE_BLAS_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def _coeffs(zeta, omega):
    return SplitMergeCoefficients(
        mu=1.0, gamma=0.0, sigma=1.0, zeta=zeta, omega=omega, rho=1.0, degenerate=False
    )


class TestJacobiOracle:
    def test_classic_2x2(self, twobytwo):
        spec = dense_eigendecomposition(twobytwo)
        np.testing.assert_allclose(spec.eigenvalues, [3.0, 1.0], atol=1e-12)
        expected = np.array([1.0, 1.0]) / math.sqrt(2)
        assert abs(abs(spec.u1 @ expected) - 1.0) <= 1e-12

    def test_2x2_closed_form_family(self, rng):
        # eigenvalues of [[a,b],[b,c]]: (a+c)/2 +- sqrt(((a-c)/2)^2 + b^2)
        for _ in range(20):
            a, b, c = rng.uniform(-2, 2, size=3)
            op = DenseOperator(np.array([[a, b], [b, c]]))
            spec = dense_eigendecomposition(op)
            mid = (a + c) / 2.0
            rad = math.hypot((a - c) / 2.0, b)
            np.testing.assert_allclose(spec.eigenvalues, [mid + rad, mid - rad], atol=1e-12)

    def test_diagonal_with_repeats(self):
        op = DenseOperator(np.diag([5.0, 2.0, 2.0]))
        spec = dense_eigendecomposition(op)
        np.testing.assert_allclose(spec.eigenvalues, [5.0, 2.0, 2.0], atol=1e-14)
        assert abs(abs(spec.u1[0]) - 1.0) <= 1e-14

    def test_known_spectra_round_trip(self, rng):
        # conjugated diagonal matrices with known spectra
        for _ in range(100):
            n = int(rng.integers(2, 33))
            lam = np.sort(rng.uniform(0.0, 3.0, size=n))[::-1]
            lam[0] += 0.5  # keep the top simple
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            op = DenseOperator((q * lam) @ q.T)
            spec = dense_eigendecomposition(op)
            np.testing.assert_allclose(spec.eigenvalues, lam, atol=1e-10)
            assert abs(spec.u1 @ q[:, 0]) >= 1.0 - 1e-10

    def test_matches_numpy_eigh(self, rng):
        for _ in range(10):
            op = DenseOperator(random_symmetric(rng, 12))
            spec = dense_eigendecomposition(op)
            ref = np.linalg.eigvalsh(op.to_dense())[::-1]
            np.testing.assert_allclose(spec.eigenvalues, ref, atol=1e-12)

    def test_eigenpair_and_orthonormality_invariants(self, rng):
        op = random_psd_operator(rng, 24)
        spec = dense_eigendecomposition(op)
        u = spec.eigenvectors
        assert np.max(np.abs(u @ u.T - np.eye(24))) <= 1e-10
        dense = op.to_dense()
        lam1 = spec.eigenvalues[0]
        for i in range(24):
            resid = np.linalg.norm(dense @ u[:, i] - spec.eigenvalues[i] * u[:, i])
            assert resid <= 1e-8 * lam1

    def test_dense_limit_enforced(self, rng):
        op = random_psd_operator(rng, 8)
        with pytest.raises(ValueError):
            dense_eigendecomposition(op, dense_limit=4)

    def test_psd_clamp(self):
        op = DenseOperator(np.diag([1.0, -1e-13]))
        spec = dense_eigendecomposition(op)
        assert spec.eigenvalues[1] == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_raises(self, bad):
        # refused at construction, so LAPACK never decomposes it
        with pytest.raises(MatrixMarketError, match=f"order 2 has \\|\\|A\\|\\|_F = {bad}"):
            DenseOperator(np.array([[bad, 0.5], [0.5, 1.0]]))

    def test_asymmetric_csr_is_refused(self):
        # the matvec multiplies the whole matrix; eigh would decompose only its lower triangle
        op = CsrOperator(sp.csr_matrix([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(AsymmetricMatrixError, match="CSR operator of order 3 is asymmetric"):
            dense_eigendecomposition(op)

    def test_symmetric_csr_matches_its_dense_twin(self, rng):
        a = random_symmetric(rng, 12)
        a[np.abs(a) < 0.5] = 0.0
        spec = dense_eigendecomposition(CsrOperator(sp.csr_matrix(a)))
        assert np.array_equal(spec.eigenvalues, dense_eigendecomposition(DenseOperator(a)).eigenvalues)


class TestSquareRootFactor:
    def test_factor_reconstructs_operator(self, rng):
        for _ in range(10):
            op = random_psd_operator(rng, 10)
            spec = dense_eigendecomposition(op)
            factor = square_root_factor(spec)
            err = np.max(np.abs(factor.T @ factor - op.to_dense()))
            assert err <= 1e-8 * spec.lambda1

    def test_rank_truncation(self):
        op = DenseOperator(np.diag([2.0, 1.0, 0.0]))
        factor = square_root_factor(dense_eigendecomposition(op))
        assert factor.shape[0] == 2


class TestSinTheta:
    def test_collinear(self):
        u1 = np.array([1.0, 0.0])
        assert sin_theta(7.0 * u1, u1).sin_theta == 0.0

    def test_orthogonal(self):
        assert sin_theta(np.array([0.0, 3.0]), np.array([1.0, 0.0])).sin_theta == 1.0

    def test_forty_five_degrees(self):
        err = sin_theta(np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, 0.0]))
        assert err.sin_theta == pytest.approx(1.0 / math.sqrt(2))

    @pytest.mark.parametrize("x", [[0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0],
                                   [1.5e308, 1.5e308]])
    def test_zero_or_non_finite_vector_raises(self, x):
        # ||[1.5e308, 1.5e308]|| = 2.1e308 is beyond the largest float
        with pytest.raises(ValueError, match="angle undefined"):
            sin_theta(np.array(x), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("x, sin", [([1e200, 1e200], math.sqrt(0.5)),
                                        ([1e-200, 1e-200], math.sqrt(0.5)), ([1e-170, 0.0], 0.0)])
    def test_vector_whose_squares_over_or_underflow(self, x, sin):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = sin_theta(np.array(x), np.array([1.0, 0.0]))
        assert err.sin_theta == pytest.approx(sin, abs=1e-15)

    def test_u1_is_normalized(self):
        err = sin_theta(np.array([1.0, 1.0]) / math.sqrt(2), np.array([2.0, 0.0]))
        assert err.sin_theta == pytest.approx(1.0 / math.sqrt(2))
        for bad in ([0.0, 0.0], [math.nan, 1.0], [math.inf, 0.0]):
            with pytest.raises(ValueError, match="u1"):
                sin_theta(np.ones(2), np.array(bad))

    @given(st.integers(0, 2**32 - 1))
    def test_pythagorean_identity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(6)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        err = sin_theta(x, u)
        assert err.sin_theta**2 + err.cos_theta**2 == pytest.approx(1.0, abs=1e-12)


def _spectrum(lams):
    lams = np.asarray(lams, dtype=float)
    return Spectrum(lams, np.eye(len(lams)))


class TestComputeDelta:
    def test_midpoint_ratio(self):
        # -zeta/omega at (lambda2+lambda_n)/2 gives the admissible lower bound
        spec = _spectrum([1.0, 0.5, 0.1])
        delta = compute_delta(spec, zeta=-0.3, omega=1.0)
        expected = (0.5 - 0.1) / (2.0 - 0.5 - 0.1)
        assert delta == pytest.approx(expected, abs=1e-15)

    def test_power_limit(self):
        assert compute_delta(_spectrum([1.0, 0.7, 0.2]), zeta=1.0, omega=0.0) == 1.0

    def test_undefined_ratio(self):
        with pytest.raises(UndefinedRatioError):
            compute_delta(_spectrum([1.0, 0.5]), zeta=-1.0, omega=1.0)

    def test_one_eigenvalue_has_no_ratio(self):
        assert compute_delta(Spectrum(np.array([1.0]), np.array([[1.0]])), 0.3, 1.0) == 0.0

    def test_guaranteed_policy_pins_delta_below_one(self):
        # zeta >= 0 and omega > 0 put every ratio in [0, 1]
        op, truth = generate(SyntheticSpec(n=32, gap=0.1, seed=3))
        config = SolverConfig("split_merge", rho_policy="convergence_guaranteed")
        res = solve(op, config, ground_truth=truth)
        for c in res.trace.applied_coeffs():
            if not c.degenerate:
                assert compute_delta(truth, c.zeta, c.omega) <= 1.0

    def test_stage_one_late_ratio_targets_spectrum_interior(self):
        # observational: late -zeta/omega falls inside [lambda_n, lambda_2]
        # (loose tolerance); stage-1 runs do NOT keep delta below 1
        op, truth = generate(SyntheticSpec(n=64, gap=1e-2, seed=3))
        res = solve(op, SolverConfig("split_merge"), ground_truth=truth)
        coeffs = [c for c in res.trace.applied_coeffs() if not c.degenerate]
        tail = coeffs[int(0.8 * len(coeffs)):]
        lam2, lam_n = truth.eigenvalues[1], truth.eigenvalues[-1]
        for c in tail:
            assert lam_n - 0.05 <= c.neg_zeta_over_omega <= lam2 + 0.05


class TestTheorem53Equivalence:
    def test_interval_characterization_grid(self, rng):
        # delta-condition holds iff -zeta/omega lies in
        # [(l2 - d*l1)/(1-d), (ln + d*l1)/(1+d)], for d in [delta*, 1)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(3, 9))
            lam = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
            lam[0] += 0.2
            spec = _spectrum(lam)
            l1, l2, ln = lam[0], lam[1], lam[-1]
            delta_star = (l2 - ln) / (2 * l1 - l2 - ln)
            delta = float(rng.uniform(delta_star, 1.0))
            lo = (l2 - delta * l1) / (1.0 - delta)
            hi = (ln + delta * l1) / (1.0 + delta)
            if lo > hi:  # roundoff at delta ~ delta*
                continue
            t = float(rng.uniform(lo - 0.5, hi + 0.5))
            margin = 1e-9 * max(1.0, abs(lo), abs(hi))
            if min(abs(t - lo), abs(t - hi)) < margin or t >= l1:
                continue
            omega = float(rng.uniform(0.1, 5.0))
            inside = lo <= t <= hi
            delta_of_t = compute_delta(spec, zeta=-t * omega, omega=omega)
            assert (delta_of_t <= delta + 1e-12) == inside, (lam, delta, t)
            checked += 1

    def test_feasibility_lower_bound(self, rng):
        # below delta* the interval is empty
        for _ in range(100):
            lam = np.sort(rng.uniform(0.0, 1.0, size=5))[::-1]
            lam[0] += 0.2
            l1, l2, ln = lam[0], lam[1], lam[-1]
            delta_star = (l2 - ln) / (2 * l1 - l2 - ln)
            delta = float(rng.uniform(0.0, max(delta_star - 1e-6, 0.0)))
            lo = (l2 - delta * l1) / (1.0 - delta)
            hi = (ln + delta * l1) / (1.0 + delta)
            assert lo > hi


class TestTheorem51Bounds:
    def test_base_case_is_tan_theta0(self):
        op, truth = generate(SyntheticSpec(n=8, gap=0.3, seed=1))
        x0 = init_vector(8, 5, op)
        res = solve(op, SolverConfig("split_merge", max_iter=50), ground_truth=truth, x0=x0)
        theta0 = sin_theta(x0, truth.u1)
        bounds = theorem51_bounds(truth, res.trace, theta0)
        assert bounds.bound_sin[0] == pytest.approx(theta0.tan_theta)

    def test_formula_evaluation(self):
        spectrum = Spectrum(np.array([2.0, 1.0, 0.5]), np.eye(3))
        # per-step ratios max_j |zeta + omega*lambda_j| / (zeta + omega*lambda_1):
        # 1/2 and 2/3; the final record's coefficients (ratio 99/98) were never applied
        trace = IterationTrace(
            method="split_merge", matvecs=[2, 4, 6],
            coeffs=[_coeffs(0.0, 1.0), _coeffs(1.0, 1.0), _coeffs(100.0, -1.0)],
        )
        bounds = theorem51_bounds(spectrum, trace, AngleError(sin_theta=0.6, cos_theta=0.8))
        assert bounds.delta == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert bounds.applicable
        np.testing.assert_allclose(bounds.delta_per_iteration, [0.5, 2.0 / 3.0], rtol=1e-15)
        k = np.arange(3)
        ratio = (1.0 / 2.0) * (2.0 / 3.0)
        np.testing.assert_allclose(bounds.bound_sin, 0.75 * ratio**k, rtol=1e-14)
        np.testing.assert_allclose(
            bounds.bound_rayleigh, (2.0 - 0.5) * 0.75**2 * ratio ** (2 * k), rtol=1e-14
        )

    def test_one_eigenvalue_spectrum(self):
        # no lambda2: the ratio lambda2/lambda1 counts as 0, as in compute_delta
        op = DenseOperator(np.array([[2.0]]))
        truth = dense_eigendecomposition(op)
        res = solve(op, SolverConfig("split_merge"), ground_truth=truth)
        theta0 = AngleError(sin_theta=0.6, cos_theta=0.8)
        bounds = theorem51_bounds(truth, res.trace, theta0)
        assert bounds.applicable and bounds.delta == 0.0
        np.testing.assert_array_equal(bounds.bound_sin, [theta0.tan_theta])
        np.testing.assert_array_equal(bounds.bound_rayleigh, [0.0])

    def test_bounds_hold_on_guaranteed_run(self):
        for seed in range(5):
            op, truth = generate(SyntheticSpec(n=16, gap=0.1, seed=seed))
            x0 = init_vector(16, seed + 50, op)
            config = SolverConfig("split_merge", rho_policy="convergence_guaranteed")
            res = solve(op, config, ground_truth=truth, x0=x0)
            theta0 = sin_theta(x0, truth.u1)
            bounds = theorem51_bounds(truth, res.trace, theta0)
            assert bounds.applicable, f"delta = {bounds.delta} > 1 under guaranteed policy"
            sins = np.asarray(res.trace.sin_theta)
            rqs = np.abs(np.asarray(res.trace.rayleigh) - truth.lambda1)
            assert np.all(sins <= bounds.bound_sin + 1e-9)
            assert np.all(rqs <= bounds.bound_rayleigh + 1e-9)

    def test_delta_above_one_flags_not_applicable(self):
        op, truth = generate(SyntheticSpec(n=8, gap=0.3, seed=2))
        res = solve(op, SolverConfig("split_merge", max_iter=20), ground_truth=truth)
        trace = res.trace
        # doctor one applied coefficient so a ratio exceeds 1
        trace.coeffs[0].zeta = -0.99 * truth.lambda1
        trace.coeffs[0].omega = 1.0
        bounds = theorem51_bounds(truth, trace, sin_theta(np.ones(8), truth.u1))
        assert not bounds.applicable


class TestSurrogateDominance:
    def test_zero_v_collapses_to_upper_bound(self, rng):
        op = random_psd_operator(rng, 6)
        x = rng.standard_normal(6)
        assert verify_surrogate_dominance(op, x, np.zeros(6), samples=50, rng=7)

    def test_random_instances(self, rng):
        for trial in range(25):
            op = random_psd_operator(rng, 8)
            x = rng.standard_normal(8)
            v = rng.standard_normal(8)
            assert verify_surrogate_dominance(op, x, v, samples=200, rng=trial)

    def test_oversized_v_rescaled(self, rng):
        op = random_psd_operator(rng, 8)
        x = rng.standard_normal(8)
        v = rng.standard_normal(8)
        v *= 1.5 / np.linalg.norm(v)
        assert verify_surrogate_dominance(op, x, v, samples=100, rng=3)

    def test_full_eigenvalue_check_small_n(self, rng):
        # H - hess(f) PSD within 1e-9, and 2I - H PSD within 1e-9
        for _ in range(20):
            n = int(rng.integers(3, 9))
            op = random_psd_operator(rng, n)
            x = rng.standard_normal(n)
            spec = dense_eigendecomposition(op)
            factor = square_root_factor(spec)
            fx = factor @ x
            u = fx / np.linalg.norm(fx)
            v = project_direction(rng.standard_normal(factor.shape[0]), u)
            w = op.to_dense() @ x
            quad = float(x @ w)
            h = surrogate_matrix(factor, quad, w, u, v)
            hess = hessian_matrix(op, x)
            assert np.linalg.eigvalsh(h - hess).min() >= -1e-9
            assert np.linalg.eigvalsh(2.0 * np.eye(n) - h).min() >= -1e-9

    # a wrong piece must make the check fail, or a check that always passes would go unseen
    def test_hessian_above_the_surrogate_fails(self, rng, monkeypatch):
        op = random_psd_operator(rng, 6)
        x = rng.standard_normal(6)
        hess = theory.hessian_vec
        monkeypatch.setattr(theory, "hessian_vec", lambda op, x, d: hess(op, x, d) + 3.0 * d)
        assert not verify_surrogate_dominance(op, x, rng.standard_normal(6), samples=5, rng=1)

    def test_surrogate_above_2i_fails(self, rng, monkeypatch):
        op = random_psd_operator(rng, 6)
        x = rng.standard_normal(6)
        monkeypatch.setattr(theory, "surrogate_matrix", lambda *args: 3.0 * np.eye(6))
        assert not verify_surrogate_dominance(op, x, rng.standard_normal(6), samples=5, rng=1)


class TestVhatFormula:
    def test_two_by_two_cross_validation(self, diag21):
        x = np.array([1.0, 1.0]) / math.sqrt(2)
        check = verify_vhat_formula(diag21, x, rho=1.0)
        assert not check.skipped
        assert check.passed
        np.testing.assert_allclose(
            check.merged_next, [0.74977242087062019, 0.11625298291381846], atol=1e-14
        )
        np.testing.assert_allclose(check.explicit_next, check.merged_next, rtol=1e-8)

    def test_wrong_factor_fails_the_vhat_identities(self, diag21, monkeypatch):
        # with 2F for F, vhat'Fx = 0 no longer holds
        factor = theory.square_root_factor
        monkeypatch.setattr(theory, "square_root_factor", lambda spec: 2.0 * factor(spec))
        check = verify_vhat_formula(diag21, np.array([1.0, 1.0]) / math.sqrt(2), rho=1.0)
        assert not check.passed and not check.skipped
        assert check.merged_next is None

    def test_perturbed_merged_step_fails(self, diag21, monkeypatch):
        step = theory.split_merge_step

        def perturbed(op, x, rho):
            x_next, coeffs = step(op, x, rho)
            return x_next * (1.0 + 1e-6), coeffs

        monkeypatch.setattr(theory, "split_merge_step", perturbed)
        check = verify_vhat_formula(diag21, np.array([1.0, 1.0]) / math.sqrt(2), rho=1.0)
        assert not check.passed and not check.skipped
        np.testing.assert_allclose(check.explicit_next, check.merged_next, rtol=1e-5)

    def test_eigenvector_skips(self, diag21):
        check = verify_vhat_formula(diag21, np.array([1.0, 0.0]), rho=1.0)
        assert check.skipped and check.passed

    def test_vhat_norm_constraint(self, diag21):
        x = np.array([1.0, 1.0]) / math.sqrt(2)
        check = verify_vhat_formula(diag21, x, rho=2.0)
        assert check.passed
        assert float(check.vhat @ check.vhat) == pytest.approx(0.5, abs=1e-10)

    def test_random_instances(self, rng):
        passed = 0
        for _ in range(30):
            n = int(rng.integers(3, 17))
            op = random_psd_operator(rng, n)
            x = rng.standard_normal(n)
            coeffs = split_merge_step(op, x, "fixed_one_with_safeguard")[1]
            if coeffs.degenerate:
                continue
            rho = max(1.0, coeffs.gamma / coeffs.mu * float(rng.uniform(1.05, 2.0)))
            check = verify_vhat_formula(op, x, rho=rho)
            if check.skipped:
                continue
            assert check.passed
            passed += 1
        assert passed >= 25


class TestAppendixB1:
    def test_sigma_sign_iff_surrogate_pd(self, rng):
        # sigma > 0 iff every eigenvalue of H(u, v) is positive
        cases = {True: 0, False: 0}
        for trial in range(60):
            n = int(rng.integers(2, 17))
            op = random_psd_operator(rng, n)
            x = rng.standard_normal(n)
            spec = dense_eigendecomposition(op)
            factor = square_root_factor(spec)
            fx = factor @ x
            u = fx / np.linalg.norm(fx)
            v = rng.standard_normal(factor.shape[0])
            v -= (v @ u) * u
            v *= 10.0 ** rng.uniform(-1, 1) / np.linalg.norm(v)
            w = op.to_dense() @ x
            quad = float(x @ w)
            s = math.sqrt(quad)
            sigma = 1.0 - float(v @ (factor @ (factor.T @ v))) / (2.0 * s)
            if abs(sigma) < 1e-6:  # stay off the knife edge
                continue
            h = surrogate_matrix(factor, quad, w, u, v)
            min_eig = dense_eigendecomposition(DenseOperator(h)).eigenvalues[-1]
            assert (sigma > 0.0) == (min_eig > 0.0), (sigma, min_eig)
            cases[sigma > 0.0] += 1
        assert cases[True] >= 5 and cases[False] >= 5

    def test_min_eigenvalue_is_two_sigma(self, rng):
        # with u = Fx/||Fx|| the u-term cancels the rank-one Hessian term and
        # H has eigenvalues {2, ..., 2, 2*sigma}
        op = random_psd_operator(rng, 8)
        x = rng.standard_normal(8)
        spec = dense_eigendecomposition(op)
        factor = square_root_factor(spec)
        fx = factor @ x
        u = fx / np.linalg.norm(fx)
        v = rng.standard_normal(8)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        w = op.to_dense() @ x
        quad = float(x @ w)
        sigma = 1.0 - float(v @ (factor @ (factor.T @ v))) / (
            2.0 * math.sqrt(quad)
        )
        h = surrogate_matrix(factor, quad, w, u, v)
        eigs = np.linalg.eigvalsh(h)
        assert eigs[0] == pytest.approx(2.0 * sigma, abs=1e-10)
        np.testing.assert_allclose(eigs[1:], 2.0, atol=1e-10)


class TestAppendixB2:
    def test_relaxation_bound(self, rng):
        # (v'Bv)/(v'Cv) <= (v'q)^2 / (1 - lambda1/(2*rho*s)) for feasible v
        checked = 0
        for trial in range(60):
            n = int(rng.integers(3, 17))
            op = random_psd_operator(rng, n)
            x = rng.standard_normal(n)
            spec = dense_eigendecomposition(op)
            f = square_root_factor(spec)
            fx = f @ x
            u = fx / np.linalg.norm(fx)
            rho = float(rng.uniform(1.0, 3.0))
            v = rng.standard_normal(f.shape[0])
            v -= (v @ u) * u
            v *= 1.0 / (math.sqrt(rho) * np.linalg.norm(v))
            s = math.sqrt(float(x @ (op.to_dense() @ x)))
            denom = 1.0 - spec.lambda1 / (2.0 * rho * s)
            if denom <= 1e-9:
                continue
            q = f @ (f.T @ fx)
            ff_v = f @ (f.T @ v)
            vbv = float(v @ q) ** 2
            vcv = rho * float(v @ v) - float(v @ ff_v) / (2.0 * s)
            assert vcv > 0.0
            assert vbv / vcv <= vbv / denom + 1e-9 * max(1.0, abs(vbv / denom))
            checked += 1
        assert checked >= 20


class TestDominantReference:
    def test_certified_against_generator(self):
        op, truth = generate(SyntheticSpec(n=48, gap=0.3, seed=4))
        ref = reference_dominant_eigenpair(op)
        assert ref.lambda1 == pytest.approx(truth.lambda1, abs=1e-9)
        assert abs(ref.u1 @ truth.u1) >= 1.0 - 1e-9

    @pytest.mark.parametrize("tridiagonal", [False, True])    # ARPACK, inverse iteration
    def test_counter_advances_by_its_matvecs(self, tridiagonal):
        if tridiagonal:
            op = CsrOperator(sp.diags([np.full(63, 0.5), np.linspace(1.0, 2.0, 64),
                                       np.full(63, 0.5)], [-1, 0, 1]))
        else:
            op = generate(SyntheticSpec(n=16, gap=0.3, seed=4))[0]
        op.apply(np.ones(op.n))    # a product before the call is not the reference's
        ref = reference_dominant_eigenpair(op)
        assert ref.matvecs >= 2
        assert op.matvec_count == 1 + ref.matvecs

    def test_one_by_one_rejected(self):
        with pytest.raises(ValueError):
            reference_dominant_eigenpair(DenseOperator(np.array([[2.0]])))

    def test_csr_tridiagonal_against_eigvalsh(self):
        n = 2000
        m = sp.diags(
            [np.full(n - 1, 0.5), np.linspace(1.0, 2.0, n), np.full(n - 1, 0.5)], [-1, 0, 1]
        ).tocsr()
        op = CsrOperator(m)
        ref = reference_dominant_eigenpair(op)
        assert ref.lambda1 == pytest.approx(np.linalg.eigvalsh(m.toarray())[-1], rel=1e-12)
        assert np.linalg.norm(m @ ref.u1 - ref.lambda1 * ref.u1) <= 1e-10 * ref.lambda1
        assert ref.residual <= 1e-10 * ref.lambda1
        assert op.matvec_count == ref.matvecs

    def test_non_finite_entry_raises_promptly(self):
        m = sp.diags([np.full(199, 0.5), np.ones(200), np.full(199, 0.5)], [-1, 0, 1]).tocsr()
        m.data[5] = math.nan
        with pytest.raises(MatrixMarketError, match="order 200 has"):
            CsrOperator(m)

    @staticmethod
    def _perturbed_top_pair(m):
        """The top eigenvalue of m with its vector tilted by 1e-6 toward the bottom one."""
        eigs, vecs = np.linalg.eigh(m.toarray())
        u = vecs[:, -1] + 1e-6 * vecs[:, 0]
        u /= np.linalg.norm(u)
        resid = float(np.linalg.norm(m @ u - eigs[-1] * u))
        assert resid > 1e-10 * eigs[-1]
        return eigs[-1], u, resid

    def test_uncertified_pair_is_refused(self, monkeypatch):
        import scipy.sparse.linalg as spla

        # pentadiagonal, so the pair comes from ARPACK
        n = 200
        m = sp.diags([np.full(n - 2, 0.1), np.full(n - 1, 0.5), np.linspace(1.0, 2.0, n),
                      np.full(n - 1, 0.5), np.full(n - 2, 0.1)], [-2, -1, 0, 1, 2]).tocsr()
        lam, u, resid = self._perturbed_top_pair(m)
        seen = {}

        def perturbed_eigsh(*args, **kwargs):
            seen.update(kwargs)
            return np.array([lam]), u[:, None].copy()

        monkeypatch.setattr(spla, "eigsh", perturbed_eigsh)
        with pytest.raises(OracleConvergenceError,
                           match=f"ARPACK reference residual {resid:.3e} not certified"):
            reference_dominant_eigenpair(CsrOperator(m))
        assert seen["tol"] == theory.REFERENCE_TOL == theory.REFERENCE_CERTIFY / 10

    def test_uncertified_lapack_pair_is_refused(self, monkeypatch):
        n = 200
        m = sp.diags([np.full(n - 1, 0.5), np.linspace(1.0, 2.0, n), np.full(n - 1, 0.5)],
                     [-1, 0, 1]).tocsr()
        lam, u, resid = self._perturbed_top_pair(m)
        seen = {}

        def perturbed_pair(view, diag, off):
            seen.update(diag=diag.copy(), off=off.copy())
            return lam, u.copy()

        monkeypatch.setattr(theory, "_top_tridiagonal_pair", perturbed_pair)
        with pytest.raises(OracleConvergenceError,
                           match=f"reference residual {resid:.3e} not certified"):
            reference_dominant_eigenpair(CsrOperator(m))
        assert np.array_equal(seen["diag"], m.diagonal())
        assert np.array_equal(seen["off"], m.diagonal(1))

    def test_non_top_pair_is_refused(self, monkeypatch):
        # (lambda2, u2) passes the residual certificate but has lambda1 above it
        n = 200
        m = sp.diags([np.full(n - 1, 0.5), np.linspace(1.0, 2.0, n), np.full(n - 1, 0.5)],
                     [-1, 0, 1]).tocsr()
        eigs, vecs = np.linalg.eigh(m.toarray())
        monkeypatch.setattr(theory, "_top_tridiagonal_pair",
                            lambda view, diag, off: (eigs[-2], vecs[:, -2].copy()))
        with pytest.raises(OracleConvergenceError,
                           match=f"lambda = {eigs[-2]:.6g} is not the top eigenvalue"):
            reference_dominant_eigenpair(CsrOperator(m))

    def test_near_degenerate_top_pair(self):
        # lambda1 = 1 and lambda2 = 1 - 1e-6 sit at two rows with the same
        # neighbourhood, so the couplings move both alike and the gap stays ~1e-6
        n = 2000
        rng = np.random.default_rng(5)
        diag = rng.uniform(0.05, 0.9, n)
        off = rng.uniform(0.001, 0.02, n - 1)
        for row, value in ((500, 1.0), (1500, 1.0 - 1e-6)):
            diag[row - 1:row + 2] = (0.5, value, 0.5)
            off[row - 2:row + 2] = 0.001
        m = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
        eigs, vecs = np.linalg.eigh(m.toarray())
        gap = eigs[-1] - eigs[-2]
        assert gap == pytest.approx(1e-6, rel=1e-3)

        ref = reference_dominant_eigenpair(CsrOperator(m))
        assert ref.residual <= 1e-10 * ref.lambda1
        assert ref.lambda1 == pytest.approx(eigs[-1], rel=1e-12)
        # Davis-Kahan: sin(u, u1) <= residual / gap, plus eigh's own ~eps ||A|| / gap
        u1 = vecs[:, -1]
        sin = np.linalg.norm(ref.u1 - (ref.u1 @ u1) * u1)
        assert sin <= ref.residual / gap + 1e-9

    def test_tridiagonal_reference_is_pinned(self):
        # the benchmark's tridiagonal recipe at n = 40000 > solvers.BLOCK, so that each pass
        # over blocks takes two; in a one-BLAS-thread child, as a threaded ddot sums in
        # another order (two threads give another residual and another u1)
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--pin"], capture_output=True,
            text=True, timeout=300, check=True,
            env=dict(os.environ, **ONE_BLAS_THREAD, PYTHONPATH=os.pathsep.join(
                filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))),
        )
        assert json.loads(child.stdout) == [
            "0x1.00002b825d85fp+0", "0x1.b24ecd4c3378fp-59", 6,
            "7fa5c7f2c4d044adb6f2cd886cda8117198a525bd3385105b1e52d1832d8a7e9",
        ]

    @pytest.mark.parametrize("n", [2, 3, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
    def test_block_passes_keep_the_whole_vector_bits(self, n):
        rng = np.random.default_rng(n)
        diag, off = rng.standard_normal(n), rng.standard_normal(n - 1)
        bound = diag.copy()
        bound[:-1] += np.abs(off)
        bound[1:] += np.abs(off)
        assert theory._gershgorin_top(diag, off) == bound.max()
        w, u, rho = rng.standard_normal(n), rng.standard_normal(n), float(rng.uniform(0.5, 2.0))
        whole = w - rho * u
        assert theory._residual_norm(w, u, rho) == np.linalg.norm(whole)
        assert np.array_equal(w, whole)    # written over w

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_shift_that_stays_keeps_its_factor(self, monkeypatch, seed):
        # on these seeds rho + residual lies above the first shift, so sigma stays there
        m = _benchmark_tridiagonal(2000, seed)
        real, calls = theory._shifted_factor, []

        def spy(sigma, *bands):
            factor = real(sigma, *bands)
            calls.append((sigma, factor is not None))
            return factor

        monkeypatch.setattr(theory, "_shifted_factor", spy)
        ref = reference_dominant_eigenpair(CsrOperator(m))
        assert ref.residual <= theory.REFERENCE_CERTIFY * ref.lambda1
        held = None
        for sigma, factored in calls:
            assert sigma != held, f"refactored at {sigma!r}, the shift of the factor in hand"
            held = sigma if factored else held

    def test_tridiagonal_pair_matches_arpack(self, monkeypatch):
        n = 2000
        m = sp.diags([np.full(n - 1, 0.5), np.linspace(1.0, 2.0, n), np.full(n - 1, 0.5)],
                     [-1, 0, 1]).tocsr()
        op = CsrOperator(m)
        lapack = reference_dominant_eigenpair(op)
        monkeypatch.setattr(theory, "_tridiagonal_bands", lambda view: None)
        arpack = reference_dominant_eigenpair(op)
        assert 1 <= lapack.matvecs < arpack.matvecs
        assert lapack.lambda1 == pytest.approx(arpack.lambda1, rel=1e-13)
        assert abs(lapack.u1 @ arpack.u1) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _no_lapack(monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("the tridiagonal path was taken")

        monkeypatch.setattr(theory, "_top_tridiagonal_pair", refuse)

    @staticmethod
    def _counted_eigsh(monkeypatch):
        import scipy.sparse.linalg as spla

        calls, real = [], spla.eigsh
        monkeypatch.setattr(spla, "eigsh", lambda *a, **k: calls.append(k) or real(*a, **k))
        return calls

    def test_pentadiagonal_keeps_the_arpack_pair_bit_for_bit(self, monkeypatch):
        from scipy.sparse.linalg import LinearOperator as ScipyOperator, eigsh

        n = 500
        m = sp.diags([np.full(n - 2, 0.1), np.full(n - 1, 0.5), np.linspace(1.0, 2.0, n),
                      np.full(n - 1, 0.5), np.full(n - 2, 0.1)], [-2, -1, 0, 1, 2]).tocsr()
        vals, vecs = eigsh(ScipyOperator((n, n), matvec=lambda x: m @ x, dtype=float), k=1,
                           which="LA", v0=np.random.default_rng(0).standard_normal(n),
                           ncv=theory.REFERENCE_NCV, tol=theory.REFERENCE_TOL)
        self._no_lapack(monkeypatch)
        calls = self._counted_eigsh(monkeypatch)
        ref = reference_dominant_eigenpair(CsrOperator(m))
        assert len(calls) == 1
        assert ref.lambda1 == vals[0] and np.array_equal(ref.u1, vecs[:, 0])

    def test_unequal_off_diagonals_reach_arpack(self, monkeypatch):
        n = 300
        upper = np.full(n - 1, 0.5)
        lower = upper.copy()
        lower[7] = np.nextafter(0.5, 1.0)   # one ulp apart: not exactly symmetric
        m = sp.diags([lower, np.linspace(1.0, 2.0, n), upper], [-1, 0, 1]).tocsr()
        self._no_lapack(monkeypatch)
        calls = self._counted_eigsh(monkeypatch)
        ref = reference_dominant_eigenpair(CsrOperator(m))
        assert len(calls) == 1 and ref.residual <= theory.REFERENCE_CERTIFY * ref.lambda1

    @pytest.mark.parametrize("m", [
        sp.diags(np.array([0.5, 0.0, 3.0, 0.0, 1.0, 2.0])),   # rows 1 and 3 hold no entry
        sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]])),
    ], ids=["diagonal-with-empty-rows", "order-2"])
    def test_diagonal_and_order_two_certify(self, m, monkeypatch):
        m = sp.csr_matrix(m)
        m.eliminate_zeros()
        calls = self._counted_eigsh(monkeypatch)
        ref = reference_dominant_eigenpair(CsrOperator(m))
        assert calls == [] and ref.matvecs >= 1
        assert ref.lambda1 == pytest.approx(np.linalg.eigvalsh(m.toarray())[-1], rel=1e-14)
        assert ref.residual <= theory.REFERENCE_CERTIFY * ref.lambda1

    def test_lapack_failures_raise_the_typed_error_with_n(self):
        # finite entries, ||A||_F = 1.35e308, whose Gershgorin bound 1.9e308 at row 3 overflows
        n = 50
        m = sp.diags([np.full(n - 1, 0.5), np.ones(n), np.full(n - 1, 0.5)], [-1, 0, 1]).tolil()
        m[3, 2], m[3, 3], m[3, 4] = 0.5e308, 0.9e308, 0.5e308
        m[2, 3] = m[4, 3] = 0.5e308
        op = CsrOperator(m.tocsr())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OracleConvergenceError, match=f"reference failed at n = {n}"):
                reference_dominant_eigenpair(op)

    def test_non_finite_entry_is_refused_before_arpack(self, capfd):
        # nan != nan, so this operator is not tridiagonal to _tridiagonal_bands and would go to
        # ARPACK, whose LAPACK calls print "DLASCL parameter number 4" to standard output
        n = 50
        m = sp.diags([np.full(n - 1, 0.5), np.ones(n), np.full(n - 1, 0.5)], [-1, 0, 1]).tolil()
        m[3, 4] = m[4, 3] = math.nan
        with pytest.raises(MatrixMarketError, match=f"order {n} has \\|\\|A\\|\\|_F = nan"):
            CsrOperator(m.tocsr())
        assert capfd.readouterr() == ("", "")

    def test_step_cap_raises_with_n_and_the_residual_reached(self, monkeypatch):
        n = 300
        m = sp.diags([np.full(n - 1, 0.5), np.linspace(1.0, 2.0, n), np.full(n - 1, 0.5)],
                     [-1, 0, 1]).tocsr()
        monkeypatch.setattr(theory, "REFERENCE_STEPS", 1)
        with pytest.raises(OracleConvergenceError,
                           match=f"reached residual (\\S+) in 1 steps at n = {n}") as caught:
            reference_dominant_eigenpair(CsrOperator(m))
        reached = float(caught.value.args[0].split("residual ")[1].split()[0])
        assert reached > theory.REFERENCE_TOL * 2.0

    @staticmethod
    def _top_pair_checks(m, eigs, vecs):
        """The reference against a dense eigh of m: lambda1, certificate and Davis-Kahan."""
        ref = reference_dominant_eigenpair(CsrOperator(m))
        assert ref.residual <= theory.REFERENCE_CERTIFY * ref.lambda1
        assert ref.lambda1 == pytest.approx(eigs[-1], rel=1e-12)
        gap = eigs[-1] - eigs[-2]
        u1 = vecs[:, -1]
        # sin(u, u1) <= residual / gap, plus eigh's own ~eps ||A|| / gap
        sin = np.linalg.norm(ref.u1 - (ref.u1 @ u1) * u1)
        assert sin <= ref.residual / gap + 1e-13 * abs(eigs).max() / gap
        return ref

    @pytest.mark.parametrize("case", ["random", "alternating"])
    def test_gershgorin_bound_far_above_lambda1(self, case):
        # the first shift, just above the Gershgorin bound, lies many top gaps above
        # lambda1, so inverse iteration at that shift alone would take ~50 steps here
        n = 2000
        rng = np.random.default_rng(1 if case == "random" else 2)
        if case == "random":
            diag, off = rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n - 1)
        else:   # rows at -100 between rows at ~0, coupled by ~5: bound ~12, lambda1 ~1.3
            diag = np.where(np.arange(n) % 2 == 0, 0.0, -100.0) + rng.uniform(0.0, 0.1, n)
            off = rng.uniform(5.0, 6.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        m = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
        bound = diag.copy()
        bound[:-1] += np.abs(off)
        bound[1:] += np.abs(off)
        eigs, vecs = np.linalg.eigh(m.toarray())
        assert bound.max() - eigs[-1] > 10.0 * (eigs[-1] - eigs[-2]) > 0.0
        assert self._top_pair_checks(m, eigs, vecs).matvecs <= 20

    def test_laplacian_with_a_tiny_top_gap(self):
        # tridiag(-1, 2, -1): lambda_k = 2 + 2 cos(k pi / (n + 1)), so lambda1 - lambda2 ~
        # 3 pi^2 / n^2 = 3e-9 = 7e-10 * lambda1, and u1_i = (-1)^i sin(i pi / (n + 1))
        n = 100_000
        m = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)], [-1, 0, 1],
                     format="csr")
        ref = reference_dominant_eigenpair(CsrOperator(m))
        lam = 2.0 + 2.0 * math.cos(math.pi / (n + 1))
        gap = lam - (2.0 + 2.0 * math.cos(2.0 * math.pi / (n + 1)))
        assert ref.residual <= theory.REFERENCE_CERTIFY * ref.lambda1
        assert ref.lambda1 == pytest.approx(lam, rel=1e-12)
        i = np.arange(1, n + 1)
        u1 = (-1.0) ** i * np.sin(i * math.pi / (n + 1))
        u1 /= np.linalg.norm(u1)
        sin = np.linalg.norm(ref.u1 - (ref.u1 @ u1) * u1)
        assert sin <= ref.residual / gap + 1e-9

    def test_top_rows_1e_9_apart(self):
        # as in test_near_degenerate_top_pair, with the two top rows 1e-9 apart
        n = 2000
        rng = np.random.default_rng(6)
        diag = rng.uniform(0.05, 0.9, n)
        off = rng.uniform(0.001, 0.02, n - 1)
        for row, value in ((500, 1.0), (1500, 1.0 - 1e-9)):
            diag[row - 1:row + 2] = (0.5, value, 0.5)
            off[row - 2:row + 2] = 0.001
        m = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
        eigs, vecs = np.linalg.eigh(m.toarray())
        assert eigs[-1] - eigs[-2] == pytest.approx(1e-9, rel=0.1)
        self._top_pair_checks(m, eigs, vecs)


def _benchmark_tridiagonal(n, seed):
    """The benchmark's tridiagonal recipe: lambda1 ~ 1 and lambda2 ~ 0.95 at two rows
    coupled by 0.001, the rest of the diagonal in [0.05, 0.9]."""
    rng = np.random.default_rng([seed, 1])
    diag = rng.integers(50_000, 900_001, n) / 1e6
    off = rng.integers(1_000, 20_001, n - 1) * rng.choice([-1, 1], n - 1) / 1e6
    for row, value in ((rng.integers(1, n // 2), 1.0), (rng.integers(n // 2 + 1, n - 1), 0.95)):
        diag[row] = value
        off[row - 1:row + 1] = np.sign(off[row - 1:row + 1]) * 0.001
    return sp.diags([off, diag, off], [-1, 0, 1], format="csr")


def _pinned_reference():
    """(lambda1.hex(), residual.hex(), matvecs, SHA-256 of u1) of the pinned tridiagonal."""
    ref = reference_dominant_eigenpair(CsrOperator(_benchmark_tridiagonal(40_000, 3)))
    return [ref.lambda1.hex(), ref.residual.hex(), ref.matvecs,
            hashlib.sha256(ref.u1.tobytes()).hexdigest()]


if __name__ == "__main__" and sys.argv[1:] == ["--pin"]:
    print(json.dumps(_pinned_reference()))
