"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete. Every tolerance is pinned here, none are calibrated at
run time.
"""

import math
import statistics
import time

import numpy as np
import pytest

from splitmerge import (
    DenseOperator,
    SolverConfig,
    SyntheticSpec,
    compute_delta,
    dense_eigendecomposition,
    generate,
    gd_step,
    init_vector,
    power_step,
    sin_theta,
    solve,
    split_merge_step,
    square_root_factor,
    theorem51_bounds,
    verify_surrogate_dominance,
    verify_vhat_formula,
)
from splitmerge.theory import hessian_matrix, project_direction, surrogate_matrix

from conftest import random_psd_operator


def _verdict(num, name, passed, detail):
    print(f"[ACCEPTANCE] criterion {num} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_optimality_value():
    # split-merge lands on the global minimum -lambda1/4 and lambda(x_K)
    # matches lambda1: 20 instances, n=64, gaps 1e-1 and 1e-2, under 5 s
    t0 = time.perf_counter()
    worst_f = worst_lam = 0.0
    for i, gap in enumerate([1e-1] * 10 + [1e-2] * 10):
        op, truth = generate(SyntheticSpec(n=64, gap=gap, seed=i))
        res = solve(op, SolverConfig("split_merge"), ground_truth=truth)
        assert res.converged
        worst_f = max(worst_f, abs(res.trace.f_value[-1] - (-truth.lambda1 / 4.0)))
        worst_lam = max(worst_lam, abs(res.lambda_estimate - truth.lambda1))
    elapsed = time.perf_counter() - t0
    passed = worst_f <= 1e-8 and worst_lam <= 1e-7 and elapsed < 5.0
    _verdict(
        1, "optimality value", passed,
        f"max|f-f*|={worst_f:.2e} (<=1e-8), max|lam-l1|={worst_lam:.2e} (<=1e-7), "
        f"{elapsed:.2f}s (<5s)",
    )


def test_criterion_2_step_size_acceleration():
    # alpha=0.9 reaches f-f* <= 1e-6 in at most 0.65x the iterations of
    # alpha=0.5 (median over 10 seeded trials), n=256, gap=1e-3
    ratios = []
    for trial in range(10):
        op, truth = generate(SyntheticSpec(n=256, gap=1e-3, seed=trial))
        x0 = init_vector(256, np.random.SeedSequence((7, trial)), op)
        f_star = -truth.lambda1 / 4.0

        def crossing(alpha):
            config = SolverConfig("gd_difference", alpha=alpha, eps=1e-2, max_iter=20000)
            res = solve(op.share(), config, ground_truth=truth, x0=x0)
            gaps = np.asarray(res.trace.f_value) - f_star
            hits = np.nonzero(gaps <= 1e-6)[0]
            assert hits.size, f"alpha={alpha} never reached f-f* <= 1e-6"
            return int(hits[0])

        ratios.append(crossing(0.9) / crossing(0.5))
    med = statistics.median(ratios)
    _verdict(2, "step-size acceleration", med <= 0.65,
             f"median iteration ratio alpha 0.9/0.5 = {med:.3f} (<= 0.65)")


def test_criterion_3_split_merge_speedup():
    # n=1024, gap=1e-3, 10 trials sharing x0: median matvec speed-up >= 2.0,
    # median iteration speed-up >= 4.0, wall-time speed-up >= 2.0, < 2 min
    t0 = time.perf_counter()
    it_ratios, mv_ratios, time_ratios = [], [], []
    for trial in range(10):
        op, truth = generate(SyntheticSpec(n=1024, gap=1e-3, seed=trial))
        x0 = init_vector(1024, np.random.SeedSequence((0, trial, 1)), op)
        r_sm = solve(op.share(), SolverConfig("split_merge"), ground_truth=truth, x0=x0)
        r_pw = solve(op.share(), SolverConfig("power"), ground_truth=truth, x0=x0)
        assert r_sm.converged and r_pw.converged
        it_ratios.append(r_pw.iterations / r_sm.iterations)
        mv_ratios.append(r_pw.trace.matvecs[-1] / r_sm.trace.matvecs[-1])
        time_ratios.append(r_pw.trace.seconds[-1] / r_sm.trace.seconds[-1])
    elapsed = time.perf_counter() - t0
    med_it = statistics.median(it_ratios)
    med_mv = statistics.median(mv_ratios)
    med_t = statistics.median(time_ratios)
    passed = med_mv >= 2.0 and med_it >= 4.0 and med_t >= 2.0 and elapsed < 120.0
    _verdict(
        3, "split-merge vs power speed-up", passed,
        f"median speed-ups: iterations {med_it:.2f} (>=4), matvecs {med_mv:.2f} (>=2), "
        f"wall-time {med_t:.2f} (>=2), total {elapsed:.1f}s (<120s)",
    )


def test_criterion_4_rate_bounds():
    # where the per-iteration delta stays <= 1, recorded sin(theta_k) and
    # |r(x_k) - lambda1| respect the rate envelopes (+1e-9); delta > 1
    # instances are flagged and excluded, flag counts reported per policy
    flags = {}
    checked = 0
    for policy in ("fixed_one_with_safeguard", "convergence_guaranteed"):
        flagged = 0
        for trial in range(10):
            op, truth = generate(SyntheticSpec(n=64, gap=1e-2, seed=200 + trial))
            x0 = init_vector(64, np.random.SeedSequence((4, trial)), op)
            res = solve(op.share(), SolverConfig("split_merge", rho_policy=policy),
                        ground_truth=truth, x0=x0)
            theta0 = sin_theta(x0, truth.u1)
            bounds = theorem51_bounds(truth, res.trace, theta0)
            if not bounds.applicable:
                flagged += 1
                continue
            sins = np.asarray(res.trace.sin_theta)
            rqs = np.abs(np.asarray(res.trace.rayleigh) - truth.lambda1)
            assert np.all(sins <= bounds.bound_sin + 1e-9), f"{policy} trial {trial}"
            assert np.all(rqs <= bounds.bound_rayleigh + 1e-9), f"{policy} trial {trial}"
            checked += 1
        flags[policy] = flagged
    passed = checked > 0
    _verdict(
        4, "rate bounds", passed,
        f"checked {checked} qualifying runs; flagged delta>1: "
        f"stage-1 {flags['fixed_one_with_safeguard']}/10, "
        f"guaranteed {flags['convergence_guaranteed']}/10",
    )


def test_criterion_5_surrogate_dominance():
    # sampled dominance on 100 instances (n=8, 200 directions) plus a full
    # eigenvalue check H - hess f >= -1e-9 I on 20 instances
    rng = np.random.default_rng(505)
    for trial in range(100):
        op = random_psd_operator(rng, 8)
        x = rng.standard_normal(8)
        v = rng.standard_normal(8)
        assert verify_surrogate_dominance(op, x, v, samples=200, rng=trial)
    min_gap_eig = math.inf
    for trial in range(20):
        n = int(rng.integers(3, 9))
        op = random_psd_operator(rng, n)
        x = rng.standard_normal(n)
        spec = dense_eigendecomposition(op)
        factor = square_root_factor(spec)
        fx = factor @ x
        u = fx / np.linalg.norm(fx)
        v = project_direction(rng.standard_normal(factor.shape[0]), u)
        w = op.to_dense() @ x
        h = surrogate_matrix(factor, float(x @ w), w, u, v)
        gap_eigs = np.linalg.eigvalsh(h - hessian_matrix(op, x))
        min_gap_eig = min(min_gap_eig, float(gap_eigs.min()))
        assert gap_eigs.min() >= -1e-9
    _verdict(
        5, "surrogate dominance", True,
        f"100 sampled instances x 200 directions passed; "
        f"full eigencheck min eig(H - hess) = {min_gap_eig:.2e} (>= -1e-9)",
    )


def test_criterion_6_split_merge_cross_validation():
    # explicit-factor update equals the merged two-matvec update to 1e-8
    # relative on 50 non-degenerate instances, n <= 16
    rng = np.random.default_rng(606)
    passed = 0
    attempts = 0
    while passed < 50:
        attempts += 1
        assert attempts < 500, "could not collect 50 non-degenerate instances"
        n = int(rng.integers(3, 17))
        op = random_psd_operator(rng, n)
        x = rng.standard_normal(n)
        probe = split_merge_step(op.share(), x)[1]
        if probe.degenerate:
            continue
        rho = max(1.0, probe.gamma / probe.mu * float(rng.uniform(1.05, 2.0)))
        check = verify_vhat_formula(op, x, rho=rho)
        if check.skipped:
            continue
        assert check.passed
        passed += 1
    _verdict(6, "split/merge cross-validation", True,
             f"{passed} non-degenerate instances agreed to 1e-8 relative")


def test_criterion_7_power_method_equivalences():
    # gd with alpha = 1/2 is collinear with the power direction, and the
    # degenerate split-merge step is exactly the DCA iterate
    rng = np.random.default_rng(707)
    worst_cos_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        op = random_psd_operator(rng, n)
        x = rng.standard_normal(n)
        a = gd_step(op, x, 0.5)
        b = power_step(op, x)
        worst_cos_gap = max(worst_cos_gap, 1.0 - abs(a @ b) / np.linalg.norm(a))
    assert worst_cos_gap <= 1e-12

    worst_dca = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        diag = rng.integers(1, 200, size=n).astype(float) / 64.0
        op = DenseOperator(np.diag(diag))
        x = np.zeros(n)
        x[int(rng.integers(0, n))] = float(2.0 ** rng.integers(-3, 4))
        got, coeffs = split_merge_step(op, x)
        assert coeffs.degenerate
        w = op.to_dense() @ x
        dca = w / (2.0 * math.sqrt(float(x @ w)))
        worst_dca = max(worst_dca, float(np.linalg.norm(got - dca) / np.linalg.norm(dca)))
    assert worst_dca <= 1e-12
    _verdict(
        7, "power-method equivalences", True,
        f"max 1-cos = {worst_cos_gap:.2e} (<=1e-12), "
        f"max DCA deviation = {worst_dca:.2e} (<=1e-12)",
    )


def test_criterion_8_sigma_positivity_and_descent():
    # zero sigma <= 0 events across 200 runs per policy; under the
    # convergence_guaranteed policy f is nonincreasing within 1e-12
    gap_rng = np.random.default_rng(808)
    gaps = gap_rng.uniform(0.05, 0.3, size=200)
    sigma_events = 0
    descent_violation = -math.inf
    for policy in ("fixed_one_with_safeguard", "convergence_guaranteed"):
        for trial in range(200):
            op, truth = generate(SyntheticSpec(n=16, gap=float(gaps[trial]), seed=trial))
            res = solve(op, SolverConfig("split_merge", rho_policy=policy, max_iter=2000),
                        ground_truth=truth)
            for c in res.trace.coeffs:
                if not c.degenerate and c.sigma <= 0.0:
                    sigma_events += 1
            if policy == "convergence_guaranteed":
                f = np.asarray(res.trace.f_value)
                descent_violation = max(descent_violation, float(np.max(np.diff(f))))
    passed = sigma_events == 0 and descent_violation <= 1e-12
    _verdict(
        8, "sigma positivity and MM descent", passed,
        f"sigma<=0 events: {sigma_events} (across 400 runs); "
        f"max f increase under guaranteed policy: {descent_violation:.2e} (<=1e-12)",
    )


def test_criterion_9_oracle_generator_round_trip():
    # matgen -> dense (LAPACK) oracle recovers requested spectra to 1e-10 on 100
    # instances (n <= 64); the oracle matches closed-form 2x2 eigenpairs
    rng = np.random.default_rng(909)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 65))
        gap = float(rng.uniform(0.02, 0.5))
        op, truth = generate(SyntheticSpec(n=n, gap=gap, seed=trial))
        spec = dense_eigendecomposition(op)
        worst = max(worst, float(np.max(np.abs(spec.eigenvalues - truth.eigenvalues))))
        assert worst <= 1e-10
    worst_2x2 = 0.0
    for _ in range(20):
        a, b, c = rng.uniform(-2, 2, size=3)
        op = DenseOperator(np.array([[a, b], [b, c]]))
        spec = dense_eigendecomposition(op, clamp_psd=False)
        mid, rad = (a + c) / 2.0, math.hypot((a - c) / 2.0, b)
        closed = np.array([mid + rad, mid - rad])
        worst_2x2 = max(worst_2x2, float(np.max(np.abs(spec.eigenvalues - closed))))
        top = spec.eigenvectors[:, 0]
        resid = np.linalg.norm(op.to_dense() @ top - spec.eigenvalues[0] * top)
        worst_2x2 = max(worst_2x2, float(resid))
    assert worst_2x2 <= 1e-12
    _verdict(
        9, "oracle and generator round-trip", True,
        f"max spectrum error {worst:.2e} (<=1e-10) over 100 instances; "
        f"max 2x2 closed-form error {worst_2x2:.2e} (<=1e-12)",
    )


def test_criterion_10_rate_ratio_clustering():
    # the final 20% of -zeta/omega values land inside
    # [lambda_n - 0.05, lambda_2 + 0.05] in at least 9 of 10 trials
    hits = 0
    for trial in range(10):
        op, truth = generate(SyntheticSpec(n=1024, gap=1e-2, seed=trial))
        res = solve(op.share(), SolverConfig("split_merge"), ground_truth=truth,
                    x0=init_vector(1024, np.random.SeedSequence((10, trial)), op))
        values = [c.neg_zeta_over_omega for c in res.trace.coeffs if not c.degenerate]
        tail = values[int(0.8 * len(values)):]
        lam2, lam_n = truth.eigenvalues[1], truth.eigenvalues[-1]
        if all(lam_n - 0.05 <= v <= lam2 + 0.05 for v in tail):
            hits += 1
    _verdict(10, "rate-ratio clustering", hits >= 9,
             f"{hits}/10 trials with final 20% of -zeta/omega inside "
             f"[lambda_n - 0.05, lambda_2 + 0.05] (need >= 9)")
