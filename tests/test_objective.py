import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitmerge import DenseOperator, eval_f, eval_grad, hessian_vec, rayleigh
from splitmerge.errors import NonDifferentiablePointError, PsdViolationError

from conftest import random_psd_operator


class TestEvalF:
    def test_quarter_lambda1_at_scaled_eigenvector(self):
        # unit dominant eigenvector of diag(4,1) sits at the minimizer scale:
        # value is -lambda1/4
        op = DenseOperator(np.diag([4.0, 1.0]))
        assert eval_f(op, np.array([1.0, 0.0])) == pytest.approx(-1.0, abs=1e-15)

    def test_identity_unit_vector(self):
        op = DenseOperator(np.eye(2))
        assert eval_f(op, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)

    def test_direct_arithmetic(self, diag21):
        # 2 - sqrt(3)
        assert eval_f(diag21, np.array([1.0, 1.0])) == pytest.approx(
            0.26794919243112270, abs=1e-15
        )

    def test_one_matvec(self, diag21):
        before = diag21.matvec_count
        eval_f(diag21, np.array([1.0, 1.0]))
        assert diag21.matvec_count == before + 1

    def test_tiny_negative_quad_clamped(self):
        op = DenseOperator(np.diag([1.0, -1e-25]))
        assert eval_f(op, np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_genuine_negative_quad_raises(self):
        op = DenseOperator(np.diag([1.0, -1.0]))
        with pytest.raises(PsdViolationError):
            eval_f(op, np.array([0.0, 1.0]))


class TestEvalGrad:
    def test_stationary_at_scaled_eigenvector(self):
        op = DenseOperator(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(eval_grad(op, np.array([1.0, 0.0])), [0.0, 0.0], atol=1e-15)

    def test_direct_arithmetic(self, diag21):
        got = eval_grad(diag21, np.array([1.0, 1.0]))
        np.testing.assert_allclose(
            got, [0.84529946162074847, 1.42264973081037424], atol=1e-15
        )

    def test_nullspace_point_raises(self):
        op = DenseOperator(np.diag([1.0, 0.0]))
        with pytest.raises(NonDifferentiablePointError):
            eval_grad(op, np.array([0.0, 1.0]))

    def test_matches_central_differences(self, rng):
        # 50 random (A, x), relative error <= 1e-6 with h = 1e-5*||x||
        for _ in range(50):
            n = int(rng.integers(2, 17))
            op = random_psd_operator(rng, n)
            x = rng.standard_normal(n)
            grad = eval_grad(op, x)
            h = 1e-5 * np.linalg.norm(x)
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[i] = (eval_f(op, x + e) - eval_f(op, x - e)) / (2.0 * h)
            assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)


class TestHessianVec:
    def test_diagonal_instance(self):
        op = DenseOperator(np.diag([4.0, 1.0]))
        got = hessian_vec(op, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(got, [0.0, 1.5], atol=1e-15)

    def test_zero_direction(self, twobytwo):
        got = hessian_vec(twobytwo, np.array([1.0, 1.0]), np.zeros(2))
        np.testing.assert_allclose(got, [0.0, 0.0], atol=1e-15)

    def test_identity_instance(self):
        op = DenseOperator(np.eye(2))
        got = hessian_vec(op, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(got, [2.0, 0.0], atol=1e-15)

    def test_two_matvecs(self, twobytwo):
        before = twobytwo.matvec_count
        hessian_vec(twobytwo, np.array([1.0, 1.0]), np.array([0.0, 1.0]))
        assert twobytwo.matvec_count == before + 2

    def test_matches_gradient_differences(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 13))
            op = random_psd_operator(rng, n)
            x = rng.standard_normal(n)
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            hv = hessian_vec(op, x, d)
            h = 1e-6 * np.linalg.norm(x)
            fd = (eval_grad(op, x + h * d) - eval_grad(op, x - h * d)) / (2.0 * h)
            assert np.linalg.norm(fd - hv) <= 1e-5 * max(np.linalg.norm(hv), 1.0)


class TestRayleigh:
    def test_eigenvector(self, diag21):
        assert rayleigh(diag21, np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_symmetric_weights(self, diag21):
        assert rayleigh(diag21, np.array([1.0, 1.0])) == pytest.approx(1.5)

    def test_ones_eigenvector(self, twobytwo):
        assert rayleigh(twobytwo, np.array([1.0, 1.0])) == pytest.approx(3.0)

    def test_zero_vector_raises(self, diag21):
        with pytest.raises(ValueError):
            rayleigh(diag21, np.zeros(2))


class TestInvariants:
    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**32 - 1))
    def test_scale_law(self, c, seed):
        rng = np.random.default_rng(seed)
        op = random_psd_operator(rng, 6)
        x = rng.standard_normal(6)
        quad = float(x @ op.apply(x))
        expected = c**2 * float(x @ x) - c * math.sqrt(quad)
        assert eval_f(op, c * x) == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))

    def test_stationarity_implies_eigenpair(self, rng):
        # scaled eigenvectors sqrt(lambda_i)/2 * u_i are the stationary points
        for _ in range(20):
            n = int(rng.integers(2, 10))
            op = random_psd_operator(rng, n)
            lam, vecs = np.linalg.eigh(op.to_dense())
            i = int(rng.integers(0, n))
            if lam[i] <= 1e-8:
                continue
            x = (math.sqrt(lam[i]) / 2.0) * vecs[:, i]
            if np.linalg.norm(eval_grad(op, x)) <= 1e-10:
                r = rayleigh(op, x)
                resid = np.linalg.norm(op.apply(x) - r * x)
                assert resid <= 1e-8 * np.linalg.norm(x)

    def test_rayleigh_within_spectrum(self, rng):
        op = random_psd_operator(rng, 8)
        lam_max = np.linalg.eigvalsh(op.to_dense())[-1]
        for _ in range(20):
            x = rng.standard_normal(8)
            val = rayleigh(op, x)
            assert -1e-12 <= val <= lam_max * (1 + 1e-12)
