import numpy as np
import pytest

from splitmerge import SyntheticSpec, dense_eigendecomposition, generate, gershgorin_shift

from conftest import assert_symmetric_psd


class TestSyntheticSpec:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=1, gap=0.1)

    @pytest.mark.parametrize("gap", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_gap(self, gap):
        with pytest.raises(ValueError):
            SyntheticSpec(n=4, gap=gap)

    def test_rejects_non_integer_dimension(self):
        with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
            SyntheticSpec(n=2.5, gap=0.1)

    @pytest.mark.parametrize("seed", [-1, 0.5, 1.0])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            SyntheticSpec(n=4, gap=0.1, seed=seed)

    def test_accepts_numpy_integers(self):
        spec = SyntheticSpec(n=np.int64(4), gap=0.1, seed=np.int64(3))
        assert (spec.n, spec.seed) == (4, 3)


class TestGenerate:
    def test_two_by_two_exact_spectrum(self):
        op, spec = generate(SyntheticSpec(n=2, gap=0.3, seed=0))
        np.testing.assert_array_equal(spec.eigenvalues, [1.0, 0.7])
        recovered = dense_eigendecomposition(op)
        np.testing.assert_allclose(recovered.eigenvalues, [1.0, 0.7], atol=1e-12)

    def test_deterministic(self):
        op_a, spec_a = generate(SyntheticSpec(n=16, gap=0.1, seed=7))
        op_b, spec_b = generate(SyntheticSpec(n=16, gap=0.1, seed=7))
        np.testing.assert_array_equal(op_a.to_dense(), op_b.to_dense())
        np.testing.assert_array_equal(spec_a.eigenvalues, spec_b.eigenvalues)

    def test_seeds_differ(self):
        op_a, _ = generate(SyntheticSpec(n=8, gap=0.1, seed=1))
        op_b, _ = generate(SyntheticSpec(n=8, gap=0.1, seed=2))
        assert np.max(np.abs(op_a.to_dense() - op_b.to_dense())) > 1e-3

    def test_oracle_round_trip_small_gap(self):
        op, spec = generate(SyntheticSpec(n=64, gap=1e-2, seed=5))
        recovered = dense_eigendecomposition(op)
        assert recovered.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
        assert recovered.eigenvalues[1] == pytest.approx(0.99, abs=1e-10)
        assert recovered.eigenvalues[2] < recovered.eigenvalues[1]
        np.testing.assert_allclose(recovered.eigenvalues, spec.eigenvalues, atol=1e-10)

    def test_orthonormal_basis(self):
        _, spec = generate(SyntheticSpec(n=32, gap=0.05, seed=9))
        u = spec.eigenvectors
        assert np.max(np.abs(u.T @ u - np.eye(32))) <= 1e-12

    def test_probes_pass(self):
        op, _ = generate(SyntheticSpec(n=24, gap=0.2, seed=3))
        assert_symmetric_psd(op)
        # the disc bound is conservative on dense matrices: eta > 0 is fine,
        # the shifted operator must simply stay PSD
        assert_symmetric_psd(gershgorin_shift(op)[0])

    def test_spectrum_strictly_decreasing_with_exact_gap(self):
        _, spec = generate(SyntheticSpec(n=40, gap=0.25, seed=11))
        lam = spec.eigenvalues
        assert lam[0] == 1.0
        assert lam[0] - lam[1] == pytest.approx(0.25, abs=0)
        assert np.all(np.diff(lam) < 0)
        assert lam[-1] > 0.0

    def test_eigenpairs_are_exact(self):
        op, spec = generate(SyntheticSpec(n=16, gap=0.1, seed=2))
        dense = op.to_dense()
        for i in range(16):
            resid = np.linalg.norm(dense @ spec.eigenvectors[:, i]
                                   - spec.eigenvalues[i] * spec.eigenvectors[:, i])
            assert resid <= 1e-12

    def test_custom_lambda1_scale(self):
        _, spec = generate(SyntheticSpec(n=8, gap=0.1, seed=0, lambda1=0.8))
        assert spec.eigenvalues[0] == 0.8
        assert spec.eigenvalues[1] == pytest.approx(0.7)
