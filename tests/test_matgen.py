import numpy as np
import pytest

from splitmerge import SyntheticSpec, dense_eigendecomposition, generate, gershgorin_shift
from splitmerge.errors import ConfigError

from conftest import assert_symmetric_psd


class TestSyntheticSpec:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=1, gap=0.1)

    @pytest.mark.parametrize("gap", [0.0, 1.0, -0.1, 1.5, 1e-17, 1e-13, 0.9999999999999])
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

    def test_unseparable_tail_draws_are_config_error(self):
        # 1 - gap leaves room for two tail eigenvalues 1e-12 apart, but no uniform draw lands there
        with pytest.raises(ConfigError, match="1000 draws found no tail"):
            generate(SyntheticSpec(n=4, gap=1 - 2.0001e-12))

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


# generate's in-place stages against the out-of-place formula they replaced, in a
# new interpreter with one BLAS thread: on more threads numpy's and scipy's
# OpenBLAS builds partition the QR differently, and at some orders their bits differ
_OUT_OF_PLACE = """
import json, sys
import numpy as np
from splitmerge import SyntheticSpec, generate
same = []
for n in map(int, sys.argv[1:]):
    spec = SyntheticSpec(n=n, gap=1e-3, seed=n)
    op, spectrum = generate(spec)
    q, r = np.linalg.qr(np.random.default_rng(spec.seed).standard_normal((n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    u = q * signs
    a = (u * spectrum.eigenvalues) @ u.T
    a = (a + a.T) * 0.5
    same.append([np.array_equal(op.to_dense(), a), np.array_equal(spectrum.eigenvectors, u)])
print(json.dumps(same))
"""


def test_in_place_stages_keep_every_bit():
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    from splitmerge.linop import SYMV_MIN_N

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    orders = [2, 17, 128, SYMV_MIN_N - 1, SYMV_MIN_N, 1024]
    done = subprocess.run([sys.executable, "-c", _OUT_OF_PLACE, *map(str, orders)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(done.stdout) == [[True, True]] * len(orders)
