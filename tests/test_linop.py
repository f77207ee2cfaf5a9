import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from splitmerge import (
    CsrOperator,
    DenseOperator,
    SolverConfig,
    SyntheticSpec,
    dense_eigendecomposition,
    generate,
    gershgorin_shift,
    load_matrix_market,
    save_matrix_market,
    solve,
)
from splitmerge.errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    MatrixMarketError,
    MatrixMarketHeaderError,
    NonSquareMatrixError,
)
from splitmerge.linop import MM_ROWS_PER_BYTE, SYMV_MIN_N, _scaled_norm

from conftest import assert_symmetric_psd, random_symmetric


class TestApply:
    def test_diagonal_action(self, diag21):
        np.testing.assert_allclose(diag21.apply(np.array([1.0, 1.0])), [2.0, 1.0])

    def test_column_readoff(self, twobytwo):
        np.testing.assert_allclose(twobytwo.apply(np.array([1.0, 0.0])), [2.0, 1.0])

    def test_csr_identity(self):
        op = CsrOperator(sp.identity(3, format="csr"))
        np.testing.assert_allclose(op.apply(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_dimension_mismatch(self, diag21):
        with pytest.raises(DimensionMismatchError):
            diag21.apply(np.ones(3))

    def test_counter_increments_once_per_apply(self, diag21):
        assert diag21.matvec_count == 0
        for expected in range(1, 6):
            diag21.apply(np.ones(2))
            assert diag21.matvec_count == expected

    def test_share_isolates_counter(self, diag21):
        diag21.apply(np.ones(2))
        view = diag21.share()
        assert view.matvec_count == 0
        view.apply(np.ones(2))
        assert view.matvec_count == 1
        assert diag21.matvec_count == 1

    def test_csr_agrees_with_dense_reference(self, rng):
        for _ in range(25):
            dense = random_symmetric(rng, 16)
            dense[np.abs(dense) < 0.4] = 0.0  # some sparsity
            op = CsrOperator(sp.csr_matrix(dense))
            x = rng.standard_normal(16)
            ref = dense @ x
            got = op.apply(x)
            assert np.linalg.norm(got - ref) <= 1e-13 * max(np.linalg.norm(ref), 1.0)

    def test_csr_shares_a_canonical_float_matrix(self):
        matrix = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        op = CsrOperator(matrix)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(op._a, name), getattr(matrix, name)), name

    def test_csr_copies_before_summing_duplicates(self):
        # (0, 1) twice and row 1 unsorted: sum_duplicates would rewrite all three arrays
        data, indices, indptr = np.array([2.0, 0.5, 0.5, 3.0, 1.0]), np.array([0, 1, 1, 1, 0]), \
            np.array([0, 3, 5])
        matrix = sp.csr_matrix((data.copy(), indices.copy(), indptr.copy()), shape=(2, 2))
        op = CsrOperator(matrix)
        np.testing.assert_array_equal(op.to_dense(), [[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_array_equal(matrix.data, data)
        np.testing.assert_array_equal(matrix.indices, indices)
        np.testing.assert_array_equal(matrix.indptr, indptr)
        assert not np.shares_memory(op._a.data, matrix.data)

    def test_csr_copies_a_non_float_matrix(self):
        matrix = sp.csr_matrix(np.array([[2, 1], [1, 3]]))
        op = CsrOperator(matrix)
        assert op._a.dtype == np.float64 and matrix.dtype != np.float64
        np.testing.assert_array_equal(op.to_dense(), matrix.toarray())


class TestScaledNorm:
    @pytest.mark.parametrize("v, expected", [
        ([1e200, 1e200], 1e200 * math.sqrt(2.0)),      # the squares overflow
        ([1e-200, 1e-200], 1e-200 * math.sqrt(2.0)),   # the squares underflow to 0
        ([1e-170, 0.0], 1e-170),
        ([1e-160, 0.0], 1e-160),                       # 1e-320 keeps ~4 digits in a subnormal
        ([3e-320, 4e-320], 5e-320),
    ])
    def test_norm_beyond_the_squares_range(self, v, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _scaled_norm(np.array(v)) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_plain_norm_keeps_its_bits(self, rng):
        for v in (rng.standard_normal(50), 1e-100 * rng.standard_normal(50),
                  1e150 * rng.standard_normal(50)):
            assert _scaled_norm(v) == float(np.linalg.norm(v))

    @pytest.mark.parametrize("v, expected", [
        ([0.0, 0.0], 0.0), ([math.inf, 1.0], math.inf), ([1.5e308, 1.5e308], math.inf),
    ])
    def test_zero_and_non_finite(self, v, expected):
        assert _scaled_norm(np.array(v)) == expected

    def test_nan_entry_gives_nan(self):
        assert math.isnan(_scaled_norm(np.array([math.nan, 1e200])))


class _Gemv(DenseOperator):
    """The full-matrix product ``a @ x`` at every size, as below SYMV_MIN_N."""

    def _apply(self, x):
        return self._a @ x


class TestSymv:
    """From SYMV_MIN_N on, the dense matvec is dsymv over the lower triangle."""

    @pytest.mark.parametrize("n", [SYMV_MIN_N - 1, SYMV_MIN_N, 1024])
    def test_matches_full_product(self, rng, n):
        dense = random_symmetric(rng, n)
        x = rng.standard_normal(2 * n)[::2]    # a strided view, not contiguous
        ref = dense @ x
        for op in (DenseOperator(dense), DenseOperator(np.asfortranarray(dense))):
            got = op.apply(x)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
            np.testing.assert_array_equal(op.to_dense(), dense)

    @pytest.mark.parametrize("n", [128, SYMV_MIN_N - 1])
    def test_below_threshold_bit_identical_to_full_product(self, rng, n):
        dense = random_symmetric(rng, n)
        op = DenseOperator(dense)
        x = rng.standard_normal(n)
        assert np.array_equal(op.apply(x), op.to_dense() @ x)

    @pytest.mark.parametrize("row, col", [(1, 0), (-1, 3)])   # by the diagonal, far from it
    def test_exact_symmetry_required_from_threshold(self, rng, row, col):
        for n, accepted in [(SYMV_MIN_N - 1, True), (SYMV_MIN_N, False)]:
            dense = random_symmetric(rng, n)
            dense[row, col] = np.nextafter(dense[row, col], np.inf)   # one ulp off symmetric
            if accepted:
                assert DenseOperator(dense).n == n
            else:
                with pytest.raises(AsymmetricMatrixError):
                    DenseOperator(dense)

    @pytest.mark.parametrize("n", [SYMV_MIN_N, 1024])
    def test_mirror_pairs_compare_with_equality(self, rng, n):
        """A nan pair is unequal, so refused; 0.0 and -0.0 are equal, so accepted."""
        dense = random_symmetric(rng, n)
        dense[n - 1, 2] = dense[2, n - 1] = np.nan
        with pytest.raises(AsymmetricMatrixError):
            DenseOperator(dense)
        dense[n - 1, 2], dense[2, n - 1] = 0.0, -0.0
        assert DenseOperator(dense).n == n

    def test_trajectory_drift_against_gemv(self):
        """dsymv sums in another order than gemv, so trajectories drift at round-off.

        On this matrix power takes as many iterations as with gemv, and its
        first 50 sin theta values agree to ~2e-16 relative. Later ones differ
        by up to ~2e-11 absolute, since sin theta = sqrt(1 - cos^2) carries
        about 1e-16 / sin theta of round-off. Split-merge's first 50 sin theta
        values agree to ~1e-9 relative (its larger steps amplify the
        round-off), and both runs converge, though their stopping iterations
        may differ by a few.
        """
        op, truth = generate(SyntheticSpec(n=512, gap=1e-2, seed=3))
        gemv = _Gemv(op.to_dense())
        for method, rtol in [("power", 1e-12), ("split_merge", 1e-6)]:
            config = SolverConfig(method, seed=5)
            got = solve(op.share(), config, ground_truth=truth)
            ref = solve(gemv.share(), config, ground_truth=truth)
            assert got.converged and ref.converged
            sin_got = np.asarray(got.trace.sin_theta)
            sin_ref = np.asarray(ref.trace.sin_theta)
            np.testing.assert_allclose(sin_got[:50], sin_ref[:50], rtol=rtol, atol=0.0)
            if method == "power":
                assert got.iterations == ref.iterations
                np.testing.assert_allclose(sin_got, sin_ref, rtol=0.0, atol=1e-10)


class TestGershgorin:
    def test_offdiagonal_2x2(self):
        op = DenseOperator(np.array([[0.0, 2.0], [2.0, 0.0]]))
        shifted, eta = gershgorin_shift(op)
        assert eta == pytest.approx(2.0)
        spec = dense_eigendecomposition(shifted)
        # closed form: base eigenvalues are +-2, shifted to {4, 0}
        np.testing.assert_allclose(spec.eigenvalues, [4.0, 0.0], atol=1e-12)

    def test_already_psd_unchanged(self):
        op = DenseOperator(np.diag([1.0, 3.0]))
        shifted, eta = gershgorin_shift(op)
        assert eta == 0.0
        x = np.array([0.3, -0.7])
        np.testing.assert_allclose(shifted.apply(x), op.apply(x))

    def test_negative_diagonal(self):
        op = DenseOperator(np.diag([-1.0, -2.0]))
        shifted, eta = gershgorin_shift(op)
        assert eta == pytest.approx(2.0)
        np.testing.assert_allclose(np.diag(shifted.to_dense()), [1.0, 0.0], atol=1e-15)

    def test_psd_probe_on_random_symmetric(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 33))
            op = DenseOperator(random_symmetric(rng, n))
            assert_symmetric_psd(gershgorin_shift(op)[0])

    def test_shifted_frobenius_matches_dense(self, rng):
        # on diag(-1, -1 + 1e-9) the shifted norm is 1e-9, to which
        # sqrt(||A||^2 + 2 eta tr(A) + n eta^2) cancels only to round-off
        for base in (random_symmetric(rng, 9), np.diag([-1.0, -1.0 + 1e-9])):
            shifted, _ = gershgorin_shift(DenseOperator(base))
            assert shifted.frobenius_norm == pytest.approx(
                np.linalg.norm(shifted.to_dense()), rel=1e-12
            )

    def test_frobenius_keeps_the_plain_bits(self, rng):
        a = random_symmetric(rng, 9)
        assert DenseOperator(a).frobenius_norm == float(np.linalg.norm(a))
        csr = CsrOperator(sp.csr_matrix(a))
        assert csr.frobenius_norm == float(np.sqrt((csr._a.data**2).sum()))

    def test_frobenius_of_huge_entries_is_finite(self):
        """Squares of entries near 1e200 overflow; the norm is rescaled, and a start is found."""
        from splitmerge import init_vector

        a = np.array([[1e200, -1.0], [-1.0, 1.5e200]])
        for op in (DenseOperator(a), CsrOperator(sp.csr_matrix(a))):
            assert op.frobenius_norm == pytest.approx(np.hypot(1e200, 1.5e200), rel=1e-15)
            assert init_vector(2, 0, op).shape == (2,)
        assert DenseOperator(np.array([[1e308, 1e308], [1e308, 1e308]])).frobenius_norm == np.inf

    def test_eta_is_the_disc_bound(self, rng):
        a = random_symmetric(rng, 7)
        lower = min(a[i, i] - sum(abs(a[i, j]) for j in range(7) if j != i) for i in range(7))
        assert lower < 0.0
        for op in (DenseOperator(a), CsrOperator(sp.csr_matrix(a))):
            assert gershgorin_shift(op)[1] == pytest.approx(-lower, rel=1e-14)

    def test_csr_stays_sparse(self, monkeypatch, rng):
        n = 1000
        off = rng.uniform(-1.0, 1.0, n - 1)
        matrix = sp.diags([off, rng.uniform(-1.0, 1.0, n), off], [-1, 0, 1], format="csr")

        def no_dense(self):
            raise AssertionError("to_dense called on a CSR operator")

        monkeypatch.setattr(CsrOperator, "to_dense", no_dense)
        shifted, eta = gershgorin_shift(CsrOperator(matrix))
        assert isinstance(shifted, CsrOperator) and eta > 0.0
        x = rng.standard_normal(n)
        expected = (matrix + eta * sp.identity(n, format="csr")) @ x
        assert shifted.apply(x).tobytes() == expected.tobytes()

    def test_dense_from_symv_threshold(self, rng):
        a = random_symmetric(rng, SYMV_MIN_N)
        op = DenseOperator(a)
        shifted, eta = gershgorin_shift(op)   # dsymv needs the sum exactly symmetric
        assert isinstance(shifted, DenseOperator) and eta > 0.0
        np.testing.assert_array_equal(op.to_dense(), a)   # the input is not shifted in place
        x = rng.standard_normal(SYMV_MIN_N)
        expected = (a + eta * np.eye(SYMV_MIN_N)) @ x
        np.testing.assert_allclose(
            shifted.apply(x), expected, rtol=0.0, atol=1e-12 * np.linalg.norm(expected)
        )


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestMatrixMarket:
    def test_coordinate_symmetric(self, tmp_path):
        path = _write(
            tmp_path,
            "sym.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% a comment\n"
            "2 2 3\n"
            "1 1 2.0\n"
            "2 1 1.0\n"
            "2 2 2.0\n",
        )
        op = load_matrix_market(path)
        np.testing.assert_allclose(op.to_dense(), [[2.0, 1.0], [1.0, 2.0]])

    def test_coordinate_symmetric_omitted_entries_are_zero(self, tmp_path):
        # the published format: unspecified entries (here the (2,2) diagonal)
        # are zero; only the stored lower triangle is mirrored
        path = _write(
            tmp_path,
            "sym0.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "1 1 2.0\n"
            "2 1 1.0\n",
        )
        op = load_matrix_market(path)
        np.testing.assert_allclose(op.to_dense(), [[2.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("entry", ["3 1 1.0", "1 3 1.0", "0 1 1.0"])
    def test_index_out_of_range(self, tmp_path, entry):
        path = _write(
            tmp_path,
            "bad.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n" + entry + "\n",
        )
        with pytest.raises(IndexOutOfRangeError):
            load_matrix_market(path)

    @pytest.mark.parametrize("entry", ["1 2 5.0", "1 2 5.0 7", "1 2 5.0junk"])
    def test_symmetric_upper_entry_is_mirrored(self, tmp_path, entry):
        # an off-diagonal entry of a "symmetric" file is mirrored whichever
        # triangle holds it; text after an entry's value is ignored
        path = _write(
            tmp_path,
            "upper.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n" + entry + "\n",
        )
        dense = load_matrix_market(path).to_dense()
        np.testing.assert_array_equal(dense, dense.T)
        np.testing.assert_array_equal(dense, [[1.0, 5.0], [5.0, 0.0]])

    def test_general_asymmetric_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            "asym.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 1.0\n"
            "2 1 0.5\n",
        )
        with pytest.raises(AsymmetricMatrixError):
            load_matrix_market(path)

    def test_general_symmetric_accepted(self, tmp_path):
        path = _write(
            tmp_path,
            "gen.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n"
            "1 1 2.0\n1 2 1.0\n2 1 1.0\n2 2 2.0\n",
        )
        np.testing.assert_allclose(load_matrix_market(path).to_dense(), [[2.0, 1.0], [1.0, 2.0]])

    def test_array_general(self, tmp_path):
        path = _write(
            tmp_path,
            "arr.mtx",
            "%%MatrixMarket matrix array real general\n2 2\n2.0\n1.0\n1.0\n2.0\n",
        )
        op = load_matrix_market(path)
        assert isinstance(op, DenseOperator)
        np.testing.assert_allclose(op.to_dense(), [[2.0, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("variant", ["array real general", "coordinate real general"])
    def test_symmetrizing_keeps_large_entries_finite(self, tmp_path, variant):
        body = "2 2\n1e308\n-1.0\n-1.0\n1.5e308\n" if variant.startswith("array") else (
            "2 2 4\n1 1 1e308\n1 2 -1.0\n2 1 -1.0\n2 2 1.5e308\n")
        path = _write(tmp_path, "big.mtx", f"%%MatrixMarket matrix {variant}\n{body}")
        with np.errstate(over="ignore"):    # the Frobenius norm of such entries is not checked here
            op = load_matrix_market(path)
        np.testing.assert_array_equal(op.to_dense(), [[1e308, -1.0], [-1.0, 1.5e308]])

    @pytest.mark.parametrize("off", ["nan", "inf", "abc"])
    def test_array_bad_value_rejected(self, tmp_path, off):
        # a NaN off-diagonal would also pass the symmetry check
        path = _write(
            tmp_path,
            "arrbad.mtx",
            f"%%MatrixMarket matrix array real general\n2 2\n2.0\n{off}\n{off}\n2.0\n",
        )
        with pytest.raises(MatrixMarketError):
            load_matrix_market(path)

    def test_array_asymmetric_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            "arrbad.mtx",
            "%%MatrixMarket matrix array real general\n2 2\n2.0\n1.0\n0.5\n2.0\n",
        )
        with pytest.raises(AsymmetricMatrixError):
            load_matrix_market(path)

    def test_non_square(self, tmp_path):
        path = _write(
            tmp_path,
            "rect.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n",
        )
        with pytest.raises(NonSquareMatrixError):
            load_matrix_market(path)

    @pytest.mark.parametrize(
        "banner",
        [
            "%%MatrixMarket matrix coordinate complex symmetric",
            "%%MatrixMarket matrix coordinate pattern symmetric",
            "%%MatrixMarket matrix coordinate integer symmetric",
            "%%MatrixMarket matrix array real symmetric",
            "%%MatrixMarket vector coordinate real general",
            "%%NotMatrixMarket matrix coordinate real general",
            "just text",
        ],
    )
    def test_rejected_banners(self, tmp_path, banner):
        path = _write(tmp_path, "hdr.mtx", banner + "\n2 2 1\n1 1 1.0\n")
        with pytest.raises(MatrixMarketHeaderError):
            load_matrix_market(path)

    @pytest.mark.parametrize(
        "text",
        [
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n",
            "%%MatrixMarket matrix array real general\n2 2\n2.0\n1.0\n1.0\n",
            "%%MatrixMarket matrix array real general\n2 2\n2.0\n1.0\n1.0\n2.0\n2.0\n",
            # comments may only come before the size line; this one reads as an entry
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n% note\n2 2 1.0\n",
            # size lines checked before parsing: the reader allocates for every
            # declared entry, and an array with no rows kills the process
            "%%MatrixMarket matrix coordinate real general\n2 2 10000000000\n1 1 1.0\n",
            "%%MatrixMarket matrix array real general\n100000 100000\n1.0\n",
            "%%MatrixMarket matrix array real general\n0 0\n",
            "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
        ],
        ids=[
            "coordinate-short", "array-short", "array-long", "comment-between-entries",
            "coordinate-1e10-entries", "array-1e10-entries", "array-0x0", "coordinate-0x0",
        ],
    )
    def test_entry_count_mismatch(self, tmp_path, text):
        path = _write(tmp_path, "short.mtx", text)
        with pytest.raises(MatrixMarketError):
            load_matrix_market(path)

    def test_rows_far_beyond_the_file_size_are_refused_before_parsing(self, tmp_path,
                                                                       monkeypatch):
        # CSR row pointers for 4e8 rows would take 1.5 GiB; the file holds 78 bytes
        path = _write(tmp_path, "huge.mtx", "%%MatrixMarket matrix coordinate real symmetric\n"
                                             "400000000 400000000 1\n1 1 1.0\n")
        assert path.stat().st_size == 78

        def never(*args, **kwargs):
            raise AssertionError("mmread was called")

        monkeypatch.setattr(scipy.io, "mmread", never)
        with pytest.raises(MatrixMarketError, match="MM_ROWS_PER_BYTE = 1 per byte"):
            load_matrix_market(path)

    @pytest.mark.parametrize("n", [56, 57])
    def test_rows_per_byte_bound_is_tight(self, tmp_path, n):
        # an all-zero file of 56 or 57 rows takes 56 bytes
        path = _write(tmp_path, "zeros.mtx",
                      f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} 0\n")
        assert path.stat().st_size * MM_ROWS_PER_BYTE == 56
        if n > 56:
            with pytest.raises(MatrixMarketError):
                load_matrix_market(path)
        else:
            np.testing.assert_array_equal(load_matrix_market(path).to_dense(), np.zeros((n, n)))

    def test_cross_check_against_scipy(self, tmp_path, rng):
        dense = random_symmetric(rng, 7)
        dense[np.abs(dense) < 0.3] = 0.0
        dense += np.eye(7)
        path = tmp_path / "rand.mtx"
        scipy.io.mmwrite(str(path.with_suffix("")), sp.coo_matrix(dense), symmetry="symmetric")
        ours = load_matrix_market(path).to_dense()
        theirs = scipy.io.mmread(path).toarray()
        np.testing.assert_allclose(ours, theirs, atol=1e-15)

    def test_save_load_round_trip(self, tmp_path, rng):
        dense = random_symmetric(rng, 6)
        op = DenseOperator(dense)
        path = tmp_path / "out.mtx"
        save_matrix_market(op, path)
        assert load_matrix_market(path).to_dense().tobytes() == dense.tobytes()

    def test_save_uses_the_path_as_given(self, tmp_path):
        # mmwrite given a name without .mtx would write m.tmp.mtx
        save_matrix_market(DenseOperator(np.eye(3)), tmp_path / "m.tmp")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tmp"]
        np.testing.assert_array_equal(load_matrix_market(tmp_path / "m.tmp").to_dense(), np.eye(3))

    def test_save_exact_bytes(self, tmp_path):
        # zeros of either sign are dropped; values keep 17 significant digits
        dense = np.array([
            [2.0, 1.0 / 3.0, 0.0, -0.1],
            [1.0 / 3.0, -0.0, 1e-300, 0.0],
            [0.0, 1e-300, 123456789.125, -2.5e17],
            [-0.1, 0.0, -2.5e17, 5e-324],
        ])
        path = tmp_path / "pinned.mtx"
        save_matrix_market(DenseOperator(dense), path)
        assert path.read_bytes() == (
            b"%%MatrixMarket matrix coordinate real symmetric\n%\n4 4 7\n"
            b"1 1 2.0000000000000000e+00\n2 1 3.3333333333333331e-01\n"
            b"3 2 1.0000000000000000e-300\n3 3 1.2345678912500000e+08\n"
            b"4 1 -1.0000000000000001e-01\n4 3 -2.5000000000000000e+17\n"
            b"4 4 4.9406564584124654e-324\n"
        )
        # every value reads back with the same bits; -0.0 was dropped, so reads as +0.0
        assert load_matrix_market(path).to_dense().tobytes() == (dense + 0.0).tobytes()

    def test_save_csr_without_densifying(self, tmp_path, monkeypatch, rng):
        n = 100_000
        diag = rng.uniform(0.1, 1.0, n)
        off = rng.uniform(-0.01, 0.01, n - 1)
        matrix = sp.diags([off, diag, off], [-1, 0, 1], format="csr")

        def no_dense(self):
            raise AssertionError("to_dense called on a CSR operator")

        monkeypatch.setattr(CsrOperator, "to_dense", no_dense)
        path = tmp_path / "tri.mtx"
        save_matrix_market(CsrOperator(matrix), path)
        assert (scipy.io.mmread(path) != matrix).nnz == 0   # mmread mirrors the triangle
        loaded = load_matrix_market(path)
        assert isinstance(loaded, CsrOperator)
        assert (loaded._a != matrix).nnz == 0
        x = rng.standard_normal(n)
        assert loaded.apply(x).tobytes() == (matrix @ x).tobytes()

        # a Gershgorin-shifted CSR operator is written from sparse storage too
        indefinite = matrix - sp.identity(n, format="csr")
        shifted, eta = gershgorin_shift(CsrOperator(indefinite))
        assert eta > 0.0
        save_matrix_market(shifted, path)
        expected = indefinite + eta * sp.identity(n, format="csr")
        assert (scipy.io.mmread(path) != expected).nnz == 0

    def test_save_shifted_csr_as_shifted_dense(self, tmp_path, rng):
        dense = random_symmetric(rng, 6)
        dense[np.abs(dense) < 0.5] = 0.0
        shifted_csr, _ = gershgorin_shift(CsrOperator(sp.csr_matrix(dense)))
        shifted_dense, _ = gershgorin_shift(DenseOperator(dense))
        save_matrix_market(shifted_csr, tmp_path / "csr.mtx")
        save_matrix_market(shifted_dense, tmp_path / "dense.mtx")
        assert (tmp_path / "csr.mtx").read_bytes() == (tmp_path / "dense.mtx").read_bytes()

    def test_save_csr_drops_explicit_zeros(self, tmp_path, rng):
        dense = random_symmetric(rng, 6)
        dense[np.abs(dense) < 0.5] = 0.0
        matrix = sp.csr_matrix(dense)
        matrix.data[0] = 0.0   # an explicit zero stored in the pattern
        dense = matrix.toarray()
        save_matrix_market(CsrOperator(matrix), tmp_path / "csr.mtx")
        save_matrix_market(DenseOperator(dense), tmp_path / "dense.mtx")
        assert (tmp_path / "csr.mtx").read_bytes() == (tmp_path / "dense.mtx").read_bytes()

    def test_case_insensitive_banner(self, tmp_path):
        path = _write(
            tmp_path,
            "case.mtx",
            "%%matrixmarket MATRIX Coordinate Real Symmetric\n1 1 1\n1 1 4.0\n",
        )
        np.testing.assert_allclose(load_matrix_market(path).to_dense(), [[4.0]])

    def test_non_ascii_bytes(self, tmp_path):
        # a comment may hold any bytes; the banner must be ASCII, so a UTF-8
        # no-break space does not pass as trailing whitespace
        comment = tmp_path / "comment.mtx"
        comment.write_bytes(
            "%%MatrixMarket matrix coordinate real symmetric\n% café\n1 1 1\n1 1 4.0\n".encode()
        )
        np.testing.assert_array_equal(load_matrix_market(comment).to_dense(), [[4.0]])
        banner = tmp_path / "banner.mtx"
        banner.write_bytes(
            "%%MatrixMarket matrix coordinate real symmetric\u00a0\n1 1 1\n1 1 4.0\n".encode()
        )
        with pytest.raises(MatrixMarketHeaderError):
            load_matrix_market(banner)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_apply_matches_dense_reference_property(seed):
    rng = np.random.default_rng(seed)
    dense = random_symmetric(rng, 16)
    sparse_op = CsrOperator(sp.csr_matrix(dense))
    dense_op = DenseOperator(dense)
    x = rng.standard_normal(16)
    ref = dense @ x
    scale = max(np.linalg.norm(ref), 1e-30)
    assert np.linalg.norm(dense_op.apply(x) - ref) <= 1e-13 * scale
    assert np.linalg.norm(sparse_op.apply(x) - ref) <= 1e-13 * scale


@pytest.mark.parametrize(
    "entry",
    [
        "1.5 1 2.0",   # non-integral row index
        "1 1 abc",     # non-numeric value
        "1 x 2.0",     # non-numeric column index
        "1 1 nan",     # non-finite values
        "2 1 -inf",
    ],
)
def test_malformed_coordinate_entry_rejected(tmp_path, entry):
    path = _write(
        tmp_path, "bad.mtx", "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n" + entry + "\n"
    )
    with pytest.raises(MatrixMarketError):
        load_matrix_market(path)


_LOAD_EACH = """
import json, sys
from splitmerge import load_matrix_market
loaded = []
for path in sys.argv[1:]:
    try:
        loaded.append(load_matrix_market(path).to_dense().ravel().tolist())
    except Exception as exc:
        loaded.append(type(exc).__name__)
print(json.dumps(loaded))
"""


def test_last_value_with_trailing_text_and_no_final_newline(tmp_path):
    # scipy's parser crashed the interpreter on these files, so they load in
    # one child interpreter, where a crash fails the test instead of pytest
    bodies = {
        "coordinate": "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n2 2 ",
        "array": "%%MatrixMarket matrix array real general\n2 2\n2.0\n0.0\n0.0\n",
    }
    last = {"1.0x": 1.0, "1.5x": 1.5, "1.e": 1.0, "1e": 1.0, "1.5": 1.5, "nanx": None}
    paths, expected = [], []
    for fmt, body in bodies.items():
        for i, (value, a22) in enumerate(last.items()):
            path = tmp_path / f"{fmt}{i}.mtx"
            path.write_bytes((body + value).encode())
            paths.append(str(path))
            expected.append("MatrixMarketError" if a22 is None else [2.0, 0.0, 0.0, a22])
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _LOAD_EACH, *paths], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == expected


def test_empty_coordinate_body(tmp_path):
    path = _write(tmp_path, "empty.mtx", "%%MatrixMarket matrix coordinate real symmetric\n3 3 0\n")
    np.testing.assert_array_equal(load_matrix_market(path).to_dense(), np.zeros((3, 3)))


class TestStorageRule:
    """Coordinate files are held dense when that takes no more bytes than CSR."""

    @pytest.mark.parametrize("symmetry", ["symmetric", "general"])
    def test_full_file_is_dense_and_bitwise_equal_to_csr(self, tmp_path, rng, symmetry):
        dense = random_symmetric(rng, 12)
        path = tmp_path / "full.mtx"
        scipy.io.mmwrite(path, sp.coo_matrix(dense), symmetry=symmetry, precision=17)
        op = load_matrix_market(path)
        assert isinstance(op, DenseOperator)
        as_csr = CsrOperator(scipy.io.mmread(path))
        assert op.to_dense().tobytes() == as_csr.to_dense().tobytes()

    def test_tridiagonal_file_stays_csr(self, tmp_path):
        matrix = sp.diags([np.full(49, -0.5), np.full(50, 2.0), np.full(49, -0.5)], [-1, 0, 1])
        path = tmp_path / "tri.mtx"
        save_matrix_market(CsrOperator(matrix), path)
        assert isinstance(load_matrix_market(path), CsrOperator)

    def test_explicit_zeros_are_dropped(self, tmp_path):
        # one nonzero at n = 2 takes 24 CSR bytes against 32 dense; keeping the
        # stored 0.0 and its mirror would take 48 and flip the file to dense
        path = _write(
            tmp_path,
            "zeros.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 0.0\n",
        )
        assert type(load_matrix_market(path)) is CsrOperator

    @pytest.mark.parametrize("pairs, storage", [(3, DenseOperator), (2, CsrOperator)])
    def test_byte_boundary(self, tmp_path, pairs, storage):
        # 3 diagonal entries plus 3 mirrored pairs is 9 stored values at n = 4,
        # where CSR takes 9 * (8 + 4) + 5 * 4 = 128 bytes, as many as the dense
        # array: a tie goes to the dense side, one pair fewer stays CSR
        dense = np.diag([1.0, 2.0, 3.0, 0.0])
        for i, j in [(1, 0), (3, 1), (3, 2)][:pairs]:
            dense[i, j] = dense[j, i] = 0.5
        csr = sp.csr_matrix(dense)
        csr_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        assert (csr_bytes == dense.nbytes) == (pairs == 3)
        path = tmp_path / "edge.mtx"
        save_matrix_market(DenseOperator(dense), path)
        op = load_matrix_market(path)
        assert type(op) is storage
        np.testing.assert_array_equal(op.to_dense(), dense)
