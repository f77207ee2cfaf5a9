"""Matrix-free symmetric PSD linear operators.

Dense and sparse-CSR backends behind one ``apply`` interface with exact
matvec accounting, Matrix Market ingestion, and a Gershgorin shift that
makes an indefinite symmetric A PSD as a plain operator of A + eta*I (CSR
stays CSR, anything else becomes dense). ``scipy.io.mmread`` parses
Matrix Market files and ``scipy.io.mmwrite`` writes them, on scipy's own
thread pool, sized to the CPU count and separate from BLAS; they run while a
file loads or is saved, never inside a timed solve.
``mmread`` rejects % lines between entries and ignores text after an
entry's value.
A coordinate file is held dense (a BLAS matvec) when the dense array takes
no more bytes than the CSR arrays would, and as CSR otherwise, so no sparse
matrix is ever densified. A dense operator of order below ``SYMV_MIN_N``
multiplies with ``a.dot(x)`` (BLAS gemv) and must be symmetric to 1e-12
relative, as a "general" file must; one of that order or more multiplies with
BLAS ``dsymv``, which reads one triangle, so it must be exactly symmetric
(``scipy.linalg.issymmetric``); building the first one imports
``scipy.linalg``. A CSR matvec computes its rows in two halves, which
``worker.halves`` may run at once; each row is summed as ``A @ x`` sums it,
so the product has the same bits.
"""

from __future__ import annotations

import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from . import worker
from .errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    MatrixMarketError,
    MatrixMarketHeaderError,
    NonSquareMatrixError,
)


# Below this plain 2-norm the squares sum under 1e-292, where their underflow
# costs significant digits; 1e-146 is about 2^26 * sqrt(smallest normal).
_PLAIN_NORM_MIN = 1e-146


def _scaled_norm(values: np.ndarray, norm=np.linalg.norm) -> float:
    """``norm(values)``, or max|v| * norm(values / max|v|) where the plain one over- or underflows.

    The plain norm is kept, bit for bit, when it lies in (``_PLAIN_NORM_MIN``,
    inf). Otherwise the rescaled one is finite and nonzero wherever the norm
    itself is: entries near 1e154 and above overflow the squares, entries near
    1e-154 and below underflow them. All zeros give 0.0, and a nan or inf
    entry the plain nan or inf.
    """
    with np.errstate(over="ignore", under="ignore"):
        plain = float(norm(values))
        if _PLAIN_NORM_MIN < plain < math.inf:
            return plain
        scale = float(np.abs(values).max(initial=0.0))
        if not 0.0 < scale < math.inf:
            return plain
        return scale * float(norm(values / scale))


class LinearOperator:
    """Symmetric linear operator exposing ``y = A @ x`` and a matvec counter.

    Subclasses implement ``_apply`` and ``to_dense``, and set
    ``frobenius_norm`` as this class sets ``n``.
    Operators are immutable after construction; the matvec counter is the
    only mutable state, and it is not thread-safe. A caller counts its own
    products as the counter's difference across its call, as ``solve`` does.
    ``apply`` may hand half of a large product to the worker thread
    (``worker.halves``); it still counts one matvec, in the calling thread,
    and returns once both halves are done.
    """

    def __init__(self, n: int):
        if n < 1:
            raise DimensionMismatchError(f"operator dimension must be >= 1, got {n}")
        self.n = int(n)
        self._matvec_count = 0

    # -- backend interface -------------------------------------------------

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """A new n x n array, which the caller may modify."""
        raise NotImplementedError

    # -- shared behavior ----------------------------------------------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return A @ x as a new array, counting exactly one matvec.

        The solvers write each iteration's update over this array, so an
        ``_apply`` must not return x itself or a buffer it reuses.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatchError(
                f"expected vector of length {self.n}, got shape {x.shape}"
            )
        self._matvec_count += 1
        return self._apply(x)

    @property
    def matvec_count(self) -> int:
        return self._matvec_count


# Order from which the dense matvec is BLAS dsymv (one triangle) rather
# than gemv. With one BLAS thread on a 2-core Xeon VM the two take 4.4 and
# 5.0 us at n = 128, too little to pay for importing scipy.linalg; dsymv
# leads by 11.3 vs 12.5 us at n = 256 and 256 vs 452 us at n = 1024
# (BENCH_dense_symv.json).
SYMV_MIN_N = 256


class DenseOperator(LinearOperator):
    """Dense symmetric backend over an n x n float array.

    Below ``SYMV_MIN_N`` the matvec is ``a.dot(x)`` (gemv): the same BLAS
    call and bits as ``a @ x``, without its ufunc dispatch (3.0-3.3 against
    4.2-4.3 us at n = 128, one BLAS thread); it must be symmetric to 1e-12
    relative, as a "general" file must, so that the oracle, which reads one
    triangle, sees the matrix that gemv multiplies. From ``SYMV_MIN_N`` on it is
    BLAS ``dsymv``, which reads only the lower triangle, so each entry off
    the diagonal must equal its mirror exactly (``AsymmetricMatrixError``
    otherwise). ``scipy.linalg.issymmetric`` compares them with ``==``: a
    one-ulp or nan pair is refused, a 0.0 / -0.0 pair accepted. The first
    such operator imports ``scipy.linalg``.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {matrix.shape}")
        super().__init__(matrix.shape[0])
        if self.n >= SYMV_MIN_N:
            import scipy.linalg  # only large dense operators pay for it

            if not scipy.linalg.issymmetric(matrix):
                raise AsymmetricMatrixError(
                    f"a dense operator of order {self.n} >= {SYMV_MIN_N} must be exactly symmetric"
                )
            self._symv = scipy.linalg.blas.dsymv
        else:
            _require_symmetric(matrix, f"a dense matrix of order {self.n}")
        self._a = matrix
        self.frobenius_norm = _scaled_norm(matrix)

    def _apply(self, x):
        if self.n < SYMV_MIN_N:
            return self._a.dot(x)
        # a.T of the C-ordered array is the Fortran view f2py takes without a copy
        return self._symv(1.0, self._a.T, x, lower=1)

    def to_dense(self):
        return self._a.copy()


class CsrOperator(LinearOperator):
    """Sparse CSR backend storing the full symmetric pattern (both triangles).

    The matvec is ``_split_matvec``: the bits of ``A @ x``, in two halves.
    A float64 CSR matrix in canonical form (sorted indices, no duplicates) is
    shared, as ``DenseOperator`` shares a float C array; any other input is
    copied before its duplicates are summed, so the caller's matrix is never
    modified.
    """

    def __init__(self, matrix: sp.spmatrix):
        matrix = sp.csr_matrix(matrix)
        if matrix.dtype != np.float64 or not matrix.has_canonical_format:
            matrix = matrix.astype(float)
        if matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {matrix.shape}")
        super().__init__(matrix.shape[0])
        matrix.sum_duplicates()
        self._a = matrix
        self.frobenius_norm = _scaled_norm(matrix.data, lambda v: np.sqrt((v**2).sum()))

    def _apply(self, x):
        return _split_matvec(self._a, x)

    def to_dense(self):
        return self._a.toarray()


def _split_matvec(m: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """m @ x: rows [0, h) and [h, n) as ``worker.halves``' two halves, each zeroing its own.

    scipy's ``csr_matvec`` adds row i's products to y[i] in storage order,
    as ``m @ x`` does, so each row has the same bits.
    """
    n, cols = m.shape
    h = n // 2
    y = np.empty(n)

    def rows(start, stop):
        out = y[start:stop]
        out.fill(0.0)
        csr_matvec(stop - start, cols, m.indptr[start:], m.indices, m.data, x, out)

    worker.halves(n, lambda: rows(0, h), lambda: rows(h, n))
    return y


def _storage(op: LinearOperator):
    """The operator's matrix: sparse over CSR storage, a dense copy otherwise."""
    if isinstance(op, CsrOperator):
        return op._a
    return op.to_dense()


def _tridiagonal_bands(op: LinearOperator):
    """(diagonal, off-diagonal) of an exactly symmetric tridiagonal CSR operator, else None."""
    if not isinstance(op, CsrOperator):
        return None
    m, rows = op._a, np.arange(op.n)
    full = m.indptr[1:] > m.indptr[:-1]   # sorted indices: a row's first and last bound its band
    if ((m.indices[m.indptr[:-1][full]] < rows[full] - 1).any()
            or (m.indices[m.indptr[1:][full] - 1] > rows[full] + 1).any()):
        return None
    off = m.diagonal(1)
    return (m.diagonal(), off) if np.array_equal(off, m.diagonal(-1)) else None


def gershgorin_shift(op: LinearOperator) -> tuple[LinearOperator, float]:
    """Return (A + eta*I, eta) with eta = max(0, -min_i(a_ii - sum_{j!=i}|a_ij|)).

    Gershgorin discs bound every eigenvalue below by that minimum, so the
    shifted operator is PSD, and lambda_1(A) = lambda_1(A + eta*I) - eta.
    A CSR input gives a CsrOperator of the sparse sum and is never
    densified; any other input gives a DenseOperator that holds its own
    n x n copy, so the shifted operator keeps no reference to A.
    """
    m = _storage(op)
    diag = m.diagonal()
    off = np.asarray(abs(m).sum(axis=1)).ravel() - np.abs(diag)
    eta = max(0.0, -float(np.min(diag - off)))
    if sp.issparse(m):
        return CsrOperator(m + eta * sp.identity(op.n, format="csr")), eta
    m[np.diag_indices(op.n)] += eta
    return DenseOperator(m), eta


# -- Matrix Market ingestion -----------------------------------------------
#
# Accepted variants: "coordinate real symmetric", "coordinate real general",
# "array real general" (square). Everything else in the banner is rejected
# explicitly; the banner is matched case-insensitively. scipy.io.mmread
# parses the rest on its own thread pool: % comment lines may only come
# before the size line, and text after an entry's value is ignored.
# Coordinate indices are 1-based.

_RELATIVE_SYMMETRY_TOL = 1e-12    # also the rule of a dense operator below SYMV_MIN_N
# Most rows a file may declare per byte of its size. An entry line takes at
# least 6 bytes and covers at most two rows, so a file whose every row holds
# an entry declares at most one row per 3 bytes. A larger n would allocate
# row pointers, and a solve n-vectors, far beyond what the file describes.
MM_ROWS_PER_BYTE = 1


def _parse_header(line: str, path) -> tuple[str, str]:
    fields = line.strip().lower().split()
    if len(fields) != 5 or fields[0] != "%%matrixmarket" or fields[1] != "matrix":
        raise MatrixMarketHeaderError(f"{path}: malformed Matrix Market banner: {line!r}")
    fmt, field, symmetry = fields[2], fields[3], fields[4]
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketHeaderError(f"{path}: unsupported format {fmt!r}")
    if field != "real":
        raise MatrixMarketHeaderError(f"{path}: only 'real' matrices are supported, got {field!r}")
    if (fmt, symmetry) not in (
        ("coordinate", "symmetric"),
        ("coordinate", "general"),
        ("array", "general"),
    ):
        raise MatrixMarketHeaderError(f"{path}: unsupported variant '{fmt} real {symmetry}'")
    return fmt, symmetry


class _BannerStream:
    """Binary reader yielding ``banner``, then what is left of ``fh``, then a
    ``\\n`` if the file does not end with one.

    scipy spells "%%MatrixMarket" case-sensitively, so it reads the body
    behind a canonical banner, without the file being re-read or copied.
    Its parser crashes the interpreter on a last value with trailing text
    (``1.0x``) and no final newline.
    """

    def __init__(self, banner: bytes, fh):
        self._banner = banner
        self._fh = fh
        self._last = b""

    def read(self, size=-1):
        head = self._banner if size < 0 else self._banner[:size]
        self._banner = self._banner[len(head):]
        data = head + self._fh.read(-1 if size < 0 else size - len(head))
        if data:
            self._last = data[-1:]
        elif size and self._last != b"\n":    # end of file
            self._last = data = b"\n"
        return data


def load_matrix_market(path) -> LinearOperator:
    """Read a Matrix Market file into an operator with symmetrized storage.

    Array files become dense operators. A coordinate file becomes a dense
    operator when the n x n float array takes no more bytes than the CSR
    arrays (values, column indices, row pointers) of its symmetrized entries,
    and a CSR operator otherwise; both hold the same values. "symmetric"
    files have every off-diagonal entry mirrored; "general" variants must be
    symmetric to 1e-12 relative (max-entry norm) and are stored as (A + A')/2.
    A size line that declares more than ``MM_ROWS_PER_BYTE`` rows per byte of
    the file is refused before the entries are parsed.
    """
    import scipy.io  # only file-backed runs pay for the import

    with open(path, "rb") as fh:
        header = fh.readline()
        if not header:
            raise MatrixMarketHeaderError(f"{path}: empty file")
        # a non-ASCII byte decodes to U+FFFD, which no accepted banner field holds
        fmt, symmetry = _parse_header(header.decode("ascii", "replace"), path)
        banner = f"%%MatrixMarket matrix {fmt} real {symmetry}\n".encode("ascii")
        try:
            # mmread allocates for every declared entry (each takes >= 2 bytes of
            # the file) and dies of SIGFPE on an array with no rows: check first
            rows, cols, entries = scipy.io.mminfo(_BannerStream(banner, fh))[:3]
            if rows != cols:
                raise NonSquareMatrixError(f"{path}: {rows}x{cols} matrix is not square")
            size = os.fstat(fh.fileno()).st_size
            if rows < 1 or 2 * entries > size:
                raise MatrixMarketError(f"{path}: impossible size line {rows} {cols} {entries}")
            if rows > MM_ROWS_PER_BYTE * size:
                raise MatrixMarketError(f"{path}: {rows} rows declared in {size} bytes, above "
                                        f"MM_ROWS_PER_BYTE = {MM_ROWS_PER_BYTE} per byte")
            fh.seek(len(header))
            mat = scipy.io.mmread(_BannerStream(banner, fh))
        except (ValueError, OverflowError) as exc:
            error = IndexOutOfRangeError if "index out of bounds" in str(exc) else MatrixMarketError
            raise error(f"{path}: {exc}") from exc

    if fmt == "array":
        _require_finite(mat, path)
        return DenseOperator(_symmetrized(mat, path))
    _require_finite(mat.data, path)
    mat = mat.tocsr()
    mat.eliminate_zeros()  # a stored 0.0 costs matvec work and storage-rule bytes
    if symmetry == "general":
        mat = _symmetrized(mat, path)
    csr_bytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    if mat.dtype.itemsize * rows * cols <= csr_bytes:
        return DenseOperator(mat.toarray())
    return CsrOperator(mat)


def _require_finite(values: np.ndarray, path) -> None:
    if not np.isfinite(values).all():
        raise MatrixMarketError(f"{path}: non-finite (nan or inf) matrix value")


def _require_symmetric(mat, what: str) -> None:
    """Refuse max|a_ij - a_ji| > 1e-12 * max|a_ij| (dense or CSR); pass nan and inf on, silently."""
    with np.errstate(invalid="ignore", over="ignore"):    # inf - inf; differences near 1.8e308
        asym = float(abs(mat - mat.T).max())
    scale = float(abs(mat).max())
    if scale > 0.0 and asym > _RELATIVE_SYMMETRY_TOL * scale:
        raise AsymmetricMatrixError(f"{what} is asymmetric (max |a_ij - a_ji| = {asym:.3e})")


def _symmetrized(mat, path):
    """(A + A')/2 of a dense or CSR "general" matrix, which must be symmetric."""
    _require_symmetric(mat, f"{path}: 'general' matrix")
    return mat * 0.5 + mat.T * 0.5    # (A + A')/2 would overflow at entries near 1.8e308


def save_matrix_market(op: LinearOperator, path) -> None:
    """Write an operator as 'coordinate real symmetric' (lower triangle).

    ``scipy.io.mmwrite`` writes the nonzero entries in row-major order with
    17 significant digits; it is handed an open file, as given a path it
    adds ``.mtx`` to a name without it. A CSR operator is written from its
    sparse lower triangle, never densified. A dense operator's triangle is
    gathered straight from its storage into CSR arrays, without a dense copy
    or a COO of all n^2 entries: 16.5 MiB traced peak at n = 1024, for an
    8 MiB matrix.
    """
    import scipy.io

    if isinstance(op, DenseOperator):
        rows, cols = np.tril_indices(op.n)    # row-major: row i holds columns 0..i
        indptr = np.concatenate(([0], np.cumsum(np.arange(1, op.n + 1))))
        lower = sp.csr_matrix((op._a[rows, cols], cols, indptr), shape=op._a.shape)
        del rows, cols    # csr_matrix copied the columns, to int32 where they fit
    else:
        lower = sp.tril(_storage(op), format="csr")
    lower.eliminate_zeros()
    lower.sort_indices()
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, lower, symmetry="symmetric", precision=17)
