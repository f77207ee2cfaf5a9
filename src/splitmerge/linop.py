"""Matrix-free symmetric PSD linear operators.

Dense and sparse-CSR backends behind one ``apply`` interface with exact
matvec accounting, Matrix Market ingestion, and a Gershgorin shift that
makes an indefinite symmetric A PSD as a plain operator of A + eta*I (CSR
stays CSR, anything else becomes dense). ``scipy.io.mmread`` parses
Matrix Market files on scipy's own thread pool, sized to the CPU count and
separate from BLAS; it runs while a file loads, never inside a timed solve.
It rejects % lines between entries and ignores text after an entry's value.
A coordinate file is held dense (a BLAS matvec) when the dense array takes
no more bytes than the CSR arrays would, and as CSR otherwise, so no sparse
matrix is ever densified. A dense operator of order below ``SYMV_MIN_N``
multiplies with ``a.dot(x)`` (BLAS gemv); one of that order or more with
BLAS ``dsymv``, which reads one triangle, so it must be exactly symmetric;
building the first one imports ``scipy.linalg``.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from .errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    MatrixMarketError,
    MatrixMarketHeaderError,
    NonSquareMatrixError,
)


class LinearOperator:
    """Symmetric linear operator exposing ``y = A @ x`` and a matvec counter.

    Subclasses implement ``_apply``, ``to_dense`` and ``frobenius_norm``.
    Operators are immutable after construction; the matvec counter is the
    only mutable state. It is not thread-safe: concurrent callers each take
    their own counter via :meth:`share`.
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

    @property
    def frobenius_norm(self) -> float:
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

    def share(self) -> "LinearOperator":
        """Shallow copy sharing storage but with a fresh matvec counter.

        Used by the benchmark so each solver run owns its tally. The counter
        is not thread-safe, so concurrent callers each take a ``share()``.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._matvec_count = 0
        return clone


# Order from which the dense matvec is BLAS dsymv (one triangle) rather
# than gemv. With one BLAS thread on a 2-core Xeon VM the two take 4.4 and
# 5.0 us at n = 128, too little to pay for importing scipy.linalg; dsymv
# leads by 11.3 vs 12.5 us at n = 256 and 256 vs 452 us at n = 1024
# (BENCH_dense_symv.json).
SYMV_MIN_N = 256


def _exactly_symmetric(a: np.ndarray) -> bool:
    """Whether a == a.T, compared one tile against its mirror at a time.

    A whole-array ``a == a.T`` reads the transpose across rows and takes
    about 4x longer (14 vs 3.4 ms at n = 1024, one thread).
    """
    n, tile = a.shape[0], 64
    return all(
        np.array_equal(a[i:i + tile, j:j + tile], a[j:j + tile, i:i + tile].T)
        for i in range(0, n, tile)
        for j in range(0, i + 1, tile)
    )


class DenseOperator(LinearOperator):
    """Dense symmetric backend over an n x n float array.

    Below ``SYMV_MIN_N`` the matvec is ``a.dot(x)`` (gemv): the same BLAS
    call and bits as ``a @ x``, without its ufunc dispatch (3.0-3.3 against
    4.2-4.3 us at n = 128, one BLAS thread). From ``SYMV_MIN_N`` on it is
    BLAS ``dsymv``, which reads only the lower triangle, so the matrix must
    equal its transpose exactly (``AsymmetricMatrixError`` otherwise), and
    the first such operator imports ``scipy.linalg``.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {matrix.shape}")
        super().__init__(matrix.shape[0])
        if self.n >= SYMV_MIN_N:
            if not _exactly_symmetric(matrix):
                raise AsymmetricMatrixError(
                    f"a dense operator of order {self.n} >= {SYMV_MIN_N} must be exactly symmetric"
                )
            from scipy.linalg.blas import dsymv  # only large dense operators pay for it

            self._symv = dsymv
        self._a = matrix
        self._fro = float(np.linalg.norm(matrix))

    def _apply(self, x):
        if self.n < SYMV_MIN_N:
            return self._a.dot(x)
        # a.T of the C-ordered array is the Fortran view f2py takes without a copy
        return self._symv(1.0, self._a.T, x, lower=1)

    def to_dense(self):
        return self._a.copy()

    @property
    def frobenius_norm(self):
        return self._fro


class CsrOperator(LinearOperator):
    """Sparse CSR backend storing the full symmetric pattern (both triangles)."""

    def __init__(self, matrix: sp.spmatrix):
        matrix = sp.csr_matrix(matrix).astype(float)
        if matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {matrix.shape}")
        super().__init__(matrix.shape[0])
        matrix.sum_duplicates()
        self._a = matrix
        self._fro = float(np.sqrt((matrix.data**2).sum()))

    def _apply(self, x):
        return self._a @ x

    def to_dense(self):
        return self._a.toarray()

    @property
    def frobenius_norm(self):
        return self._fro


def _storage(op: LinearOperator):
    """The operator's matrix: sparse over CSR storage, a dense copy otherwise."""
    if isinstance(op, CsrOperator):
        return op._a
    return op.to_dense()


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

_MM_RELATIVE_SYMMETRY_TOL = 1e-12


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
            if rows < 1 or 2 * entries > os.fstat(fh.fileno()).st_size:
                raise MatrixMarketError(f"{path}: impossible size line {rows} {cols} {entries}")
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


def _symmetrized(mat, path):
    """(A + A')/2 of a dense or CSR "general" matrix, which must be symmetric."""
    asym = float(abs(mat - mat.T).max())
    scale = float(abs(mat).max())
    if scale > 0.0 and asym > _MM_RELATIVE_SYMMETRY_TOL * scale:
        raise AsymmetricMatrixError(
            f"{path}: 'general' matrix is asymmetric (max |a_ij - a_ji| = {asym:.3e})"
        )
    return mat * 0.5 + mat.T * 0.5    # (A + A')/2 would overflow at entries near 1.8e308


def save_matrix_market(op: LinearOperator, path) -> None:
    """Write an operator as 'coordinate real symmetric' (lower triangle).

    Nonzero entries are written in row-major order with 17 significant
    digits. A CSR operator is written from its sparse lower triangle, never
    densified.
    """
    lower = sp.tril(_storage(op), format="csr")
    lower.eliminate_zeros()
    lower.sort_indices()
    n = op.n
    rows = np.repeat(np.arange(1, n + 1), np.diff(lower.indptr))
    cols = lower.indices + 1
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{n} {n} {lower.nnz}\n")
        for i, j, v in zip(rows.tolist(), cols.tolist(), lower.data.tolist()):
            fh.write(f"{i} {j} {v:.17g}\n")
