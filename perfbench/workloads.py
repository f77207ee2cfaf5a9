"""The benchmark's workloads and their seeded input generators.

Each workload is a fixed experiment shape run through the harness's public
entry point ``splitmerge.bench.run_experiment``. The workload seed decides
every input: the synthetic matrices, the Matrix Market files written here,
and the harness seed that draws each trial's shared starting vector.
Experiments inside one run get distinct harness seeds, so every trial of a
run sees a different start (and, for synthetic sources, a different matrix).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from splitmerge import DenseOperator, save_matrix_market
from splitmerge.bench import ExperimentConfig, parse_solver_list

# The paper's comparison (power vs split-merge) runs everywhere; the two
# other methods run on the small file, where the interpreter-bound loop is
# what they exercise.
PAPER_SOLVERS = "power, split_merge"
ALL_SOLVERS = "power, split_merge, gd_difference(alpha=0.9), power_momentum(beta=auto)"

SPARSE_N = 1_000_000
SPARSE_FORMAT_VERSION = 2     # bump when the sparse generator changes
CACHED_SPARSE_FILES = 4       # ~46 MB each


EXPERIMENTS = 2               # experiments per run, so set-up is timed twice


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    setup_s: float            # nominal seconds from experiment start to the first solve
    trial_s: float            # nominal seconds of one trial: every solver once, plus its traces
    solvers: str

    def trials(self, seconds: int) -> int:
        """Trials per experiment, so that a run of ``seconds`` holds about that much.

        The nominal costs were measured with one BLAS thread on a 2-core Xeon
        virtual machine. The count depends only on ``seconds``, never on the
        clock, so every count the benchmark reports repeats exactly for a
        given seed.
        """
        return max(1, round((seconds / EXPERIMENTS - self.setup_s) / self.trial_s))


# Why each workload is in the benchmark is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_paper", n=1024, setup_s=0.3, trial_s=6.9, solvers=PAPER_SOLVERS),
        Workload("sparse_file", n=SPARSE_N, setup_s=10.3, trial_s=5.6, solvers=PAPER_SOLVERS),
        Workload("small_file", n=128, setup_s=2.1, trial_s=0.93, solvers=ALL_SOLVERS),
    )
}


@dataclass
class Inputs:
    """What the benchmark knows about a workload's inputs, beyond the harness."""

    matrix_path: str | None
    lambda1: float | None           # exact dominant eigenvalue, when known
    bytes_per_matvec: float         # computed from storage, not measured
    file_bytes: int
    check_matrix: sp.csr_matrix | None = None   # own copy, for certifying the reference


def experiment_config(workload: Workload, seed: int, index: int, trials: int, inputs: Inputs,
                      out_dir) -> ExperimentConfig:
    """The harness config of experiment ``index`` of a run with workload seed ``seed``."""
    config = ExperimentConfig(
        source="synthetic" if inputs.matrix_path is None else "matrix_market",
        n=workload.n,
        gap=1e-3,
        matrix_path=inputs.matrix_path,
        solvers=parse_solver_list(workload.solvers),
        baseline="power",
        trials=trials,
        eps=1e-5,
        max_iter=20000,
        seed=1000 * seed + index * trials,
        out_dir=str(out_dir),
        stop_mode="oracle",
        workers=1,
    )
    config.validate()
    return config


def prepare(workload: Workload, seed: int, cache_dir: Path) -> Inputs:
    """Build (or reuse from the cache) the inputs of one workload and seed."""
    if workload.name == "dense_paper":
        n = workload.n
        return Inputs(matrix_path=None, lambda1=1.0, bytes_per_matvec=8.0 * n * n, file_bytes=0)
    cache_dir.mkdir(parents=True, exist_ok=True)
    if workload.name == "small_file":
        return _small_file(workload.n, seed, cache_dir)
    return _sparse_file(seed, cache_dir)


def csr_bytes(n: int, nnz: int) -> float:
    """Bytes one CSR matvec streams: values and int32 columns, row pointers, x and y."""
    return nnz * 12.0 + (n + 1) * 4.0 + 2.0 * n * 8.0


def small_matrix(n: int, seed: int) -> np.ndarray:
    """Dense PSD matrix with a fixed spectrum and seeded Haar eigenvectors.

    lambda1 = 1 and lambda2 = 0.999 as in the paper's gap-1e-3 cells, with
    the tail evenly spaced below lambda2 instead of drawn at random: a run
    has one matrix, and a random tail would make one seed's matrix much
    harder than another's for split-merge. Only the starting vectors and
    eigenvectors vary with the seed.
    """
    rng = np.random.default_rng([seed, n])
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q *= np.sign(np.diag(r))
    tail = 0.999 * (1.0 - np.arange(1, n - 1) / (n - 1))
    eigenvalues = np.concatenate(([1.0, 0.999], tail))
    a = (q * eigenvalues) @ q.T
    return (a + a.T) * 0.5


def _small_file(n: int, seed: int, cache_dir: Path) -> Inputs:
    path = cache_dir / f"small_file-n{n}-s{seed}.mtx"
    matrix = small_matrix(n, seed)
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        save_matrix_market(DenseOperator(matrix), tmp)
        os.replace(tmp, path)
    return Inputs(
        matrix_path=str(path), lambda1=1.0,
        bytes_per_matvec=csr_bytes(n, int(np.count_nonzero(matrix))), file_bytes=path.stat().st_size,
    )


def sparse_entries(seed: int, n: int = SPARSE_N):
    """Diagonal and sub-diagonal of the seeded tridiagonal PSD matrix.

    The spectrum's top is fixed, as on the small file, so that the seed
    changes the eigenvectors but not the gap: lambda1 ~ 1.0 and
    lambda2 ~ 0.95 come from a 1.0 and a 0.95 placed at random rows, each
    coupled to its neighbours by 0.001, which moves them by less than 1e-4.
    The rest of the diagonal is uniform on [0.05, 0.90] and the other
    off-diagonals have magnitude in [0.001, 0.02], so every other
    Gershgorin disc lies in [0.01, 0.94]. Values have six decimals, so the
    file holds them exactly.
    """
    rng = np.random.default_rng([seed, SPARSE_FORMAT_VERSION])
    diag = rng.integers(50_000, 900_001, n) / 1e6
    off = rng.integers(1_000, 20_001, n - 1) * rng.choice([-1, 1], n - 1) / 1e6
    for row, value in ((rng.integers(1, n // 2), 1.0), (rng.integers(n // 2 + 1, n - 1), 0.95)):
        diag[row] = value
        off[row - 1:row + 1] = np.sign(off[row - 1:row + 1]) * 0.001
    return diag, off


def _sparse_file(seed: int, cache_dir: Path) -> Inputs:
    n = SPARSE_N
    diag, off = sparse_entries(seed, n)
    path = cache_dir / f"sparse_file-v{SPARSE_FORMAT_VERSION}-s{seed}.mtx"
    if not path.exists():
        _evict(cache_dir, "sparse_file-*.mtx", keep=CACHED_SPARSE_FILES - 1)
        tmp = path.with_suffix(".tmp")
        write_tridiagonal(tmp, diag, off)
        os.replace(tmp, path)
    nnz = n + 2 * (n - 1)
    matrix = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    return Inputs(
        matrix_path=str(path), lambda1=None, bytes_per_matvec=csr_bytes(n, nnz),
        file_bytes=path.stat().st_size, check_matrix=matrix,
    )


def write_tridiagonal(path, diag: np.ndarray, off: np.ndarray, chunk: int = 100_000) -> None:
    """Write the lower triangle as 'coordinate real symmetric', vectorized per chunk.

    ``save_matrix_market`` densifies its operator, which at n = 1e6 would
    need 8 TB; this writer streams rows (i,i) and (i+1,i) in blocks.
    """
    n = diag.size
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{n} {n} {2 * n - 1}\n")
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            rows = np.arange(start + 1, stop + 1)
            _write_rows(fh, rows, rows, diag[start:stop])
            m = min(stop, n - 1) - start
            if m > 0:
                _write_rows(fh, rows[:m] + 1, rows[:m], off[start:start + m])


def _write_rows(fh, rows, cols, values) -> None:
    flat = np.column_stack([rows, cols, values]).ravel().tolist()
    fh.write(("%d %d %.6f\n" * len(rows)) % tuple(flat))


def _evict(cache_dir: Path, pattern: str, keep: int) -> None:
    files = sorted(cache_dir.glob(pattern), key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in files[keep:]:
        stale.unlink()


def source_digest(root: Path) -> str:
    """Hash of the library and benchmark sources, keying cached count records."""
    h = hashlib.sha256()
    for pattern in ("src/splitmerge/*.py", "perfbench/*.py"):
        for path in sorted(root.glob(pattern)):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]
