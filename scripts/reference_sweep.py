#!/usr/bin/env python3
"""Time ARPACK's dominant pair over a grid of stopping tolerance x ncv, then the reference.

The operator is the benchmark's seeded tridiagonal (``sparse_entries`` from
``perfbench/workloads.py``, read, not changed) as a CSR matrix of order
``--n``. Each grid cell is one ``eigsh`` call made as
``theory.reference_dominant_eigenpair`` makes it for a matrix that is not
tridiagonal (k = 1, which = "LA", the same ``v0``) but with the cell's
``tol`` and ``ncv``, and prints one JSON row: wall seconds, matvecs, lambda1
and the relative residual ||Ax - lambda x|| / lambda. ``tol`` = 0 is ARPACK's
machine-precision default. The next row times ``reference_dominant_eigenpair``
itself, which takes a tridiagonal CSR matrix to shifted inverse iteration, not
to ARPACK; its matvecs are the iteration's steps and the certificate's
product. The last row times LAPACK's bisection, ``eigh_tridiagonal(select="i",
lapack_driver="stebz")``, on the same bands, which makes no matvec; its
residual product is not timed. BLAS runs on one thread unless the environment
already says otherwise.

    python3 scripts/reference_sweep.py --n 1000000 --seed 0
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.linalg import eigh_tridiagonal  # noqa: E402
from scipy.sparse.linalg import LinearOperator, eigsh  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import SPARSE_N, sparse_entries  # noqa: E402

from splitmerge import CsrOperator  # noqa: E402
from splitmerge import theory  # noqa: E402


def sweep_cell(matrix, tol: float, ncv: int) -> dict:
    """One ``eigsh`` run at (tol, ncv), timed and counted."""
    n = matrix.shape[0]
    calls = [0]

    def matvec(x):
        calls[0] += 1
        return matrix @ x

    v0 = np.random.default_rng(0).standard_normal(n)
    start = time.perf_counter()
    vals, vecs = eigsh(LinearOperator((n, n), matvec=matvec, dtype=float),
                       k=1, which="LA", v0=v0, ncv=ncv, tol=tol)
    seconds = time.perf_counter() - start
    lam, u = float(vals[0]), vecs[:, 0]
    resid = float(np.linalg.norm(matrix @ u - lam * u))
    return {"tol": tol, "ncv": ncv, "seconds": round(seconds, 4), "matvecs": calls[0],
            "lambda1": lam, "rel_residual": resid / lam}


def time_reference(matrix) -> dict:
    """``reference_dominant_eigenpair`` as the library runs it."""
    op = CsrOperator(matrix)
    calls = [0]
    inner = op._apply

    def counted(x):
        calls[0] += 1
        return inner(x)

    op._apply = counted  # the reference's share() copies it to its own view
    start = time.perf_counter()
    ref = theory.reference_dominant_eigenpair(op)
    seconds = time.perf_counter() - start
    return {"call": "reference_dominant_eigenpair", "seconds": round(seconds, 4),
            "matvecs": calls[0], "lambda1": ref.lambda1, "rel_residual": ref.residual / ref.lambda1}


def time_bisection(diag, off, matrix) -> dict:
    """LAPACK's bisection and inverse iteration for the top pair of the same bands."""
    n = diag.size
    start = time.perf_counter()
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(n - 1, n - 1),
                                  lapack_driver="stebz")
    seconds = time.perf_counter() - start
    lam, u = float(vals[0]), vecs[:, 0]
    resid = float(np.linalg.norm(matrix @ u - lam * u))
    return {"call": "eigh_tridiagonal", "seconds": round(seconds, 4), "matvecs": 0,
            "lambda1": lam, "rel_residual": resid / lam}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=SPARSE_N)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tols", default="0,1e-12,1e-11")
    parser.add_argument("--ncvs", default="4,6,8,12")
    args = parser.parse_args(argv)

    diag, off = sparse_entries(args.seed, args.n)
    matrix = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    for tol in (float(t) for t in args.tols.split(",")):
        for ncv in (int(c) for c in args.ncvs.split(",")):
            print(json.dumps({"n": args.n, "seed": args.seed, **sweep_cell(matrix, tol, ncv)}),
                  flush=True)
    print(json.dumps({"n": args.n, "seed": args.seed, **time_reference(matrix)}), flush=True)
    print(json.dumps({"n": args.n, "seed": args.seed, **time_bisection(diag, off, matrix)}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
