"""Golden trajectories: every method's first 100 iterations, pinned.

The reference values in ``tests/data/golden.npz`` were produced by the
solver loop this file was written against. Any later rewrite of the
iteration kernel must reproduce them to 1e-12 relative, with identical
iteration and matvec counts. The ``csr_blocked`` case is longer than
``solvers.BLOCK``, so its passes run block by block; its final iterate is
not stored, to keep the file small.

The cases run in a new interpreter started with one BLAS thread, as the
benchmark runs: a threaded ddot sums a 32768-element block in another
order, which moves split-merge's ``csr_blocked`` values by ~2e-12
relative. They run twice: once with ``worker.SPLIT_MIN_N`` lowered so that
``csr_blocked`` takes the two-CPU split, and once pinned to one CPU.
Regenerate (only when a trajectory change is intended) with
``PYTHONPATH=src python tests/test_golden.py``, which writes the file from
the same one-thread interpreter.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from splitmerge import CsrOperator, DenseOperator, SolverConfig, solve, worker
from splitmerge.solvers import BLOCK

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).with_name("data") / "golden.npz"
ONE_BLAS_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
MAX_ITER = 100
RTOL = 1e-12


class _Truth:
    def __init__(self, u1):
        self.u1 = u1


def _dense_case():
    """n = 64, eigenvalues 1, 0.95, then 0.9..0.01, rotated by a Householder reflector."""
    n = 64
    lam = np.concatenate([[1.0, 0.95], np.linspace(0.9, 0.01, n - 2)])
    v = np.random.default_rng(64).standard_normal(n)
    q = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    a = (q * lam) @ q.T
    return DenseOperator((a + a.T) * 0.5), _Truth(q[:, 0]), 0.95


def _csr_case(n=200):
    """tridiag(1, 2, 1) of size n: lambda_k = 2 + 2cos(k pi/(n+1)), u1_j ~ sin(j pi/(n+1))."""
    mat = sp.diags([np.ones(n - 1), 2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="csr")
    u1 = np.sin(np.arange(1, n + 1) * math.pi / (n + 1))
    lam2 = 2.0 + 2.0 * math.cos(2.0 * math.pi / (n + 1))
    return CsrOperator(mat), _Truth(u1 / np.linalg.norm(u1)), lam2


CASES = {"dense64": _dense_case, "csr200": _csr_case, "csr_blocked": lambda: _csr_case(BLOCK + 17)}
METHODS = ("power", "gd_difference", "power_momentum", "split_merge")


def _run(case, method):
    op, truth, lam2 = CASES[case]()
    config = SolverConfig(
        method, alpha=0.9, beta=lam2**2 / 4.0, eps=1e-300, max_iter=MAX_ITER, seed=7,
    )
    res = solve(op, config, ground_truth=truth)
    trace = res.trace
    nan = np.full(len(trace.k), math.nan)
    zeta = np.array([c.zeta for c in trace.coeffs]) if trace.coeffs else nan
    omega = np.array([c.omega for c in trace.coeffs]) if trace.coeffs else nan
    columns = {
        "iterations": np.array(res.iterations),
        "sin_theta": np.asarray(trace.sin_theta, dtype=float),
        "f_value": np.asarray(trace.f_value, dtype=float),
        "rayleigh": np.asarray(trace.rayleigh, dtype=float),
        "residual": np.asarray(trace.residual, dtype=float),
        "matvecs": np.asarray(trace.matvecs, dtype=np.int64),
        "zeta": zeta,
        "omega": omega,
    }
    if case != "csr_blocked":
        columns["x"] = np.asarray(res.x, dtype=float)
    return columns


def _save_in_one_thread_child(path, cpus="split"):
    """Run every case in a new interpreter with one BLAS thread; it saves the columns to path.

    ``cpus`` is "split" (csr_blocked split across two CPUs, where there are
    two) or "one" (the child pinned to one CPU).
    """
    env = dict(os.environ, **ONE_BLAS_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(path), cpus],
        env=env, timeout=300, check=True,
    )


def _load(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


@pytest.fixture(scope="module")
def golden():
    return _load(DATA)


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    """Every case's columns, computed split across two CPUs and on one."""
    runs = {}
    for cpus in ("split", "one"):
        path = tmp_path_factory.mktemp("golden") / f"{cpus}.npz"
        _save_in_one_thread_child(path, cpus)
        runs[cpus] = _load(path)
    return runs


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("method", METHODS)
def test_trajectory_matches_golden(golden, computed, case, method):
    prefix = f"{case}/{method}/"
    for cpus, arrays in computed.items():
        got = {key[len(prefix):]: value for key, value in arrays.items() if key.startswith(prefix)}
        assert got, cpus
        for column, value in got.items():
            ref = golden[prefix + column]
            if column in ("iterations", "matvecs"):
                np.testing.assert_array_equal(value, ref, err_msg=f"{cpus}: {column}")
            else:
                assert value.shape == ref.shape, column
                np.testing.assert_allclose(value, ref, rtol=RTOL, atol=0.0,
                                           err_msg=f"{cpus}: {column}")
    for key, value in computed["one"].items():    # the split changes no bit
        if key.startswith(prefix):
            np.testing.assert_array_equal(computed["split"][key], value, err_msg=key)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        if sys.argv[3] == "one":
            os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])
        else:
            worker.SPLIT_MIN_N = BLOCK + 1
        arrays = {
            f"{case}/{method}/{column}": value
            for case in CASES
            for method in METHODS
            for column, value in _run(case, method).items()
        }
        np.savez_compressed(sys.argv[2], **arrays)
    else:
        DATA.parent.mkdir(exist_ok=True)
        _save_in_one_thread_child(DATA)
        print(f"wrote {len(_load(DATA))} arrays to {DATA}")
