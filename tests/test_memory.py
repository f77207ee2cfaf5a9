"""A solve retains O(n) plus a few scalars per iteration, not O(n) per iteration,
and a split-merge solve holds three n-vectors at its peak; the tridiagonal
reference holds six beyond its operator; an experiment holds one trial's
traces at a time, not every trial's, and no finished solve's final iterate;
saving a matrix holds a few copies of it, not a Python object per entry, and
drawing a synthetic matrix holds three."""

import tracemalloc
import weakref

import numpy as np
import scipy.sparse as sp

from splitmerge import (
    CsrOperator, DenseOperator, ExperimentConfig, SolverConfig, reference_dominant_eigenpair,
    run_experiment, save_matrix_market, solve,
)
from splitmerge import bench
from splitmerge.bench import SolverSetting
from splitmerge.solvers import BLOCK

N = 100_000
ITERATIONS = 300


def test_split_merge_run_retains_o_n_plus_o_k_scalars():
    # tridiag(1, 4, 1): SPD, and its gap ~ 1/N^2 keeps every step non-degenerate
    mat = sp.diags([np.ones(N - 1), 4.0 * np.ones(N), np.ones(N - 1)], [-1, 0, 1], format="csr")
    op = CsrOperator(mat)
    config = SolverConfig(
        "split_merge", stop_mode="residual", residual_tol=1e-300, max_iter=ITERATIONS, seed=1,
    )
    vector = 8 * N
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        res = solve(op, config)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained -= before
    peak -= before

    assert res.iterations == ITERATIONS and res.stop_reason == "max_iter"
    assert len(res.trace.coeffs) == ITERATIONS + 1
    # x, plus well under 1 KiB of scalars per record; keeping Ax and
    # A^2x per iteration would be 2 * 8N * 301 bytes = 482 MB
    assert retained <= vector + 1024 * (ITERATIONS + 1), retained
    # x, Ax and A^2x, the kernel's two block buffers and the trace: 3.8 vectors; 4.8 while
    # the spent A^2x lives on across the next two products
    assert peak <= 4 * vector, peak


def test_tridiagonal_reference_peak_is_six_vectors():
    rng = np.random.default_rng(0)
    diag, off = rng.uniform(0.05, 0.9, N), rng.uniform(-0.02, 0.02, N - 1)
    diag[N // 3] = 1.0
    op = CsrOperator(sp.diags([off, diag, off], [-1, 0, 1], format="csr"))
    reference_dominant_eigenpair(op)    # first-call imports, outside the measurement
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        reference_dominant_eigenpair(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the bands, u, the factor's d and e and Ax, and one block for the passes; an n-sized
    # scratch and the previous step's Ax alive across the next product make it 8
    assert peak - before <= 6 * 8 * N + 8 * BLOCK + 64 * 1024, (peak - before) / (8 * N)


def _experiment_peak(tmp_path, trials):
    # a residual stop no iterate meets: every trace runs to max_iter, 1001 records
    config = ExperimentConfig(
        n=24, gap=1e-3, trials=trials, seed=0, out_dir=str(tmp_path / f"t{trials}"),
        solvers=[SolverSetting("power"), SolverSetting("split_merge")],
        stop_mode="residual", residual_tol=1e-300, max_iter=1000,
    )
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        report = run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(rec.stop_reason == "max_iter" for rec in report.records)
    return peak - before


def test_experiment_peak_does_not_grow_with_trials(tmp_path):
    _experiment_peak(tmp_path, 1)    # first-call set-up, outside the comparison
    two = _experiment_peak(tmp_path, 2)
    eight = _experiment_peak(tmp_path, 8)
    # six more trials add their records and paths, ~1 KiB each; holding their
    # traces adds ~380 KiB each
    assert eight <= two + 64 * 1024, (two, eight)


def test_save_matrix_market_peak_is_a_few_matrices(tmp_path):
    n = 1024
    a = np.random.default_rng(0).standard_normal((n, n))
    op = DenseOperator(a + a.T)
    path = tmp_path / "a.mtx"
    save_matrix_market(op, path)     # first-call imports, outside the measurement
    tracemalloc.start()
    try:
        save_matrix_market(op, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the triangle's CSR and mmwrite's COO of it: ~2.1 matrices; a dense copy and a
    # COO of all n^2 entries take 5.0, and one Python int and float per entry, as a
    # per-entry formatting loop holds, ~7.5
    assert peak <= 3 * 8 * n * n, peak


def test_generate_peak_is_three_matrices():
    from splitmerge import SyntheticSpec, generate
    from splitmerge.linop import SYMV_MIN_N

    n = 1024
    generate(SyntheticSpec(n=SYMV_MIN_N, gap=1e-3))    # first-call imports, outside the measurement
    tracemalloc.start()
    try:
        generate(SyntheticSpec(n=n, gap=1e-3, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the product's two operands and its result, two of them returned: 3.0 matrices;
    # numpy's QR, which copies its input and returns a separate R, takes 6.0
    assert peak <= 3.2 * 8 * n * n, peak


def test_no_record_holds_a_final_iterate_while_the_next_solver_runs(tmp_path, monkeypatch):
    finished, real_solve = [], bench.solve

    def solve_after_the_last_is_freed(*args, **kwargs):
        assert all(x() is None for x in finished), "a finished solve's iterate is still held"
        result = real_solve(*args, **kwargs)
        finished.append(weakref.ref(result.x))
        return result

    monkeypatch.setattr(bench, "solve", solve_after_the_last_is_freed)
    config = ExperimentConfig(
        n=24, gap=1e-3, trials=2, seed=0, out_dir=str(tmp_path / "out"),
        solvers=[SolverSetting("power"), SolverSetting("split_merge"),
                 SolverSetting("gd_difference")],
        stop_mode="residual", residual_tol=1e-300, max_iter=50,
    )
    report = run_experiment(config)
    assert len(finished) == 6 and len(report.trace_paths) == 6
    assert all(x() is None for x in finished)
