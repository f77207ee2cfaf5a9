"""The two-CPU split: the same bits as one CPU, and no second thread at a fork.

The CSR matvec and the kernel's blocked passes always come in two halves;
from ``worker.SPLIT_MIN_N`` elements on, on two CPUs, ``worker.halves`` runs
the upper one on its thread. Here ``SPLIT_MIN_N`` is lowered to ``BLOCK + 1``
so that every size above one block may hand off, and ``worker.cpus`` is set
to 2 or 1 to run the same code under either schedule.
"""

import contextvars
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from splitmerge import (
    CsrOperator,
    ExperimentConfig,
    SolverConfig,
    gd_step,
    init_vector,
    power_momentum_step,
    power_step,
    run_experiment,
    save_matrix_market,
    solve,
    split_merge_step,
    worker,
)
from splitmerge.bench import SolverSetting
from splitmerge.linop import _split_matvec
from splitmerge.solvers import BLOCK, METHODS

SRC = Path(__file__).resolve().parents[1] / "src"
SIZES = [BLOCK + 17, 2 * BLOCK, 2 * BLOCK + 5, 3 * BLOCK + 5]    # 2, 2, 3 and 4 blocks
COLUMNS = ("sin_theta", "f_value", "rayleigh", "residual", "matvecs")


class _Truth:
    def __init__(self, u1):
        self.u1 = u1


def _tridiagonal(n, seed):
    rng = np.random.default_rng([seed, n])
    off = rng.random(n - 1)
    return CsrOperator(sp.diags([off, 2.0 + rng.random(n), off], [-1, 0, 1], format="csr"))


@pytest.fixture
def split_calls(monkeypatch):
    """Lowers the split threshold; returns a function that runs a callable on 1 or 2 CPUs
    and gives back its result and how many hand-offs reached the worker thread."""
    monkeypatch.setattr(worker, "SPLIT_MIN_N", BLOCK + 1)
    handoffs = []

    def copy_context():    # what halves calls once per hand-off, for the upper half
        handoffs.append(1)
        return contextvars.copy_context()

    monkeypatch.setattr(worker, "copy_context", copy_context)

    def on(cpus, call, *args):
        monkeypatch.setattr(worker, "cpus", lambda: cpus)
        handoffs.clear()
        value = call(*args)
        return value, len(handoffs)

    return on


@pytest.fixture
def split_n(monkeypatch):
    """``SPLIT_MIN_N``, on two CPUs: a ``halves`` over that many elements uses the worker."""
    monkeypatch.setattr(worker, "cpus", lambda: 2)
    return worker.SPLIT_MIN_N


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("method", METHODS)
def test_split_solve_has_the_one_cpu_bits(split_calls, n, method):
    op = _tridiagonal(n, 1)
    u1 = np.ones(n) / math.sqrt(n)
    config = SolverConfig(method, alpha=0.9, beta=0.1, stop_mode="residual",
                          residual_tol=1e-300, max_iter=12, seed=2)
    (one, one_calls), (two, two_calls) = (
        split_calls(cpus, solve, op, config, _Truth(u1)) for cpus in (1, 2)
    )
    assert one_calls == 0 and two_calls > 0
    for column in COLUMNS:
        np.testing.assert_array_equal(getattr(two.trace, column), getattr(one.trace, column),
                                      err_msg=column)
    assert two.trace.coeffs == one.trace.coeffs
    np.testing.assert_array_equal(two.x, one.x)


@pytest.mark.parametrize("n", SIZES)
def test_split_public_steps_have_the_one_cpu_bits(split_calls, n):
    op = _tridiagonal(n, 3)
    x = init_vector(n, 4, op)
    prev = np.random.default_rng(5).standard_normal(n)
    steps = {
        "init_vector": lambda: init_vector(n, 6, op),
        "power_step": lambda: power_step(op, x),
        "gd_step": lambda: gd_step(op, x, 0.3),
        "power_momentum_step": lambda: power_momentum_step(op, x, prev, 0.2),
        "split_merge_step": lambda: split_merge_step(op, x, "convergence_guaranteed"),
    }
    for name, step in steps.items():
        (one, one_calls), (two, two_calls) = (split_calls(cpus, step) for cpus in (1, 2))
        assert one_calls == 0 and two_calls > 0, name
        for got, want in zip(_parts(two), _parts(one)):
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want, err_msg=name)
            else:    # split_merge_step's coefficients
                assert got == want, name


def _parts(value):
    return value if isinstance(value, tuple) else (value,)


def _awkward_csr(n, index_dtype):
    """Random entries, some rows empty, column indices unsorted within each row."""
    rng = np.random.default_rng(n)
    m = sp.random(n, n, density=min(1.0, 4.0 / n), format="csr", random_state=rng)
    m.data -= 0.5
    m = (m + m.T).tocsr()
    for row in rng.choice(n, n // 10, replace=False):    # empty rows
        m.data[m.indptr[row]:m.indptr[row + 1]] = 0.0
    m.eliminate_zeros()
    for row in range(n):    # reverse each row's storage order
        lo, hi = m.indptr[row], m.indptr[row + 1]
        m.indices[lo:hi] = m.indices[lo:hi][::-1].copy()
        m.data[lo:hi] = m.data[lo:hi][::-1].copy()
    m.has_sorted_indices = False
    m.indices = m.indices.astype(index_dtype)
    m.indptr = m.indptr.astype(index_dtype)
    return m


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("n", [1, 2, 1001])
def test_split_csr_matvec_is_m_at_x(n, index_dtype):
    m = _awkward_csr(n, index_dtype)
    assert m.indices.dtype == index_dtype and m.indptr.dtype == index_dtype
    if n > 2:
        assert np.diff(m.indptr).min() == 0
        assert any(np.any(np.diff(m.indices[m.indptr[i]:m.indptr[i + 1]]) < 0) for i in range(n))
    x = np.random.default_rng(7).standard_normal(n)
    y = _split_matvec(m, x)
    np.testing.assert_array_equal(y, m @ x)
    assert y.flags.owndata and y is not x


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("n", [1, 2, 1001])
def test_csr_operator_is_m_at_x_on_either_schedule(split_calls, monkeypatch, n, index_dtype, cpus):
    """The operator stores m with its indices sorted, so each row sums as its stored ``A @ x``;
    each half zeroes its own rows of a product that starts as nan."""
    monkeypatch.setattr(worker, "SPLIT_MIN_N", 1)
    op = CsrOperator(_awkward_csr(n, index_dtype))
    x = np.random.default_rng(7).standard_normal(2 * n)[::2]
    assert not x.flags.c_contiguous or n == 1
    want = op._a @ x
    monkeypatch.setattr(np, "empty", lambda size: np.full(size, np.nan))
    y, handoffs = split_calls(cpus, op.apply, x)
    assert handoffs == (cpus == 2)
    assert y.tobytes() == want.tobytes()    # +0.0 in every empty row, as m @ x has


def test_split_operator_counts_one_matvec(split_calls):
    op = _tridiagonal(2 * BLOCK, 8)
    x = np.random.default_rng(9).standard_normal(op.n)
    (y, calls) = split_calls(2, op.apply, x)
    assert calls == 1 and op.matvec_count == 1
    np.testing.assert_array_equal(y, op._a @ x)


def test_the_upper_half_goes_to_the_worker_only_where_it_may(monkeypatch):
    n = worker.SPLIT_MIN_N
    for cpus, size, apart in ((2, n, True), (2, n - 1, False), (1, n, False), (3, n, True)):
        monkeypatch.setattr(worker, "cpus", lambda: cpus)
        low, high = worker.halves(size, threading.get_ident, threading.get_ident)
        assert (low != high) == apart and low == threading.get_ident(), (cpus, size)


def test_errors_of_either_half_reach_the_caller(split_n):
    def fail(exc):
        def call():
            raise exc
        return call

    with pytest.raises(KeyError):
        worker.halves(split_n, fail(KeyError("low")), fail(ValueError("high")))
    with pytest.raises(ValueError):
        worker.halves(split_n, lambda: 1, fail(ValueError("high")))
    assert worker.halves(split_n, lambda: 1, lambda: 2) == (1, 2)
    big = np.full(4, 1e300)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):    # the caller's state
        worker.halves(split_n, lambda: None, lambda: big * big)


def test_an_interrupt_in_the_lower_half_waits_for_the_upper_ones_writes(split_n):
    out = np.zeros(16)
    writing = threading.Event()

    def upper():
        writing.set()
        for i in range(len(out)):
            time.sleep(0.005)
            out[i] = 1.0

    def lower():
        assert writing.wait(10)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        worker.halves(split_n, lower, upper)
    assert out.all()    # halves re-raised only once the worker had finished writing


def test_a_process_that_split_exits_promptly(tmp_path):
    script = (
        "import threading\n"
        "from splitmerge import worker\n"
        "worker.cpus = lambda: 2\n"
        "low, high = worker.halves(worker.SPLIT_MIN_N, threading.get_ident, threading.get_ident)\n"
        "assert low != high\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, timeout=30,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - start < 10    # the interpreter joins the idle worker at exit


def test_an_idle_worker_keeps_no_argument_alive(split_n):
    import weakref

    array = np.zeros(4)
    ref = weakref.ref(array)
    worker.halves(split_n, lambda: None, lambda held=array: None)
    del array
    assert ref() is None


def test_concurrent_callers_each_get_their_own_halves(split_n):
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = {}

        def caller(k):
            results[k] = []
            for i in range(200):
                results[k].append(worker.halves(split_n, lambda: (k, i), lambda: (k, -i)))
                worker._stop()    # as a fork would, while other callers hand off

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(old)
    assert results == {k: [((k, i), (k, -i)) for i in range(200)] for k in range(4)}


def _csr_file_config(tmp_path, name):
    """Three trials of power and split-merge on a tridiagonal file just above one block."""
    path = tmp_path / "tri.mtx"
    if not path.exists():
        save_matrix_market(_tridiagonal(BLOCK + 17, 10), path)
    return ExperimentConfig(
        source="matrix_market", matrix_path=str(path), trials=3, seed=0,
        stop_mode="residual", residual_tol=1e-8, max_iter=40, out_dir=str(tmp_path / name),
        solvers=[SolverSetting("power"), SolverSetting("split_merge")],
    )


def test_no_second_thread_at_the_trace_writers_fork(tmp_path, monkeypatch):
    import itertools

    import splitmerge.bench as harness

    monkeypatch.setattr(harness, "TRACE_BLOCK", 8)    # every trial but the last goes to a child
    monkeypatch.setattr(worker, "SPLIT_MIN_N", BLOCK + 1)
    real_fork = os.fork
    forks = []

    def fork():
        worker_alive = worker._executor is not None    # the before-fork hook has not run yet
        pid = real_fork()
        if pid:    # the parent, right after the fork: the threads the child was copied from
            forks.append((worker_alive, threading.active_count()))
        return pid

    monkeypatch.setattr(os, "fork", fork)
    outputs = {}
    for cpus in (2, 1):
        monkeypatch.setattr(worker, "cpus", lambda: cpus)
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        config = _csr_file_config(tmp_path, f"cpus{cpus}")
        run_experiment(config)
        traces = tmp_path / f"cpus{cpus}" / "traces"
        outputs[cpus] = {p.name: p.read_bytes() for p in sorted(traces.iterdir())}
    # a child for each of trials 0 and 1, forked after split solves, from a lone thread
    assert forks == [(True, 1), (True, 1)]
    assert len(outputs[2]) == 6 and outputs[2] == outputs[1]
