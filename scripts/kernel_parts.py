#!/usr/bin/env python3
"""Time the parts of one solver iteration and print them as JSON.

The parts are the ones ``solve`` runs each iteration: the matvecs, the
kernel's two calls (``measure`` and ``update``) and the trace recording.
``measure``'s own parts are timed too, each on its own: its reductions pass
(pass 1), its vector pass (pass 2, the method's block function) and, for
split_merge, the scalars (``coefficients_from_sums``), each called with the
arguments one ``measure`` call gave it (``measure_arguments`` records
them). Each timed part is the fastest of
``--repeat`` x max(1, 200000 // n) single calls of the statement the loop
runs, in microseconds, on a seeded tridiagonal CSR operator (diagonally
dominant, so PSD) from ``init_vector``; each call of a part that writes
over Ax starts from the Ax it would see in the loop. The passes are the
kernel's bound block functions, ``_reductions`` and ``_vectors``, which
its docstring names for this use. ``whole_iteration`` is the median of
``--repeat`` solves held to ``--iters`` iterations, per record, with their
quartiles as ``whole_iteration_q1`` and ``whole_iteration_q3``;
``rest_of_loop`` is what the parts do not account for in that median (loop
control, the stop test; noisy, can be negative).
BLAS runs on one thread unless the environment already says otherwise.
``cpus`` is the number of CPUs the process may run on, from which and n
``worker.halves`` decides whether the worker thread runs the upper half of
each matvec and pass.

    python3 scripts/kernel_parts.py --n 1000000 --method split_merge
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from splitmerge import CsrOperator, SolverConfig, solve  # noqa: E402
from splitmerge import solvers, worker  # noqa: E402
from splitmerge.solvers import METHODS, IterationKernel, IterationTrace, init_vector  # noqa: E402

RHO = "fixed_one_with_safeguard"
PARAMS = {"gd_difference": 0.9, "power_momentum": 0.1, "split_merge": RHO}
RECORD = (
    "trace.sin_theta.append(sin_t); trace.f_value.append(xtx - s); trace.rayleigh.append(r); "
    "trace.residual.append(resid); trace.matvecs.append(op.matvec_count); "
    "trace.seconds.append(time.perf_counter())"
)


def tridiagonal(n: int, seed: int) -> CsrOperator:
    """Seeded symmetric tridiagonal with diagonal in [2, 3) and off-diagonals in [0, 1)."""
    rng = np.random.default_rng([seed, n])
    off = rng.random(n - 1)
    mat = sp.diags([off, 2.0 + rng.random(n), off], [-1, 0, 1], format="csr")
    return CsrOperator(mat)


def measure_arguments(kernel: IterationKernel, x, w, z) -> dict:
    """The argument tuple one ``kernel.measure(x, w, z)`` passes to each part it calls."""
    targets = {"reductions": (kernel, "_reductions"), "vectors": (kernel, "_vectors"),
               "scalars": (solvers, "coefficients_from_sums")}
    with contextlib.ExitStack() as stack:
        spies = {name: stack.enter_context(mock.patch.object(obj, attr, wraps=getattr(obj, attr)))
                 for name, (obj, attr) in targets.items()}
        kernel.measure(x, w, z)
    return {name: spy.call_args.args for name, spy in spies.items() if spy.called}


def time_parts(n: int, method: str, seed: int = 0, repeat: int = 5, iters: int = 20) -> dict:
    """Microseconds per call of each part of one ``method`` iteration at size n."""
    op = tridiagonal(n, seed)
    x = init_vector(n, seed, op)
    u1 = np.ones(n) / math.sqrt(n)
    is_sm = method == "split_merge"
    kernel = IterationKernel(n, method, PARAMS.get(method), u1)
    w = op.apply(x)
    z = op.apply(w) if is_sm else None
    w0 = w.copy()
    args = measure_arguments(kernel, x, w, z)
    w1 = w.copy()    # what update sees: for power and momentum, the update in progress
    names = dict(op=op, x=x, w=w, w0=w0, w1=w1, z=z, kernel=kernel, np=np, time=time,
                 solvers=solvers, trace=IterationTrace(method=method), sin_t=0.1, s=1.0,
                 resid=0.1, xtx=1.0, r=1.0, args=args)
    # (statement, setup) per part; the passes read w as measure gave it to them
    parts = {
        "matvec": ("op.apply(w); op.apply(x)" if is_sm else "op.apply(x)", "pass"),
        "measure": ("kernel.measure(x, w, z)", "np.copyto(w, w0)"),
        "reductions": ("kernel._reductions(*args['reductions'])", "np.copyto(w, w0)"),
        "vectors": ("kernel._vectors(*args['vectors'])", "np.copyto(w, w0)"),
        "update": ("kernel.update(x, w, z)", "np.copyto(w, w1)"),
        "trace_recording": (RECORD, "pass"),
    }
    if is_sm:
        parts["scalars"] = ("solvers.coefficients_from_sums(*args['scalars'])", "pass")
    calls = repeat * max(1, 200_000 // n)
    result = {"n": n, "method": method, "block": solvers.BLOCK, "cpus": worker.cpus(),
              "unit": "us per iteration"}
    for name, (stmt, setup) in parts.items():
        times = timeit.repeat(stmt, setup=setup, globals=names, number=1, repeat=calls)
        result[name] = round(min(times) * 1e6, 3)

    config = SolverConfig(method, stop_mode="residual", residual_tol=1e-300, max_iter=iters,
                          alpha=PARAMS["gd_difference"], beta=PARAMS["power_momentum"], seed=seed)
    per_iteration = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        res = solve(op, config, x0=x)
        per_iteration.append((time.perf_counter() - t0) / (res.iterations + 1))
    quartiles = np.percentile(per_iteration, [25, 50, 75]) * 1e6
    for name, value in zip(("whole_iteration_q1", "whole_iteration", "whole_iteration_q3"),
                           quartiles):
        result[name] = round(float(value), 3)
    loop = sum(result[p] for p in ("matvec", "measure", "update", "trace_recording"))
    result["rest_of_loop"] = round(result["whole_iteration"] - loop, 3)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=1_000_000)
    parser.add_argument("--method", choices=METHODS, default="split_merge")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--iters", type=int, default=20, help="iterations of the whole-loop solves")
    args = parser.parse_args()
    print(json.dumps(time_parts(args.n, args.method, args.seed, args.repeat, args.iters)))


if __name__ == "__main__":
    main()
