#!/usr/bin/env python3
"""Time the parts of one solver iteration and print them as JSON.

The parts are the ones ``solve`` runs each iteration: the matvecs, the
kernel's reductions pass, its vector pass, the update and the trace
recording, plus the split-merge scalars for split_merge. Each is the
fastest of ``--repeat`` x max(1, 200000 // n) single calls of the statement
the loop runs, in microseconds, each call on a fresh copy of Ax (the
updates write over it), on a seeded tridiagonal CSR operator (diagonally
dominant, so PSD) from ``init_vector``. ``whole_iteration`` is the best of ``--repeat`` solves
held to ``--iters`` iterations, per record, and ``rest_of_loop`` is what the
parts do not account for (loop control, the stop test; noisy, can be
negative). BLAS runs on one thread unless the environment already says
otherwise.

    python3 scripts/kernel_parts.py --n 1000000 --method split_merge
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from splitmerge import CsrOperator, SolverConfig, solve  # noqa: E402
from splitmerge import solvers  # noqa: E402
from splitmerge.solvers import METHODS, IterationKernel, IterationTrace, init_vector  # noqa: E402

RHO = "fixed_one_with_safeguard"
UPDATES = {
    "power": "kernel.power(w, norm)",
    "gd_difference": "kernel.gd(x, w, quad, 0.9)",
    "power_momentum": "kernel.momentum(x, w, 0.1)",
    "split_merge": "kernel.split_merge(w, z, coeffs)",
}
RECORD = (
    "trace.sin_theta.append(sin_t); trace.f_value.append(xtx - s); trace.rayleigh.append(r); "
    "trace.lambda_of_x.append(2.0 * s); trace.residual.append(resid); "
    "trace.matvecs.append(op.matvec_count); trace.seconds.append(time.perf_counter())"
)


def tridiagonal(n: int, seed: int) -> CsrOperator:
    """Seeded symmetric tridiagonal with diagonal in [2, 3) and off-diagonals in [0, 1)."""
    rng = np.random.default_rng([seed, n])
    off = rng.random(n - 1)
    mat = sp.diags([off, 2.0 + rng.random(n), off], [-1, 0, 1], format="csr")
    return CsrOperator(mat)


def time_parts(n: int, method: str, seed: int = 0, repeat: int = 5, iters: int = 20) -> dict:
    """Microseconds per call of each part of one ``method`` iteration at size n."""
    op = tridiagonal(n, seed)
    x = init_vector(n, seed, op)
    u1 = np.ones(n) / math.sqrt(n)
    is_sm = method == "split_merge"
    kernel = IterationKernel(n)
    w = op.apply(x)
    z = op.apply(w) if is_sm else None
    with_wtw = method in ("power", "split_merge")
    quad, xtx, wtw, u1x = kernel.reductions(x, w, u1, with_wtw)
    r = quad / xtx
    norm = math.sqrt(wtw)
    power = method == "power"     # pass 2 writes the power update over Ax
    w0 = w.copy()
    rr, num, den, zz = kernel.vectors(x, w, z, kernel.scratch, power, r, quad, wtw, norm)
    np.copyto(w, w0)
    coeffs = solvers.coefficients_from_sums(quad, wtw, num, den, zz, RHO) if is_sm else None
    names = dict(
        op=op, x=x, w=w, w0=w0, z=z, u1=u1, kernel=kernel, with_wtw=with_wtw, quad=quad,
        xtx=xtx, wtw=wtw, zz=zz, r=r, norm=norm, power=power, num=num, den=den, coeffs=coeffs,
        np=np, time=time, solvers=solvers, RHO=RHO, trace=IterationTrace(method=method),
        sin_t=0.1, s=1.0, resid=0.1,
    )
    parts = {
        "matvec": "op.apply(w); op.apply(x)" if is_sm else "op.apply(x)",
        "reductions": "kernel.reductions(x, w, u1, with_wtw)",
        "vectors": "kernel.vectors(x, w, z, kernel.scratch, power, r, quad, wtw, norm)",
        "update": UPDATES[method],
        "trace_recording": RECORD,
    }
    if is_sm:
        parts["scalars"] = "solvers.coefficients_from_sums(quad, wtw, num, den, zz, RHO)"
    # single calls, each on a fresh copy of Ax: the power update and every
    # step write over it
    calls = repeat * max(1, 200_000 // n)
    result = {"n": n, "method": method, "block": solvers.BLOCK, "unit": "us per iteration"}
    for name, stmt in parts.items():
        times = timeit.repeat(stmt, setup="np.copyto(w, w0)", globals=names, number=1, repeat=calls)
        result[name] = round(min(times) * 1e6, 3)

    config = SolverConfig(method, stop_mode="residual", residual_tol=1e-300, max_iter=iters,
                          alpha=0.9, beta=0.1, seed=seed)
    best = math.inf
    for _ in range(repeat):
        run_op = op.share()
        t0 = time.perf_counter()
        res = solve(run_op, config, x0=x)
        best = min(best, (time.perf_counter() - t0) / (res.iterations + 1))
    result["whole_iteration"] = round(best * 1e6, 3)
    result["rest_of_loop"] = round(result["whole_iteration"] - sum(result[p] for p in parts), 3)
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
