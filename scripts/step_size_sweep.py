#!/usr/bin/env python3
"""Objective-gap traces for gradient descent at several step sizes.

One ``run_experiment`` trial runs gd_difference at each alpha on the same
matrix from the same x0. The harness writes ``<out>/report.json`` and one
trace CSV per alpha under ``<out>/traces/``, whose k and f_minus_fstar
columns plot the convergence-vs-step-size comparison. The first alpha is the
speed-up baseline; alpha = 0.5 is the power-method-equivalent step.

    python3 scripts/step_size_sweep.py --n 1024 --gap 1e-3 --alphas 0.5,0.7,0.9,0.99
"""

import argparse

from splitmerge import ExperimentConfig, SolverSetting, run_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--gap", type=float, default=1e-3)
    parser.add_argument("--alphas", default="0.5,0.7,0.9,0.99")
    parser.add_argument("--eps", type=float, default=1e-2)
    parser.add_argument("--max-iter", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="gd_sweep")
    args = parser.parse_args()

    solvers = [SolverSetting("gd_difference", {"alpha": float(a)}) for a in args.alphas.split(",")]
    report = run_experiment(ExperimentConfig(
        n=args.n, gap=args.gap, solvers=solvers, baseline=solvers[0].label, trials=1,
        eps=args.eps, max_iter=args.max_iter, seed=args.seed, out_dir=args.out,
    ))
    for s in report.stats:
        print(f"{s.solver}: {s.median_iterations:g} iterations, matvec speed-up {s.speedup_matvecs:.2f}x")
    print(f"traces -> {args.out}/traces")


if __name__ == "__main__":
    main()
