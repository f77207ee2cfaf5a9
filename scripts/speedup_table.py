#!/usr/bin/env python3
"""Sweep matrix sizes and eigengaps, reporting split-merge vs power speed-ups.

Each cell is one ``run_experiment`` call (a fresh matrix and one shared x0
per trial) whose traces go to a temporary directory. The columns are the
harness's ratios of means: power's mean iterations, matvecs and seconds over
the trials divided by split-merge's. Desk-scale defaults finish in a couple
of minutes; raise --n-list / --trials for larger reproductions.

    python3 scripts/speedup_table.py --n-list 256,512,1024 --gaps 1e-1,1e-2,1e-3
"""

import argparse
import tempfile

from splitmerge import ExperimentConfig, run_experiment


def run_cell(n, gap, trials, seed):
    with tempfile.TemporaryDirectory() as out:
        # the default solvers: power (the baseline), then split_merge
        config = ExperimentConfig(n=n, gap=gap, trials=trials, seed=seed, out_dir=out)
        power, sm = run_experiment(config).stats
    return power.mean_iterations / sm.mean_iterations, sm.speedup_matvecs, sm.speedup_time


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-list", default="256,512,1024")
    parser.add_argument("--gaps", default="1e-1,1e-2,1e-3")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'n':>6} {'gap':>8} {'iter x':>8} {'matvec x':>9} {'time x':>8}")
    for n in (int(s) for s in args.n_list.split(",")):
        for gap in (float(s) for s in args.gaps.split(",")):
            it, mv, t = run_cell(n, gap, args.trials, args.seed)
            print(f"{n:>6} {gap:>8.0e} {it:>8.2f} {mv:>9.2f} {t:>8.2f}")


if __name__ == "__main__":
    main()
