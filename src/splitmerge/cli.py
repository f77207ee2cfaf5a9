"""Command-line benchmark harness.

Subcommands::

    bench run --config cfg.txt [overrides...]
    bench gen --n 256 --gap 0.01 --seed 0 --out matrix.mtx    # n <= 4096

Exit codes: 0 on completion, 1 on configuration errors (including bad
flags), 2 on I/O errors (unreadable files, malformed Matrix Market input,
unwritable output), 3 on any other library error (a ``SplitMergeError``
such as no usable starting vector or a failed ground-truth eigensolve),
printed as ``error: <type>: <message>``, and on a failed allocation,
printed as ``error: MemoryError: <message>``.
"""

from __future__ import annotations

import argparse
import sys

from .bench import KEY_TO_FIELD, ExperimentConfig, load_config, parse_solver_list, run_experiment
from .errors import ConfigError, MatrixMarketError, SplitMergeError
from .linop import save_matrix_market
from .matgen import SyntheticSpec, generate
from .solvers import STOP_MODES
from .theory import DENSE_LIMIT_DEFAULT


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; bad flags are configuration errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bench", description="dominant-eigenvector solver benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    # every run flag but --config is the config-file key of the same name
    run = sub.add_parser("run", help="run a benchmark experiment")
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--n", type=int, help="synthetic matrix dimension")
    run.add_argument("--gap", type=float, help="synthetic eigengap")
    run.add_argument(
        "--solvers", type=parse_solver_list,
        help="comma list, e.g. power,split_merge,gd_difference(alpha=0.9)",
    )
    run.add_argument("--trials", type=int)
    run.add_argument("--eps", type=float, help="stopping tolerance on sin(theta)")
    run.add_argument("--max-iter", type=int, dest="max_iter")
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="output directory")
    run.add_argument("--matrix", help="Matrix Market file (switches source)")
    run.add_argument("--stop-mode", choices=STOP_MODES, dest="stop_mode")

    gen = sub.add_parser("gen", help="export a synthetic matrix to Matrix Market")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--gap", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output .mtx path")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else ExperimentConfig()
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            setattr(config, KEY_TO_FIELD.get(key, key), value)
    if args.matrix is not None:
        config.source = "matrix_market"
    report = run_experiment(config)
    _print_report(report)
    return 0


def _print_report(report) -> None:
    cols = ("solver", "trials", "fail", "mean_t[s]", "med_iters", "med_mv", "spd_t", "spd_mv")
    print(("{:<34}" + "{:>11}" * (len(cols) - 1)).format(*cols))
    for s in report.stats:
        print(
            "{:<34}{:>11d}{:>11d}{:>11.4g}{:>11.4g}{:>11.4g}{:>11.3g}{:>11.3g}".format(
                s.solver,
                s.trials,
                s.breakdowns + s.non_converged,
                s.mean_seconds,
                s.median_iterations,
                s.median_matvecs,
                s.speedup_time,
                s.speedup_matvecs,
            )
        )


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        spec = SyntheticSpec(n=args.n, gap=args.gap, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.n > DENSE_LIMIT_DEFAULT:
        raise ConfigError(f"n = {args.n} is above {DENSE_LIMIT_DEFAULT}: the matrix is built dense")
    op, _ = generate(spec)
    save_matrix_market(op, args.out)
    print(f"wrote {args.out} (n={args.n}, gap={args.gap}, seed={args.seed})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_gen(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MatrixMarketError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except SplitMergeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:    # numpy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
