"""Command-line benchmark harness.

Subcommands::

    bench run --config cfg.txt [overrides...]
    bench gen --n 256 --gap 0.01 --seed 0 --out matrix.mtx    # n <= 4096

Every config-file key (``bench.SETTINGS``) is also a ``run`` flag, such as
``--max-iter`` for ``max_iter``, and a flag overrides the file. ``--matrix``
without ``--source`` selects the Matrix Market source, as a ``matrix`` line
without a ``source`` line does in a file.

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

from .bench import SETTINGS, ExperimentConfig, apply_settings, load_config, run_experiment
from .errors import ConfigError, MatrixMarketError, SplitMergeError
from .linop import save_matrix_market
from .matgen import SyntheticSpec, generate


class _Parser(argparse.ArgumentParser):
    # argparse prints its usage and exits 2; a bad flag is a one-line configuration error here
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bench", description="dominant-eigenvector solver benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    # every run flag but --config is the config-file key of the same name
    run = sub.add_parser("run", help="run a benchmark experiment")
    run.add_argument("--config", help="key=value config file")
    for key, (_, parse, text) in SETTINGS.items():
        run.add_argument("--" + key.replace("_", "-"), dest=key, type=parse, help=text)

    gen = sub.add_parser("gen", help="export a synthetic matrix to Matrix Market")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--gap", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output .mtx path")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else ExperimentConfig()
    apply_settings(config, {k: v for k, v in vars(args).items() if k in SETTINGS and v is not None})
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
    ExperimentConfig(n=args.n, gap=args.gap, seed=args.seed).validate()
    spec = SyntheticSpec(n=args.n, gap=args.gap, seed=args.seed)
    op = generate(spec)[0]    # the spectrum's n x n eigenvectors are freed before the write
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
