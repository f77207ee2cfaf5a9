"""Multi-trial benchmark harness with trace emission and speed-up reports.

Protocol: every trial draws a fresh synthetic matrix (base seed + trial
index) or reuses the one Matrix Market operator; all solvers in a trial
start from the same x0; ground truth is the generator's exact spectrum for
synthetic sources and, for files, the LAPACK dense oracle up to
``dense_limit`` or a residual-certified dominant pair above it (shifted inverse
iteration's for a tridiagonal CSR matrix, ARPACK's for any other).
A synthetic n above ``dense_limit`` is refused: its matrix is built dense.
Timing wraps the solver loop only. Trials run one after another in this
process, and records are reported in (solver, trial) order.

Results stream to ``out`` as the experiment runs. ``<out>/traces`` and
``<out>/progress.jsonl`` are made before the matrix is loaded or generated,
so an unwritable ``out`` fails before any work; if a file source's set-up
(load or ground truth) then fails, the directories this run made are
removed again. As each trial's solvers finish, their trace CSVs are written
and each record's ``result`` is dropped, so at most one trial's traces are
held at a time. Where the process may run on two or more CPUs
(``worker.cpus``), a forked child per trial writes the CSVs of every trial
but the last while the next trial solves, if they hold ``TRACE_BLOCK`` rows
or more (``_TraceWriter``); so a run line may name a CSV still being
written. The fork, like ``worker``'s fork hook, needs a POSIX system. Each
CSV is written under a ``.tmp`` name and renamed into place, so it appears
complete. One flushed JSON line per event goes to ``progress.jsonl``: each
set-up stage (``generate``, ``load_matrix_market``,
``dense_eigendecomposition``, ``reference_dominant_eigenpair``) with its
trial or null, seconds and matvecs, and each (solver, trial) run with its
outcome and trace path.
``report.json`` is written once the last trial ends.

Config files are plain ``key = value`` text with ``#`` comments. Each key of
``SETTINGS`` is also a ``bench run`` flag (``--max-iter`` for ``max_iter``) that
overrides the file. A ``matrix`` without a ``source``, in the file or among the
flags, selects ``matrix_market``; a synthetic source with a matrix is refused::

    source = synthetic            # synthetic | matrix_market
    n = 256
    gap = 1e-2
    # matrix = path/to/file.mtx   # required for matrix_market
    solvers = power, split_merge, gd_difference(alpha=0.9)
    baseline = power
    trials = 50
    eps = 1e-5
    max_iter = 20000
    seed = 0
    stop_mode = oracle            # oracle | residual
    residual_tol = 1e-10
    out = bench_out
    dense_limit = 4096

Solver entries are separated by commas. Each may set its method's one
parameter as a single ``key=value`` in parentheses, and no more than one:
alpha for gd_difference, beta (a number or ``auto`` = ideal lambda2^2/4)
for power_momentum, rho_policy (a named policy or a finite positive
constant) for split_merge; power takes none. Every solver setting is
checked before any matrix is loaded; ``beta=auto`` on a file above
``dense_limit`` is refused once the file is loaded, before its ground truth.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import worker
from .errors import ConfigError, SplitMergeError
from .linop import LinearOperator, load_matrix_market
from .matgen import SyntheticSpec, generate
from .solvers import METHOD_PARAMS, SolveResult, SolverConfig, init_vector, solve
from .theory import DENSE_LIMIT_DEFAULT, Spectrum
from .theory import dense_eigendecomposition, reference_dominant_eigenpair


@dataclass
class SolverSetting:
    """One benchmarked solver: method name plus its parameter overrides."""

    method: str
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        if not self.params:
            return self.method
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.method}({inner})"


@dataclass
class ExperimentConfig:
    source: str = "synthetic"               # synthetic | matrix_market
    n: int = 256
    gap: float = 1e-2
    matrix_path: str | None = None
    solvers: list[SolverSetting] = field(
        default_factory=lambda: [SolverSetting("power"), SolverSetting("split_merge")]
    )
    baseline: str = "power"
    trials: int = 50
    eps: float = SolverConfig.eps
    max_iter: int = SolverConfig.max_iter
    seed: int = 0
    out_dir: str = "bench_out"
    stop_mode: str = SolverConfig.stop_mode
    residual_tol: float = SolverConfig.residual_tol
    workers: int = 1                         # must be 1; perfbench still passes it
    dense_limit: int = DENSE_LIMIT_DEFAULT

    def validate(self) -> None:
        if not self.out_dir:    # Path("") is the working directory
            raise ConfigError("out must name a directory, got an empty value")
        if self.source not in ("synthetic", "matrix_market"):
            raise ConfigError(f"unknown source {self.source!r}")
        if self.source == "matrix_market" and not self.matrix_path:
            raise ConfigError("matrix_market source needs a matrix path")
        if self.source == "synthetic" and self.matrix_path:
            raise ConfigError(f"a synthetic source takes no matrix, got {self.matrix_path!r}")
        if self.source == "synthetic":
            try:
                SyntheticSpec(n=self.n, gap=self.gap)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        for name, low in (("seed", 0), ("trials", 1), ("dense_limit", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.source == "synthetic" and self.n > self.dense_limit:
            raise ConfigError(f"n = {self.n} is above dense_limit = {self.dense_limit}: "
                              "a synthetic matrix is built dense")
        if not self.solvers:
            raise ConfigError("at least one solver is required")
        if self.workers != 1:
            raise ConfigError(f"trials run serially; workers must be 1, got {self.workers}")
        # beta=auto waits for the spectrum, and 0.0 stands in; a file in residual mode gets none
        no_spectrum = self.source == "matrix_market" and self.stop_mode != "oracle"
        for setting in self.solvers:
            _solver_config(setting, self, auto_beta=None if no_spectrum else 0.0)
        labels = [s.label for s in self.solvers]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate solver entries: {labels}")
        _baseline_label(self)


@dataclass
class TrialRecord:
    solver: str
    trial: int
    converged: bool
    iterations: int
    matvecs: int
    seconds: float
    error: str | None = None
    result: SolveResult | None = None
    f_star: float = math.nan
    stop_reason: str = "error"          # SolveResult.stop_reason, or "error" on a typed failure
    safeguard_activations: int = 0
    degenerate_fallbacks: int = 0


@dataclass
class SolverStats:
    solver: str
    trials: int
    breakdowns: int
    non_converged: int
    mean_seconds: float
    median_seconds: float
    std_seconds: float
    mean_iterations: float
    median_iterations: float
    std_iterations: float
    mean_matvecs: float
    median_matvecs: float
    std_matvecs: float
    speedup_time: float
    speedup_matvecs: float


@dataclass
class RunReport:
    baseline: str
    stats: list[SolverStats]
    records: list[TrialRecord]
    trace_paths: list[str]

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "solvers": [vars(s) for s in self.stats],
            "trials": [
                {k: v for k, v in vars(r).items() if k not in ("result", "f_star")}
                for r in self.records
            ],
        }


PROGRESS = "progress.jsonl"


class _Progress:
    """Writer of ``progress.jsonl``: one JSON object per line, flushed as written."""

    def __init__(self, fh):
        self._fh = fh

    def line(self, **fields) -> None:
        self._fh.write(json.dumps(fields) + "\n")
        self._fh.flush()

    def stage(self, name: str, trial: int | None, call, *args, **kwargs):
        """``call(*args, **kwargs)``, logged as set-up stage ``name``."""
        start = time.perf_counter()
        value = call(*args, **kwargs)
        # only the dominant-pair reference makes matvecs, on the operator's counter: its
        # Lanczos or inverse-iteration steps and the certificate's product
        self.line(stage=name, trial=trial, seconds=time.perf_counter() - start,
                  matvecs=getattr(value, "matvecs", 0))
        return value

    def run(self, rec: "TrialRecord", trace: str | None) -> None:
        self.line(solver=rec.solver, trial=rec.trial, seconds=rec.seconds, matvecs=rec.matvecs,
                  iterations=rec.iterations, converged=rec.converged,
                  stop_reason=rec.stop_reason, error=rec.error, trace=trace)


def _ground_truth_for(config: ExperimentConfig, op: LinearOperator, progress: _Progress):
    """Oracle ground truth for a Matrix Market operator, or None in residual mode."""
    if config.stop_mode != "oracle":
        return None
    if op.n <= config.dense_limit:
        spectrum = progress.stage("dense_eigendecomposition", None, dense_eigendecomposition, op,
                                  dense_limit=config.dense_limit)
        for setting in config.solvers:   # n = 1 has no lambda2 for beta=auto
            _solver_config(setting, config, _auto_beta(spectrum))
        return spectrum
    for setting in config.solvers:   # the dominant pair has no lambda2 for beta=auto
        _solver_config(setting, config, auto_beta=None)
    return progress.stage("reference_dominant_eigenpair", None, reference_dominant_eigenpair, op)


def _solver_config(setting: SolverSetting, config: ExperimentConfig, auto_beta) -> SolverConfig:
    """The SolverConfig of one entry; ``auto_beta`` is what beta=auto means, if known."""
    params = dict(setting.params)
    unknown = params.keys() - {METHOD_PARAMS.get(setting.method)}
    if unknown:
        raise ConfigError(f"{setting.label}: unknown parameters {sorted(unknown)}")
    if params.get("beta") == "auto":
        if auto_beta is None:
            raise ConfigError(f"{setting.label}: beta=auto needs the full spectrum, which a "
                              "file gets only in oracle mode with 2 <= n <= dense_limit")
        params["beta"] = auto_beta
    try:
        return SolverConfig(
            setting.method, eps=config.eps, max_iter=config.max_iter,
            stop_mode=config.stop_mode, residual_tol=config.residual_tol, **params,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{setting.label}: {exc}") from exc


def _auto_beta(ground_truth) -> float | None:
    """The ideal momentum lambda2^2/4, or None without a full spectrum."""
    if isinstance(ground_truth, Spectrum) and ground_truth.eigenvalues.size > 1:
        try:
            return float(ground_truth.eigenvalues[1]) ** 2 / 4.0
        except OverflowError:    # lambda2 above ~1e154; SolverConfig refuses an infinite beta
            return math.inf
    return None


def _run_trial(
    config: ExperimentConfig, trial: int, shared, progress: _Progress
) -> list[TrialRecord]:
    if config.source == "synthetic":
        spec = SyntheticSpec(n=config.n, gap=config.gap, seed=config.seed + trial)
        op, truth = progress.stage("generate", trial, generate, spec)
    else:
        op, truth = shared

    x0 = init_vector(op.n, np.random.SeedSequence((config.seed, trial, 1)), op)
    f_star = math.nan if truth is None else -float(truth.lambda1) / 4.0
    auto_beta = _auto_beta(truth)

    records = []
    for setting in config.solvers:
        solver_config = _solver_config(setting, config, auto_beta)
        before = op.matvec_count
        start = time.perf_counter()
        try:
            result = solve(op, solver_config, ground_truth=truth, x0=x0)
        except SplitMergeError as exc:
            records.append(
                TrialRecord(
                    solver=setting.label, trial=trial, converged=False,
                    iterations=0, matvecs=op.matvec_count - before,
                    seconds=time.perf_counter() - start,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        records.append(
            TrialRecord(
                solver=setting.label, trial=trial, converged=result.converged,
                iterations=result.iterations, matvecs=result.trace.matvecs[-1],
                seconds=result.trace.seconds[-1], result=result, f_star=f_star,
                stop_reason=result.stop_reason,
                safeguard_activations=result.safeguard_activations,
                degenerate_fallbacks=result.degenerate_fallbacks,
            )
        )
    return records


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute all (solver x trial) runs, streaming traces and progress; then the report.

    Each record's ``result`` is None on return: its trace is on disk.
    """
    config.validate()
    out_dir = Path(config.out_dir)
    made = _missing_dirs(out_dir)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    records, paths = [], {}
    with open(out_dir / PROGRESS, "w", encoding="ascii") as fh:
        progress = _Progress(fh)
        shared = None
        if config.source == "matrix_market":
            try:
                op = progress.stage("load_matrix_market", None, load_matrix_market,
                                    config.matrix_path)
                shared = (op, _ground_truth_for(config, op, progress))
            except Exception:
                if made:    # a failed set-up leaves no output, as a config error before it does
                    fh.close()
                    (out_dir / PROGRESS).unlink()
                    for path in [traces_dir, *made]:
                        path.rmdir()
                raise

        with _TraceWriter(traces_dir) as writer:
            for trial in range(config.trials):
                trial_records = _run_trial(config, trial, shared, progress)
                solved = [rec for rec in trial_records if rec.result is not None]
                for rec, path in zip(solved, writer.write(solved, trial + 1 < config.trials)):
                    paths[rec.solver, rec.trial] = str(path)
                    rec.result = None
                for rec in trial_records:
                    progress.run(rec, paths.get((rec.solver, rec.trial)))
                records += trial_records

    records.sort(key=lambda r: (r.solver, r.trial))
    baseline = _baseline_label(config)
    report = RunReport(
        baseline=baseline, stats=_aggregate(config, records, baseline), records=records,
        trace_paths=[paths[key] for key in sorted(paths)],
    )
    with open(out_dir / "report.json", "w", encoding="ascii") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    return report


def _missing_dirs(path: Path) -> list[Path]:
    """``path`` and those of its ancestors that do not exist yet, deepest first."""
    missing = []
    while not path.exists():
        missing.append(path)
        path = path.parent
    return missing


def _baseline_label(config: ExperimentConfig) -> str:
    """The label of the entry that ``baseline`` names by label or by method."""
    for s in config.solvers:
        if config.baseline in (s.label, s.method):
            return s.label
    raise ConfigError(f"baseline {config.baseline!r} is not among the solvers")


def _aggregate(
    config: ExperimentConfig, records: list[TrialRecord], baseline: str
) -> list[SolverStats]:
    by_solver: dict[str, list[TrialRecord]] = {}
    for rec in records:
        by_solver.setdefault(rec.solver, []).append(rec)

    def ok(recs):
        return [r for r in recs if r.error is None]

    base_ok = ok(by_solver[baseline])
    base_time = statistics.fmean(r.seconds for r in base_ok) if base_ok else math.nan
    base_mv = statistics.fmean(r.matvecs for r in base_ok) if base_ok else math.nan

    stats = []
    for setting in config.solvers:
        recs = by_solver[setting.label]
        good = ok(recs)
        secs = [r.seconds for r in good]
        its = [float(r.iterations) for r in good]
        mvs = [float(r.matvecs) for r in good]
        stats.append(
            SolverStats(
                solver=setting.label,
                trials=len(recs),
                breakdowns=sum(1 for r in recs if r.error is not None),
                non_converged=sum(1 for r in good if not r.converged),
                mean_seconds=_mean(secs), median_seconds=_median(secs), std_seconds=_std(secs),
                mean_iterations=_mean(its), median_iterations=_median(its), std_iterations=_std(its),
                mean_matvecs=_mean(mvs), median_matvecs=_median(mvs), std_matvecs=_std(mvs),
                speedup_time=base_time / _mean(secs) if secs else math.nan,
                speedup_matvecs=base_mv / _mean(mvs) if mvs else math.nan,
            )
        )
    return stats


def _mean(xs):
    return statistics.fmean(xs) if xs else math.nan


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def _std(xs):
    return statistics.pstdev(xs) if len(xs) > 1 else 0.0


TRACE_HEADER = "k,sin_theta,f_minus_fstar,rayleigh,residual,matvecs,seconds,neg_zeta_over_omega"
# One row of the trace CSV (csv-module line ending). NaN prints as "nan" and
# is then blanked, so unavailable values are empty cells.
_TRACE_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%d,%.17g,%.17g\r\n"
# Rows formatted at a time: the temporaries stay ~1 MB however long the trace.
TRACE_BLOCK = 4096


def emit_traces(records: list[TrialRecord], out_dir) -> list[Path]:
    """One CSV per completed run; unavailable columns are left empty."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for rec in records:
        if rec.result is None:
            continue
        path = _trace_path(out_dir, rec)
        _write_trace(path, rec.f_star, rec.result.trace)
        paths.append(path)
    return paths


def _trace_path(out_dir: Path, rec: TrialRecord) -> Path:
    return out_dir / f"{_slug(rec.solver)}__trial{rec.trial:03d}.csv"


def _write_trace(path: Path, f_star: float, trace) -> None:
    """The CSV written as ``<path>.tmp`` and renamed into place, so no reader sees part of it."""
    nzo = array("d", [c.neg_zeta_over_omega for c in trace.coeffs]) if trace.coeffs else None
    columns = (trace.sin_theta, trace.f_value, trace.rayleigh, trace.residual, trace.matvecs,
               trace.seconds, nzo)
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "w", newline="", encoding="ascii")
    try:
        with fh:
            fh.write(TRACE_HEADER + "\r\n")
            _write_rows(fh, columns, f_star)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_rows(fh, columns: tuple, f_star: float) -> None:
    sin_theta, f_value, rayleigh, residual, matvecs, seconds, nzo = columns
    rows = len(matvecs)
    for start in range(0, rows, TRACE_BLOCK):
        block = slice(start, min(start + TRACE_BLOCK, rows))
        size = block.stop - start
        table = np.column_stack([
            np.arange(start, block.stop),
            sin_theta[block],
            np.asarray(f_value[block]) - f_star,
            rayleigh[block],
            residual[block],
            matvecs[block],
            seconds[block],
            np.full(size, math.nan) if nzo is None else nzo[block],
        ])
        fh.write(((_TRACE_ROW * size) % tuple(table.ravel().tolist())).replace(",nan", ","))


def _write_in_child(records: list[TrialRecord], out_dir: Path, fd: int) -> None:
    """A forked child's ``emit_traces``; a failure's ``Type: message`` goes to ``fd``."""
    status = 1
    try:    # it leaves by os._exit alone: no return, no raise, no flush of the parent's buffers
        # Ctrl-C reaches the whole process group; the parent waits for this write
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.nice(19)    # where it shares a CPU with the timed solves, they go first
        emit_traces(records, out_dir)
        status = 0
    except BaseException as exc:
        os.write(fd, f"{type(exc).__name__}: {exc}".encode(errors="replace"))
    finally:
        os._exit(status)


class _TraceWriter:
    """Writes each trial's trace CSVs, in a forked child while the next trial solves.

    A trial goes to a child when a later trial exists, its traces hold at
    least ``TRACE_BLOCK`` rows and the process may run on two or more CPUs;
    otherwise ``emit_traces`` writes it here. Fewer rows take milliseconds
    to write, and a fork costs more where the process is large: on the
    1e6-row sparse benchmark, whose trials hold a few hundred rows, forked
    writes made the later set-up and solves a few percent slower. The child
    writes the records it inherited, so nothing is copied to it, and never
    calls BLAS. ``write`` and leaving the ``with`` block, also on an
    interrupt, first wait for the child, so at most one is alive at a time;
    ``write`` raises its failure as ``OSError``.
    ``worker``'s thread is stopped before a fork, so a child is copied from
    one thread.
    """

    def __init__(self, out_dir: Path):
        self._dir = out_dir
        self._child: tuple[int, int] | None = None    # (pid, read end of its error pipe)

    def __enter__(self) -> "_TraceWriter":
        return self

    def __exit__(self, kind, *exc) -> None:
        # after an exception (an interrupt, say) wait for the child, and let that exception stand
        try:
            self.wait()
        except OSError:
            if kind is None:
                raise

    def write(self, records: list[TrialRecord], later: bool) -> list[Path]:
        """The CSV paths of completed runs' traces: written, or being written by a child."""
        self.wait()
        rows = sum(len(rec.result.trace.matvecs) for rec in records)
        if not (later and rows >= TRACE_BLOCK and worker.cpus() >= 2):
            return emit_traces(records, self._dir)
        read, write = os.pipe()
        # a Ctrl-C between the fork and the child's SIG_IGN would run this code on in the child
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            pid = os.fork()
            if pid == 0:
                _write_in_child(records, self._dir, write)
            self._child = (pid, read)
        finally:
            os.close(write)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return [_trace_path(self._dir, rec) for rec in records]

    def wait(self) -> None:
        """Wait for the child in flight, if any; its failure is raised here as ``OSError``."""
        child, self._child = self._child, None
        if child is None:
            return
        pid, read = child
        try:
            with open(read, "rb") as pipe:
                error = pipe.read().decode(errors="replace")
        finally:
            _, status = os.waitpid(pid, 0)
        if status:
            raise OSError(error or f"the trace writer ended with wait status {status}")


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


# -- config file parsing -------------------------------------------------------

# a method name, then optionally one "key=value" in parentheses; "power()" is "power"
_SOLVER_RE = re.compile(r"([a-z_]+)(?:\(\s*(?:(\w+)\s*=\s*([^\s(),=]+)\s*)?\))?")


def parse_solver_list(text: str) -> list[SolverSetting]:
    """Parse 'power, split_merge, gd_difference(alpha=0.9)' into settings."""
    settings = []
    for chunk in filter(None, (c.strip() for c in text.split(","))):
        match = _SOLVER_RE.fullmatch(chunk)
        if not match:
            raise ConfigError(f"cannot parse solver entry {chunk!r} (at most one key=value)")
        name, key, value = match.groups()
        params = {} if key is None else {key: _coerce(value)}
        settings.append(SolverSetting(method=name, params=params))
    return settings


def _coerce(value: str):
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            pass
    return value


# config key -> (ExperimentConfig field, parser of its text, help); each is a ``bench run`` flag
SETTINGS = {
    "source": ("source", str, "synthetic | matrix_market"),
    "n": ("n", int, "synthetic matrix dimension"),
    "gap": ("gap", float, "synthetic eigengap"),
    "matrix": ("matrix_path", str, "Matrix Market file; without a source, selects matrix_market"),
    "solvers": ("solvers", parse_solver_list,
                "comma list, e.g. power,split_merge,gd_difference(alpha=0.9)"),
    "baseline": ("baseline", str, "the solver label or method speed-ups are relative to"),
    "trials": ("trials", int, "trials per solver"),
    "eps": ("eps", float, "stopping tolerance on sin(theta)"),
    "max_iter": ("max_iter", int, "iteration cap per solve"),
    "seed": ("seed", int, "base seed of matrices and start vectors"),
    "out": ("out_dir", str, "output directory"),
    "stop_mode": ("stop_mode", str, "oracle | residual"),
    "residual_tol": ("residual_tol", float, "relative residual tolerance in residual mode"),
    "dense_limit": ("dense_limit", int, "largest n built or solved dense"),
}


def apply_settings(config: ExperimentConfig, values: dict) -> ExperimentConfig:
    """Set each parsed ``{key: value}``; a matrix without a source selects matrix_market."""
    for key, value in values.items():
        setattr(config, SETTINGS[key][0], value)
    if "matrix" in values and "source" not in values:
        config.source = "matrix_market"
    return config


def load_config(path) -> ExperimentConfig:
    """Read the key=value config format documented in the module docstring."""
    values = {}
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: a config file must be ASCII: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (t.strip() for t in line.split("=", 1))
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = SETTINGS[key][1](value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return apply_settings(ExperimentConfig(), values)
