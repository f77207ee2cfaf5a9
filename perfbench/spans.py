"""Hooks around the harness's calls into the library layers.

The benchmark never edits the library. It replaces, for the duration of a
run, the names that ``splitmerge.bench`` calls (``solve``, ``generate``,
``load_matrix_market``, ``dense_eigendecomposition``,
``reference_dominant_eigenpair``, ``emit_traces``) and the class attribute
``LinearOperator.apply`` with wrappers that record what happened.

Untraced runs install only the ``solve`` hook: one clock read and two counter
reads per solve, which gives the set-up time (experiment start to first
solve) and the matvec counter deltas the correctness gate compares. Traced
runs also record a span per stage call and account every matvec to the
innermost open span. Matvecs are aggregated, not stored one by one, because
a run makes millions of them.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

import splitmerge.bench as harness
import splitmerge.linop as linop

STAGES = (
    "generate",
    "load_matrix_market",
    "dense_eigendecomposition",
    "reference_dominant_eigenpair",
    "emit_traces",
)


@dataclass
class Span:
    name: str
    experiment: int
    start: float
    end: float = 0.0
    parent: int | None = None
    matvecs: int = 0            # apply calls made directly inside this span
    matvec_s: float = 0.0
    method: str | None = None   # solve spans: the solver method

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class SolveCall:
    """What the solve hook saw for one (solver, trial) run."""

    experiment: int
    method: str
    start: float
    end: float
    counter_delta: int
    iterations: int | None = None
    converged: bool = False
    reported_matvecs: int | None = None
    rayleigh: float = float("nan")
    truth_lambda1: float = float("nan")
    traced_matvecs: int = 0     # traced runs: apply calls and their time inside the solve
    traced_matvec_s: float = 0.0
    retained_bytes: int = 0
    walk_s: float = 0.0         # time the traced hook spent measuring retained_bytes
    error: str | None = None


class Probe:
    """Installs the hooks for one run and collects what they record."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.experiment = -1
        self.spans: list[Span] = []
        self.solves: list[SolveCall] = []
        self.truths: dict[int, object] = {}
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def __enter__(self):
        self._replace(harness, "solve", self._solve_hook(harness.solve))
        if self.traced:
            for name in STAGES:
                self._replace(harness, name, self._stage_hook(name, getattr(harness, name)))
            self._replace(linop.LinearOperator, "apply", self._apply_hook(linop.LinearOperator.apply))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False

    def _replace(self, owner, name, wrapper):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- hooks ---------------------------------------------------------------

    def open_span(self, name: str) -> Span:
        span = Span(name, self.experiment, 0.0, parent=self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def close_span(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _stage_hook(self, name, original):
        def hook(*args, **kwargs):
            span = self.open_span(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close_span(span)
        return hook

    def _apply_hook(self, original):
        spans = self.spans
        open_ = self._open

        def apply(op, x):
            t0 = time.perf_counter()
            y = original(op, x)
            dt = time.perf_counter() - t0
            if open_:     # the benchmark opens an "experiment" span around each run
                span = spans[open_[-1]]
                span.matvecs += 1
                span.matvec_s += dt
            return y
        return apply

    def _solve_hook(self, original):
        def hook(op, config, ground_truth=None, x0=None):
            before = op.matvec_count
            span = self.open_span("solve") if self.traced else None
            start = time.perf_counter()
            call = SolveCall(self.experiment, config.method, start, start, 0)
            self.solves.append(call)
            if ground_truth is not None:
                self.truths.setdefault(self.experiment, ground_truth)
                call.truth_lambda1 = float(ground_truth.lambda1)
            try:
                result = original(op, config, ground_truth=ground_truth, x0=x0)
            except Exception as exc:
                call.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                call.end = time.perf_counter()
                call.counter_delta = op.matvec_count - before
                if span is not None:
                    self.close_span(span)
                    span.method = config.method
                    call.traced_matvecs, call.traced_matvec_s = span.matvecs, span.matvec_s
            call.iterations = result.iterations
            call.converged = result.converged
            call.reported_matvecs = result.trace.matvecs[-1]
            call.rayleigh = result.rayleigh_estimate
            if self.traced:
                t0 = time.perf_counter()
                call.retained_bytes = retained_bytes(result)
                call.walk_s = time.perf_counter() - t0
            return result
        return hook


_NUMBERS = {float, int}


def retained_bytes(root) -> int:
    """Bytes reachable from ``root`` through containers, dataclasses and arrays.

    Counts each object once (numpy arrays that own their data include it),
    and does not descend into classes, modules or functions.
    """
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, np.ndarray):
            if obj.base is not None:
                stack.append(obj.base)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            # trace columns hold one fresh number per iteration: size them in bulk
            if set(map(type, obj)) <= _NUMBERS:
                total += sum(map(sys.getsizeof, obj))
            else:
                stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__") and not callable(obj) and not hasattr(obj, "__file__"):
            stack.append(vars(obj))
    return total


def hook_cost_s(calls: int = 20000) -> float:
    """Measured seconds one apply-hook call adds, from a timed no-op pair.

    A span stays open while timing, so each hooked call takes the path a
    real matvec takes: the span lookup and its two counter updates.
    """
    probe = Probe(traced=True)
    probe.open_span("calibrate")

    def noop(op, x):
        return x

    hooked = probe._apply_hook(noop)
    rounds = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(None, None)
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            hooked(None, None)
        rounds.append((time.perf_counter() - t0 - bare) / calls)
    return max(sorted(rounds)[len(rounds) // 2], 0.0)
