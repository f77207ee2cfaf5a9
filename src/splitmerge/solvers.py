"""Iterative dominant-eigenvector solvers sharing one driver and one kernel.

Methods: classical power iteration, gradient descent on the difference
objective with step alpha in (0,1), power iteration with momentum, and the
split-merge update x+ = zeta*Ax + omega*A^2x whose scalars are recomputed
each iteration from two matvecs and a handful of dot products.

None of split_merge / gd_difference normalize their iterates: the update
dynamics keep ||x|| near sqrt(lambda1)/2 and the curvature scalar sigma is
not scale-invariant, so normalizing would change the trajectory. Overflow
guards stand in for normalization.

All per-iteration arithmetic lives in :class:`IterationKernel`, built for
one method; the driver, the public step functions and the theory checks
make its two calls per iteration, ``measure`` and ``update``.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from functools import partial
from operator import add

import numpy as np

from .errors import (
    BreakdownError,
    DimensionMismatchError,
    InitializationError,
    NonDifferentiablePointError,
    OverflowGuardError,
    SigmaNotPositiveError,
)
from . import worker
from .linop import LinearOperator, _scaled_norm

METHODS = ("power", "gd_difference", "power_momentum", "split_merge")
# the one SolverConfig field each method reads beyond the shared ones; power has none
METHOD_PARAMS = {"gd_difference": "alpha", "power_momentum": "beta", "split_merge": "rho_policy"}
RHO_POLICIES = ("fixed_one_with_safeguard", "convergence_guaranteed")
STOP_MODES = ("oracle", "residual")

# D <= factor * ||A^2 x||^2 triggers the DCA fallback. The factor sits at the
# float64 noise floor of the cancellation in D so the guard catches exact
# eigenvectors (D = 0) and noise-negative D without amputating the adaptive
# phase on small-gap problems.
DEGENERATE_FACTOR = 1e-16
SAFEGUARD_SCALE = 1.2        # rho = 1.2 * gamma/mu when gamma/mu >= 1
NORM_GUARD = (1e-150, 1e150)


@dataclass
class SolverConfig:
    """Run parameters for :func:`solve`.

    rho_policy is one of the named policies or a constant rho, finite and
    positive (and keeping sigma > 0, otherwise the step raises).

    An oracle ``eps`` below about 1e-8 is not meaningful: sin theta is
    computed as sqrt(1 - cos^2), which carries about 1e-16 / sin theta of
    round-off and rounds to exactly 0 near sin theta = 1e-8, so the stop
    test would pass on round-off. The residual stop has no such floor.
    """

    method: str
    alpha: float = 0.5
    beta: float = 0.0
    eps: float = 1e-5
    max_iter: int = 20000
    rho_policy: str | float = "fixed_one_with_safeguard"
    stop_mode: str = "oracle"
    residual_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.stop_mode not in STOP_MODES:
            raise ValueError(f"unknown stop_mode {self.stop_mode!r}")
        _check_rho_policy(self.rho_policy)
        if self.method == "gd_difference" and not 0.0 < self.alpha < 1.0:
            # alpha*L+ in (0,2) with L+ = 2 restricts the step to (0,1)
            raise ValueError(f"gd_difference needs alpha in (0,1), got {self.alpha}")
        # negated comparisons so that nan fails them too; an infinite
        # tolerance would stop any start as converged at iteration 0
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0.0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be finite and positive, got {self.residual_tol}")


def _check_rho_policy(rho_policy) -> None:
    if isinstance(rho_policy, str):
        if rho_policy not in RHO_POLICIES:
            raise ValueError(f"unknown rho_policy {rho_policy!r}")
    elif not 0.0 < float(rho_policy) < math.inf:
        raise ValueError(f"a constant rho must be finite and positive, got {rho_policy!r}")


@dataclass
class SplitMergeCoefficients:
    """Per-iteration scalars of the split-merge update.

    ``degenerate`` marks an iterate that is numerically an eigenvector, in
    which case the coefficients describe the pure DCA step (omega = 0).
    """

    mu: float
    gamma: float
    sigma: float
    zeta: float
    omega: float
    rho: float
    degenerate: bool

    @property
    def neg_zeta_over_omega(self) -> float:
        if self.omega == 0.0:
            return math.nan
        return -self.zeta / self.omega


def _column(typecode: str):
    return field(default_factory=lambda: array(typecode))


@dataclass
class IterationTrace:
    """Per-iteration history of a solver run.

    Record k describes iterate x_k. Each column is a packed ``array.array``
    holding one machine double (int64 for ``matvecs``) per record.
    ``matvecs`` is cumulative from the start of the loop and includes the
    products used to measure x_k itself, so the per-record delta is exactly
    1 for the one-matvec methods and 2 for split_merge. ``coeffs[k]`` (split_merge only) holds the scalars computed
    at x_k; the ones at the final record were never applied.
    """

    method: str
    sin_theta: array = _column("d")
    f_value: array = _column("d")
    rayleigh: array = _column("d")
    residual: array = _column("d")
    matvecs: array = _column("q")
    seconds: array = _column("d")
    coeffs: list[SplitMergeCoefficients] | None = None

    @property
    def k(self) -> list[int]:
        """Record indices; every iterate is recorded, so they run 0..K-1."""
        return list(range(len(self.matvecs)))

    def applied_coeffs(self) -> list[SplitMergeCoefficients]:
        """Coefficients that actually produced a step (drops the final record's)."""
        if not self.coeffs:
            return []
        return self.coeffs[: max(len(self.matvecs) - 1, 0)]


@dataclass
class SolveResult:
    x: np.ndarray | None                # the final iterate; None in a bench TrialRecord
    rayleigh_estimate: float
    iterations: int
    converged: bool
    trace: IterationTrace
    safeguard_activations: int = 0      # split_merge records with rho > 1
    degenerate_fallbacks: int = 0       # split_merge records that took the DCA step

    @property
    def stop_reason(self) -> str:
        """Why the loop ended: "converged" (stop rule met) or "max_iter" (cap reached)."""
        return "converged" if self.converged else "max_iter"


def init_vector(n: int, seed, op: LinearOperator) -> np.ndarray:
    """Unit-norm standard-normal start with x'Ax bounded away from zero.

    Redraws up to 100 times until x'Ax > 1e-12 * ||A||_F, which keeps the
    first iterate inside the differentiable set; the floor is finite, as
    ``LinearOperator`` refuses a non-finite ||A||_F.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    floor = 1e-12 * op.frobenius_norm
    for _ in range(100):
        x = rng.standard_normal(n)
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        x /= norm
        if float(x.dot(op.apply(x))) > floor:
            return x
    raise InitializationError(
        "could not draw a starting vector with x'Ax > 1e-12*||A||_F in 100 tries"
    )


# -- the iteration kernel -------------------------------------------------------

BLOCK = 32768    # elements per block of the kernel's passes (chosen in IterationKernel)
BREAKDOWN_NORM = 1e-300    # power and momentum steps: a norm below this broke down


def _reductions(x, w, u1, with_wtw):
    """Pass 1: (x'Ax, x'x, ||Ax||^2, u1'x), 0.0 for a term not asked for."""
    return (
        float(x.dot(w)),
        float(x.dot(x)),
        float(w.dot(w)) if with_wtw else 0.0,
        0.0 if u1 is None else float(u1.dot(x)),
    )


def _update_sums(x, w, with_quad, with_wtw):
    """A step's pass 1: only the x'Ax and ||Ax||^2 its update reads, in ``_reductions``' order."""
    return (float(x.dot(w)) if with_quad else 0.0, 0.0, float(w.dot(w)) if with_wtw else 0.0, 0.0)


def _residual(x, w, scratch, r):
    """||Ax - r*x||^2, the residual formed in scratch: the sum every pass 2 starts with.

    A step's kernel passes r = None: it skips the residual, and this is 0.0.
    """
    if r is None:
        return 0.0
    res = np.multiply(x, r, scratch)
    np.subtract(w, res, res)
    return float(res.dot(res))


def _power_vectors(x, w, scratch, r, norm):
    """Ax/norm over w, norm = ||Ax||; no write below ``BREAKDOWN_NORM``."""
    rr = _residual(x, w, scratch, r)
    if norm >= BREAKDOWN_NORM:
        np.divide(w, norm, w)       # after the block's last read of w
    return (rr,)


def _gd_vectors(x, w, scratch, r, keep, step):
    """keep*x + step*Ax over w, keep = 1 - 2*alpha, step = alpha/sqrt(x'Ax)."""
    rr = _residual(x, w, scratch, r)
    step_term = np.multiply(w, step, scratch)
    nxt = np.multiply(x, keep, w)
    np.add(nxt, step_term, nxt)
    return (rr,)


def _momentum_vectors(x, w, scratch, r, prev, beta):
    """y = Ax - beta*prev over w; adds ||y||^2."""
    rr = _residual(x, w, scratch, r)
    np.subtract(w, np.multiply(prev, beta, scratch), w)
    return rr, float(w.dot(w))


def _split_merge_vectors(x, w, scratch, r, z, c):
    """Adds g'g, g'Ax and ||A^2x||^2 of g = A^2x - c*Ax, c = x'A^2x / x'Ax; writes nothing."""
    rr = _residual(x, w, scratch, r)
    g = np.multiply(w, c, scratch)
    np.subtract(z, g, g)         # formed explicitly, not by its cancelling expansion
    return rr, float(g.dot(g)), float(g.dot(w)), float(z.dot(z))


def _momentum_finish(x, w, prev, norm):
    """y/norm over w = y and x/norm over prev, norm = ||y||."""
    np.divide(x, norm, prev)
    np.divide(w, norm, w)
    return ()


def _split_merge_finish(w, z, scratch, zeta, omega):
    """zeta*Ax + omega*A^2x over w, or zeta*Ax when z is None; returns (its squared norm,)."""
    nxt = np.multiply(w, zeta, w)
    if z is not None:
        np.add(nxt, np.multiply(z, omega, scratch), nxt)
    return (float(nxt.dot(nxt)),)


# each method's pass 2 and pass 3 bodies; power and gd finish in pass 2
_PASSES = {
    "power": (_power_vectors, None),
    "gd_difference": (_gd_vectors, None),
    "power_momentum": (_momentum_vectors, _momentum_finish),
    "split_merge": (_split_merge_vectors, _split_merge_finish),
}


def _block_halves(n):
    """The blocks of BLOCK elements over n, as two lists of slices: a sweep's two halves."""
    blocks = [slice(i, min(i + BLOCK, n)) for i in range(0, n, BLOCK)]
    return blocks[: len(blocks) // 2], blocks[len(blocks) // 2:]


def _blockwise(body, halves):
    """``body`` run block by block, its sums added in block order (``body`` itself
    when ``halves`` is None). The two halves (``_block_halves``) go to
    ``worker.halves``; in each, an array argument is sliced per block, a tuple
    holds one list per half with an item per block (the scratch), and anything
    else goes to every block."""
    if halves is None:
        return body
    n = halves[1][-1].stop

    def run(*args):
        def sweep(k):
            blocks = halves[k]
            return list(map(body, *(
                a[k] if isinstance(a, tuple) else [a[b] for b in blocks]
                if isinstance(a, np.ndarray) else [a] * len(blocks)
                for a in args
            )))

        low, high = worker.halves(n, partial(sweep, 0), partial(sweep, 1))
        parts = low + high
        sums = parts[0]
        for part in parts[1:]:
            sums = list(map(add, sums, part))
        return sums

    return run


class IterationKernel:
    """One method's iteration: two calls, each a pass or two over cache-sized blocks.

    A kernel is built for one method, the one parameter that method reads
    (``METHOD_PARAMS``; none for power) and, when the run has one, the unit
    ground truth u1. The caller takes the matvecs (always through
    ``op.apply``), w = Ax and, for split_merge, z = A^2x, then calls:

    1. ``measure(x, w, z)``: pass 1 (x'Ax, x'x, ||Ax||^2, u1'x) and pass 2:
       the residual Ax - r*x, r = x'Ax / x'x, the method's own sums (split-
       merge sets ``coeffs`` from g = A^2x - c*Ax, or None where x'Ax <= 0
       leaves c undefined) and, over w, every update that needs no pass-2
       sum: power's and gd's whole step and momentum's y = Ax - beta*prev.
       For these three methods Ax is spent after it.
    2. ``update(x, w, z)``: the rest of the update (pass 3: momentum's
       rescale by 1/||y|| or split-merge's zeta*Ax + omega*A^2x), returned
       as the next iterate. It raises where the step is undefined. A driver
       reports an x'Ax <= 0 or nan after ``measure``, as ``solve`` does.

    The method's block bodies (``_PASSES``) are bound at build time as
    ``_reductions``, ``_vectors`` and ``_finish``; scripts/kernel_parts.py
    times them and the block-boundary tests check their sums.

    A kernel built with ``diagnostics=False`` serves one public step: pass 1
    forms only the x'Ax and ||Ax||^2 its update reads (``_update_sums``;
    none for momentum), pass 2 skips the residual, and ``measure`` returns
    0.0 for x'x, u1'x and the residual and None for r. The update's bits
    are the same either way.

    Updates go over Ax, the operator's fresh output, already in cache, so
    no buffer is swapped between iterations; Ax and A^2x are spent after.

    Each pass walks the vectors in blocks of ``BLOCK`` elements and sums its
    dot products block by block in block order. BLOCK = 32768 elements is
    256 KiB per operand, so a pass's up to five operands stay in the 2 MiB
    L2 of the machine it was measured on across the pass's numpy calls; at
    n = 1e6 it beat blocks of 8192 to 131072 elements and one whole-vector
    block (BENCH_kernel_blocks.json). At n <= BLOCK each pass is its body
    called once on the whole vectors, so bit-identical to a whole-vector
    computation, with no wrapper cost at small n, where the loop costs more
    than its arithmetic; above BLOCK trajectories move at round-off.

    Above BLOCK each pass hands the two halves of its block list to
    ``worker.halves``, which decides whether they run at once; each block's
    sums are added in block order once both are done, so the bits are the same.

    Throwaway vectors (the residual, g, a step's second term) go into a
    scratch buffer; above BLOCK one block-sized buffer per half of the block
    list, which stays in cache.
    Every call takes numpy's cheapest path, with the same bits: ``a.dot(b)``
    for a 1-D reduction and a ufunc's output passed positionally, never
    ``a @ b`` or ``out=`` (BENCH_small_loop.json).
    """

    def __init__(self, n: int, method: str, param=None, u1: np.ndarray | None = None,
                 diagnostics: bool = True):
        self.method, self.param, self.u1 = method, param, u1
        # power_momentum: the previous iterate, scaled with the current
        self.prev = np.zeros(n) if method == "power_momentum" else None
        self.coeffs: SplitMergeCoefficients | None = None    # split_merge: what update applies
        with_wtw = method in ("power", "split_merge")    # ||Ax||^2: power's norm, c
        if diagnostics:
            self._pass1 = (u1, with_wtw)
        else:    # x'Ax: gd's step size and split-merge's scalars
            self._pass1 = (method in ("gd_difference", "split_merge"), with_wtw)
        self._diagnostics = diagnostics
        self._quad = self._norm = 0.0    # gd's x'Ax and the power or momentum norm, for update
        if n <= BLOCK:
            halves = None
            self._scratch = np.empty(n)
        else:
            halves = _block_halves(n)
            # one block-sized buffer per half, which stays in its thread's cache
            self._scratch = tuple(
                [buffer[: b.stop - b.start] for b in part]
                for part, buffer in zip(halves, (np.empty(BLOCK), np.empty(BLOCK)))
            )
        vectors, finish = _PASSES[method]
        self._reductions = _blockwise(_reductions if diagnostics else _update_sums, halves)
        self._vectors = _blockwise(vectors, halves)
        self._finish = _blockwise(finish, halves) if finish else None

    def measure(self, x: np.ndarray, w: np.ndarray, z: np.ndarray | None = None) -> tuple:
        """Passes 1 and 2 at x; returns (x'Ax, x'x, r, u1'x, ||Ax - r*x||^2), r = x'Ax / x'x."""
        # a local function call specializes, an instance attribute's does not
        method, reductions, vectors = self.method, self._reductions, self._vectors
        quad, xtx, wtw, u1x = reductions(x, w, *self._pass1)
        self._quad = quad
        # x'x = 0 at x = 0, whose residual is 0 for any r, and in a step, which skips it
        r = quad / xtx if xtx else (0.0 if self._diagnostics else None)
        if method == "power":
            self._norm = norm = math.sqrt(wtw)
            (rr,) = vectors(x, w, self._scratch, r, norm)
        elif method == "gd_difference":    # update raises where x'Ax <= 0 leaves no step
            alpha = self.param
            step = alpha / math.sqrt(quad) if quad > 0.0 else 0.0
            (rr,) = vectors(x, w, self._scratch, r, 1.0 - 2.0 * alpha, step)
        elif method == "power_momentum":
            rr, yy = vectors(x, w, self._scratch, r, self.prev, self.param)
            self._norm = math.sqrt(yy)
        else:    # x'Ax <= 0 leaves c undefined: pass 2 with c = 0, and no coeffs
            undefined = quad <= 0.0
            rr, num, den, zz = vectors(x, w, self._scratch, r, z, 0.0 if undefined else wtw / quad)
            try:
                self.coeffs = None if undefined else coefficients_from_sums(
                    quad, wtw, num, den, zz, self.param)
            except OverflowError as exc:    # a float ** overflows: x'Ax above ~1e154
                raise OverflowGuardError(
                    f"split-merge scalars overflow at x'Ax = {quad:.3e}") from exc
        return quad, xtx, r, u1x, rr

    def update(self, x: np.ndarray, w: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
        """The rest of the update ``measure`` began, written over w and returned."""
        method = self.method
        if method == "power":
            if not self._norm < math.inf:    # nan too; the pass divided by it
                raise OverflowGuardError(f"power step: ||Ax|| = {self._norm:.3e} is not finite")
            if self._norm < BREAKDOWN_NORM:
                raise BreakdownError("power step broke down: ||Ax|| ~ 0")
        elif method == "gd_difference":
            if self._quad <= 0.0:
                raise NonDifferentiablePointError("gd step at a point with x'Ax <= 0")
        elif method == "power_momentum":
            if not self._norm < math.inf:
                raise OverflowGuardError(f"momentum step: ||y|| = {self._norm:.3e} is not finite")
            if self._norm < BREAKDOWN_NORM:
                raise BreakdownError("momentum step broke down: ||Ax - beta*x_prev|| ~ 0")
            self._finish(x, w, self.prev, self._norm)
        else:
            coeffs = self.coeffs            # A^2x is unused when degenerate
            if coeffs is None:
                raise NonDifferentiablePointError("split-merge step at a point with x'Ax <= 0")
            z = None if coeffs.degenerate else z
            norm = math.sqrt(self._finish(w, z, self._scratch, coeffs.zeta, coeffs.omega)[0])
            if not NORM_GUARD[0] <= norm <= NORM_GUARD[1]:
                raise OverflowGuardError(f"iterate norm {norm:.3e} outside {NORM_GUARD}")
        return w


def coefficients_from_sums(
    quad: float, wtw: float, num: float, den: float, zz: float, rho_policy: str | float
) -> SplitMergeCoefficients:
    """Split-merge scalars from x'Ax, x'A^2x, g'g, g'Ax and ||A^2x||^2 (passes 1 and 2)."""
    mu = 2.0 * math.sqrt(quad)
    if den <= DEGENERATE_FACTOR * zz:
        # x is numerically an eigenvector: gamma is 0/0, fall back to the
        # DCA step Ax / (2*sqrt(x'Ax)), i.e. the v = 0 member of the family.
        return SplitMergeCoefficients(
            mu=mu, gamma=0.0, sigma=1.0, zeta=1.0 / mu, omega=0.0, rho=1.0,
            degenerate=True,
        )

    gamma = num / den
    ratio = gamma / mu
    if rho_policy == "fixed_one_with_safeguard":
        rho = SAFEGUARD_SCALE * ratio if ratio >= 1.0 else 1.0
    elif rho_policy == "convergence_guaranteed":
        # rho >= gamma/mu + x'A^2x / (2*(x'Ax)^{3/2}) forces zeta >= 0,
        # which pins every rate ratio into [0, 1].
        rho = max(1.0, ratio + wtw / (2.0 * quad**1.5)) + 1e-12
    else:
        rho = float(rho_policy)

    sigma = 1.0 - gamma / (rho * mu)
    if sigma <= 0.0:
        raise SigmaNotPositiveError(
            f"sigma = {sigma:.6e} <= 0 under rho = {rho:.6g}: surrogate not positive definite"
        )
    zeta = 1.0 / mu - 4.0 * wtw / (mu**4 * sigma * rho)
    omega = 1.0 / (mu**2 * sigma * rho)
    return SplitMergeCoefficients(
        mu=mu, gamma=gamma, sigma=sigma, zeta=zeta, omega=omega, rho=rho,
        degenerate=False,
    )


# -- single steps (public contract: each does its own matvecs) ---------------


def _vector(v, n: int, name: str) -> np.ndarray:
    """v as a float array; DimensionMismatchError unless its shape is (n,)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise DimensionMismatchError(f"expected {name} of length {n}, got shape {v.shape}")
    return v


def _unit_u1(u1, n: int) -> np.ndarray:
    """u1 / ||u1||: DimensionMismatchError unless of shape (n,), ValueError if 0 or not finite."""
    u1 = _vector(u1, n, "ground truth u1")
    norm = _scaled_norm(u1)
    # negated so that a nan norm fails too: sin theta against nan reads 0
    if not 0.0 < norm < math.inf:
        raise ValueError(f"ground truth u1 must be finite and nonzero, got norm {norm}")
    return u1 / norm


def _step(kernel: IterationKernel, op: LinearOperator, x) -> np.ndarray:
    """One iteration of ``kernel``'s method from x. One matvec, two for split_merge."""
    x = np.ascontiguousarray(x, dtype=float)   # BLAS ddot sums a strided x in another order
    if not np.isfinite(x).all():    # x'Ax is then not finite, as solve refuses too
        raise NonDifferentiablePointError("step from an x with a nan or inf entry")
    w = op.apply(x)
    z = op.apply(w) if kernel.method == "split_merge" else None
    kernel.measure(x, w, z)
    if kernel.prev is not None:    # momentum read the caller's x_prev; x/||y|| goes elsewhere
        kernel.prev = np.empty_like(x)
    return kernel.update(x, w, z)


def power_step(op: LinearOperator, x: np.ndarray) -> np.ndarray:
    """Ax / ||Ax||. One matvec."""
    return _step(IterationKernel(op.n, "power", diagnostics=False), op, x)


def gd_step(op: LinearOperator, x: np.ndarray, alpha: float) -> np.ndarray:
    """(1 - 2*alpha)*x + alpha*Ax/sqrt(x'Ax), unnormalized. One matvec."""
    return _step(IterationKernel(op.n, "gd_difference", alpha, diagnostics=False), op, x)


def power_momentum_step(
    op: LinearOperator, x_curr: np.ndarray, x_prev: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """y = A x_curr - beta x_prev; returns (y/||y||, x_curr/||y||).

    Scaling the previous iterate by the same 1/||y|| keeps the momentum
    recursion equivalent to the unnormalized scheme, so beta retains its
    meaning across iterations.
    """
    kernel = IterationKernel(op.n, "power_momentum", beta, diagnostics=False)
    kernel.prev = _vector(x_prev, op.n, "x_prev")    # only read, never written
    return _step(kernel, op, x_curr), kernel.prev


def split_merge_step(
    op: LinearOperator, x: np.ndarray, rho_policy: str | float = "fixed_one_with_safeguard"
) -> tuple[np.ndarray, SplitMergeCoefficients]:
    """zeta*Ax + omega*A^2x; returns (it, the coefficients applied). Two matvecs."""
    _check_rho_policy(rho_policy)    # also where x is an eigenvector and rho goes unread
    kernel = IterationKernel(op.n, "split_merge", rho_policy, diagnostics=False)
    return _step(kernel, op, x), kernel.coeffs


# -- driver -------------------------------------------------------------------


def solve(
    op: LinearOperator,
    config: SolverConfig,
    ground_truth=None,
    x0: np.ndarray | None = None,
) -> SolveResult:
    """Run the configured method with per-iteration trace recording.

    ``ground_truth`` needs a ``u1`` attribute (a Spectrum or dominant
    reference) and is required in oracle stop mode; a ``u1`` not of shape
    (n,) raises DimensionMismatchError, and one that is zero or not finite
    ValueError. Hitting the iteration cap is not an error; the result just
    has converged=False and stop_reason "max_iter". An iterate whose x'Ax
    is not finite and positive raises NonDifferentiablePointError.
    Diagnostics reuse the step's own matvecs, so the cumulative matvec count
    advances by exactly the method's per-iteration cost. Memory is a few
    scalars per iteration and, at its peak, these n-vectors: x and Ax for
    power and gd_difference; those and the previous iterate for
    power_momentum; those and A^2x for split_merge, whose spent A^2x is
    dropped before the next two products. Beside them, the kernel's scratch
    (one n-vector up to ``BLOCK``, two blocks above), the unit u1 when
    ``ground_truth`` is given, and the caller's ``x0``.
    """
    u1 = None if ground_truth is None else _unit_u1(ground_truth.u1, op.n)
    if config.stop_mode == "oracle" and u1 is None:
        raise ValueError("oracle stop mode requires ground truth")

    if x0 is None:
        x = init_vector(op.n, config.seed, op)
    else:
        x = np.ascontiguousarray(x0, dtype=float)    # read, never written: copied at k = 0

    is_sm = config.method == "split_merge"
    param_name = METHOD_PARAMS.get(config.method)
    param = getattr(config, param_name) if param_name else None
    kernel = IterationKernel(op.n, config.method, param, u1)
    oracle = config.stop_mode == "oracle"
    trace = IterationTrace(method=config.method, coeffs=[] if is_sm else None)

    # the trace columns' appends and the loop's functions, bound once: lookups count at small n
    columns = (trace.sin_theta, trace.f_value, trace.rayleigh, trace.residual, trace.matvecs,
               trace.seconds)
    add_sin, add_f, add_r, add_resid, add_mv, add_s = (c.append for c in columns)
    clock, sqrt, inf, nan = time.perf_counter, math.sqrt, math.inf, math.nan
    mv0 = op.matvec_count
    t0 = clock()

    for k in range(config.max_iter + 1):
        w = op.apply(x)
        z = op.apply(w) if is_sm else None

        quad, xtx, r, u1x, rr = kernel.measure(x, w, z)
        if not 0.0 < quad < inf:
            raise NonDifferentiablePointError(f"x'Ax = {quad:.3e} at iteration {k}")
        root_xtx = sqrt(xtx)
        resid = sqrt(rr) / root_xtx
        sin_t = nan
        if u1 is not None:
            cos_t = u1x / root_xtx       # its sign drops out of cos_t^2
            sin2 = 1.0 - cos_t * cos_t
            sin_t = sqrt(sin2) if sin2 > 0.0 else 0.0
        s = sqrt(quad)

        if is_sm:
            trace.coeffs.append(kernel.coeffs)
        add_sin(sin_t)
        add_f(xtx - s)
        add_r(r)
        add_resid(resid)
        add_mv(op.matvec_count - mv0)
        add_s(clock() - t0)

        if oracle:
            converged = sin_t <= config.eps
        else:
            converged = resid / r <= config.residual_tol
        if converged or k == config.max_iter:
            break

        x = kernel.update(x, w, z)
        z = None    # A^2x is spent: the next two products may reuse its memory

    coeffs = trace.coeffs or ()
    return SolveResult(
        x=x.copy() if k == 0 and x0 is not None else x,
        rayleigh_estimate=trace.rayleigh[-1],
        iterations=k,
        converged=converged,
        trace=trace,
        safeguard_activations=sum(c.rho > 1.0 for c in coeffs),
        degenerate_fallbacks=sum(c.degenerate for c in coeffs),
    )
