"""Iterative dominant-eigenvector solvers sharing one driver and one kernel.

Methods: classical power iteration, gradient descent on the difference
objective with step alpha in (0,1), power iteration with momentum, and the
split-merge update x+ = zeta*Ax + omega*A^2x whose scalars are recomputed
each iteration from two matvecs and a handful of dot products.

None of split_merge / gd_difference normalize their iterates: the update
dynamics keep ||x|| near sqrt(lambda1)/2 and the curvature scalar sigma is
not scale-invariant, so normalizing would change the trajectory. Overflow
guards stand in for normalization.

All per-iteration arithmetic lives in :class:`IterationKernel`, which the
driver, the public step functions and the theory checks share.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from itertools import repeat
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
from .linop import LinearOperator

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
        if isinstance(self.rho_policy, str) and self.rho_policy not in RHO_POLICIES:
            raise ValueError(f"unknown rho_policy {self.rho_policy!r}")
        if not isinstance(self.rho_policy, str):
            _constant_rho(self.rho_policy)
        if self.method == "gd_difference" and not 0.0 < self.alpha < 1.0:
            # alpha*L+ in (0,2) with L+ = 2 restricts the step to (0,1)
            raise ValueError(f"gd_difference needs alpha in (0,1), got {self.alpha}")
        # negated comparisons so that nan fails them too; an infinite
        # tolerance would stop any start as converged at iteration 0
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.beta >= 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not 0.0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be finite and positive, got {self.residual_tol}")


def _constant_rho(rho_policy) -> float:
    rho = float(rho_policy)
    if not 0.0 < rho < math.inf:
        raise ValueError(f"a constant rho must be finite and positive, got {rho_policy!r}")
    return rho


@dataclass
class SplitMergeCoefficients:
    """Per-iteration scalars of the split-merge update.

    Only the public :func:`split_merge_coeffs` sets ``w`` and ``z``, the Ax
    and A^2x it computed, so that :func:`split_merge_step` costs no matvec;
    the entries of ``trace.coeffs`` carry scalars only. ``degenerate`` marks
    an iterate that is numerically an eigenvector, in which case the
    coefficients describe the pure DCA step (omega = 0).
    """

    mu: float
    gamma: float
    sigma: float
    zeta: float
    omega: float
    rho: float
    degenerate: bool
    w: np.ndarray | None = None
    z: np.ndarray | None = None

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
    lambda_of_x: array = _column("d")
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
    x: np.ndarray
    x_unit: np.ndarray
    lambda_estimate: float      # lambda(x_K) = 2*sqrt(x'Ax)
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
    first iterate inside the differentiable set.
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

# Elements per block of the kernel's passes (measured table in IterationKernel).
BLOCK = 32768
BREAKDOWN_NORM = 1e-300    # power and momentum steps: a norm below this broke down


def _reductions(x, w, u1, with_wtw):
    """Pass 1: (x'Ax, x'x, ||Ax||^2, u1'x), 0.0 for a term not asked for."""
    return (
        0.0 if x is None else float(x.dot(w)),
        0.0 if x is None else float(x.dot(x)),
        float(w.dot(w)) if with_wtw else 0.0,
        0.0 if u1 is None else float(u1.dot(x)),
    )


def _vectors(x, w, z, scratch, power, r, quad, wtw, norm):
    """Pass 2: (||Ax - r*x||^2, g'g, g'Ax, ||A^2x||^2); with ``power``, Ax/norm over w.

    g = A^2x - c*Ax with c = x'A^2x / x'Ax is formed explicitly, not through
    its cancelling expansion. The residual term needs x, the other three
    need z; without them they read 0.0. A norm below ``BREAKDOWN_NORM``
    writes no update (the power step then raises).
    """
    rr = gg = gw = zz = 0.0
    if x is not None:
        res = np.multiply(x, r, scratch)
        np.subtract(w, res, res)
        rr = float(res.dot(res))
    if z is not None:
        g = np.multiply(w, wtw / quad, scratch)
        np.subtract(z, g, g)         # orthogonal residual of A^2x against Ax
        gg = float(g.dot(g))         # ||A^2x - c*Ax||^2
        gw = float(g.dot(w))         # x'A^3x - (x'A^2x)^2 / x'Ax
        zz = float(z.dot(z))
    if power and norm >= BREAKDOWN_NORM:
        np.divide(w, norm, w)        # after the block's last read of w
    return rr, gg, gw, zz


def _split_merge_update(w, z, scratch, zeta, omega):
    """zeta*Ax (+ omega*A^2x unless z is None) over w; returns its squared norm."""
    nxt = np.multiply(w, zeta, w)
    if z is not None:
        np.add(nxt, np.multiply(z, omega, scratch), nxt)
    return (float(nxt.dot(nxt)),)


def _gd_update(x, w, scratch, keep, step):
    """keep*x + step*Ax over w."""
    step_term = np.multiply(w, step, scratch)
    nxt = np.multiply(x, keep, w)
    np.add(nxt, step_term, nxt)
    return ()


def _momentum_direction(prev, w, scratch, beta):
    """y = Ax - beta*prev over w; returns ||y||^2."""
    np.subtract(w, np.multiply(prev, beta, scratch), w)
    return (float(w.dot(w)),)


def _momentum_rescale(x, y, prev, norm):
    np.divide(x, norm, prev)
    np.divide(y, norm, y)
    return ()


def _blockwise(body, blocks):
    """``body`` run block by block, its sums added in block order; ``body``
    itself when ``blocks`` is None (one block covers the vectors).

    An array argument is sliced per block, a list is taken as one argument
    per block already (the kernel's block scratch), and anything else is
    passed to every block as it is.
    """
    if blocks is None:
        return body

    def run(*args):
        columns = [
            a if isinstance(a, list) else [a[b] for b in blocks] if isinstance(a, np.ndarray)
            else repeat(a)
            for a in args
        ]
        parts = map(body, *columns)
        sums = next(parts)
        for part in parts:
            sums = list(map(add, sums, part))
        return sums

    return run


class IterationKernel:
    """The arithmetic of one iteration, in a few passes over cache-sized blocks.

    The caller takes the matvecs (always through ``op.apply``); the kernel
    does the rest in passes that each read their operands once:

    1. ``reductions``: x'Ax, x'x, ||Ax||^2 and u1'x;
    2. ``vectors``: the residual Ax - r*x with its squared norm, the explicit
       g = A^2x - c*Ax with g'g and g'Ax and ||A^2x||^2 (split-merge), and
       the power update Ax/||Ax||;
    3. the update (:meth:`split_merge`, :meth:`gd`, :meth:`momentum`).

    Every update writes the next iterate over Ax, the operator's fresh
    output, and returns that array: a block already read into cache, so the
    write costs no read of a cold destination, and no buffer is swapped
    between iterations. Ax and A^2x must not be used after the update.

    Each pass walks the vectors in blocks of ``BLOCK`` elements, so a block's
    operands stay in L2 across the pass's numpy calls instead of streaming
    from L3 once per call, and its dot products are summed block by block in
    block order. At n <= BLOCK there is one block, and each pass is its
    block function called on the whole, unsliced vectors: the same numpy
    calls on the same operands in the same order as a whole-vector
    computation, so every value is bit-identical to it, and no view or
    wrapper call is paid per pass at small n, where the loop costs more than
    its arithmetic. Above BLOCK the sums are taken in another order and
    trajectories move at round-off.

    BLOCK = 32768 elements is 256 KiB per operand, so a pass's up to five
    operands fit the 2 MiB L2 of the machine it was measured on. Per-iteration
    solve time at n = 1e6 (CSR tridiagonal, one BLAS thread, 2-core Xeon VM,
    medians of 8 interleaved rounds; "whole" is one block of n, the
    whole-vector order; BENCH_kernel_blocks.json)::

        block            8192   16384   32768   65536  131072   whole
        power  [ms]      7.77    7.29    7.06    7.05    7.49    8.46
        split-merge     14.36   13.38   13.00   13.23   14.56   16.90

    32768 and 65536 tie for power there; in a second set of 14 rounds over
    16384, 32768 and 65536, 32768 was fastest for both methods (7.03 and
    13.05 ms against 7.08 and 13.12 at 65536). Smaller blocks pay more
    Python per element, larger ones spill L2.

    Throwaway vectors (the residual, g, a step's second term) go into
    ``scratch``: one full-length buffer at one block, one block-sized,
    cache-resident buffer above (a full-length one would be written back to
    memory, ~0.9 ms a pass at n = 1e6). So the operator's own outputs are
    the only vectors an iteration allocates.

    Every call takes numpy's cheapest path: a 1-D reduction is
    ``a.dot(b)``, never ``a @ b``, and a ufunc gets its output buffer
    positionally, never as ``out=``. Both forms give the same bits
    (BENCH_small_loop.json).
    """

    def __init__(self, n: int):
        self.prev = np.zeros(n)    # power_momentum: previous iterate, scaled with the current
        if n <= BLOCK:
            blocks = None
            self.scratch = np.empty(n)
        else:
            blocks = [slice(i, min(i + BLOCK, n)) for i in range(0, n, BLOCK)]
            buffer = np.empty(BLOCK)    # the scratch of every block, so it stays in cache
            self.scratch = [buffer[: b.stop - b.start] for b in blocks]
        self.reductions = _blockwise(_reductions, blocks)
        self.vectors = _blockwise(_vectors, blocks)
        self._split_merge = _blockwise(_split_merge_update, blocks)
        self._gd = _blockwise(_gd_update, blocks)
        self._momentum_direction = _blockwise(_momentum_direction, blocks)
        self._momentum_rescale = _blockwise(_momentum_rescale, blocks)

    def split_merge_coeffs(
        self, w: np.ndarray, z: np.ndarray, quad: float, rho_policy: str | float
    ) -> SplitMergeCoefficients:
        """Split-merge scalars from w = Ax, z = A^2x and quad = x'Ax."""
        if isinstance(rho_policy, str):
            if rho_policy not in RHO_POLICIES:
                raise ValueError(f"unknown rho policy {rho_policy!r}")
        else:
            _constant_rho(rho_policy)
        if quad <= 0.0:
            raise NonDifferentiablePointError("split-merge coefficients need x'Ax > 0")
        wtw = self.reductions(None, w, None, True)[2]
        _, num, den, zz = self.vectors(None, w, z, self.scratch, False, 0.0, quad, wtw, 0.0)
        return coefficients_from_sums(quad, wtw, num, den, zz, rho_policy)

    def power(self, w: np.ndarray, norm: float | None = None) -> np.ndarray:
        """Ax / ||Ax||, written over w = Ax and returned.

        The driver passes norm = ||Ax|| once ``vectors`` has written it.
        """
        if norm is None:
            norm = math.sqrt(self.reductions(None, w, None, True)[2])
            self.vectors(None, w, None, self.scratch, True, 0.0, 0.0, 0.0, norm)
        if norm < BREAKDOWN_NORM:
            raise BreakdownError("power step broke down: ||Ax|| ~ 0")
        return w

    def gd(self, x: np.ndarray, w: np.ndarray, quad: float, alpha: float) -> np.ndarray:
        """(1 - 2*alpha)*x + alpha*Ax/sqrt(x'Ax), written over w = Ax."""
        if quad <= 0.0:
            raise NonDifferentiablePointError("gd step at a point with x'Ax <= 0")
        self._gd(x, w, self.scratch, 1.0 - 2.0 * alpha, alpha / math.sqrt(quad))
        return w

    def momentum(self, x: np.ndarray, w: np.ndarray, beta: float) -> np.ndarray:
        """y = Ax - beta*prev; returns y/||y||, written over w = Ax, and sets prev to x/||y||."""
        norm = math.sqrt(self._momentum_direction(self.prev, w, self.scratch, beta)[0])
        if norm < BREAKDOWN_NORM:
            raise BreakdownError("momentum step broke down: ||Ax - beta*x_prev|| ~ 0")
        self._momentum_rescale(x, w, self.prev, norm)
        return w

    def split_merge(self, w: np.ndarray, z, coeffs: SplitMergeCoefficients) -> np.ndarray:
        """zeta*Ax + omega*A^2x, written over w = Ax (z = A^2x is unused when degenerate)."""
        z = None if coeffs.degenerate else z
        norm = math.sqrt(self._split_merge(w, z, self.scratch, coeffs.zeta, coeffs.omega)[0])
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


def power_step(op: LinearOperator, x: np.ndarray) -> np.ndarray:
    """Ax / ||Ax||. One matvec."""
    return IterationKernel(op.n).power(op.apply(np.asarray(x, dtype=float)))


def gd_step(op: LinearOperator, x: np.ndarray, alpha: float) -> np.ndarray:
    """(1 - 2*alpha)*x + alpha*Ax/sqrt(x'Ax), unnormalized. One matvec."""
    x = np.ascontiguousarray(x, dtype=float)   # BLAS ddot sums a strided x in another order
    w = op.apply(x)
    kernel = IterationKernel(op.n)
    return kernel.gd(x, w, kernel.reductions(x, w, None, False)[0], alpha)


def power_momentum_step(
    op: LinearOperator, x_curr: np.ndarray, x_prev: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """y = A x_curr - beta x_prev; returns (y/||y||, x_curr/||y||).

    Scaling the previous iterate by the same 1/||y|| keeps the momentum
    recursion equivalent to the unnormalized scheme, so beta retains its
    meaning across iterations.
    """
    x_curr = np.asarray(x_curr, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    if x_prev.shape != (op.n,):
        raise DimensionMismatchError(
            f"expected x_prev of length {op.n}, got shape {x_prev.shape}"
        )
    w = op.apply(x_curr)
    kernel = IterationKernel(op.n)
    kernel.prev[:] = x_prev
    return kernel.momentum(x_curr, w, beta), kernel.prev


def split_merge_coeffs(
    op: LinearOperator, x: np.ndarray, rho_policy: str | float = "fixed_one_with_safeguard"
) -> SplitMergeCoefficients:
    """Split-merge scalars at x. Two matvecs; products cached on the result."""
    x = np.ascontiguousarray(x, dtype=float)   # BLAS ddot sums a strided x in another order
    w = op.apply(x)
    z = op.apply(w)
    kernel = IterationKernel(op.n)
    coeffs = kernel.split_merge_coeffs(w, z, kernel.reductions(x, w, None, False)[0], rho_policy)
    coeffs.w, coeffs.z = w, z
    return coeffs


def split_merge_step(
    op: LinearOperator, x: np.ndarray, coeffs: SplitMergeCoefficients
) -> np.ndarray:
    """zeta*Ax + omega*A^2x using the products cached in ``coeffs``. No matvecs."""
    if coeffs.w is None or (coeffs.z is None and not coeffs.degenerate):
        raise ValueError("coefficients carry no cached products; compute them at this x")
    # the update is written over its Ax: leave the cached product as it is
    return IterationKernel(op.n).split_merge(coeffs.w.copy(), coeffs.z, coeffs)


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
    advances by exactly the method's per-iteration cost. Memory is O(n) plus
    a few scalars per iteration.
    """
    u1 = None
    if ground_truth is not None:
        u1 = np.asarray(ground_truth.u1, dtype=float)
        if u1.shape != (op.n,):
            raise DimensionMismatchError(
                f"expected ground truth u1 of length {op.n}, got shape {u1.shape}"
            )
        norm_u1 = float(np.linalg.norm(u1))
        # negated so that a nan norm fails too: sin theta against nan reads 0
        if not 0.0 < norm_u1 < math.inf:
            raise ValueError(f"ground truth u1 must be finite and nonzero, got norm {norm_u1}")
        u1 = u1 / norm_u1
    if config.stop_mode == "oracle" and u1 is None:
        raise ValueError("oracle stop mode requires ground truth")

    if x0 is None:
        x = init_vector(op.n, config.seed, op)
    else:
        x = np.asarray(x0, dtype=float).copy()

    is_sm = config.method == "split_merge"
    is_power = config.method == "power"
    with_wtw = is_sm or is_power     # ||Ax||^2: split-merge's c, power's norm
    kernel = IterationKernel(op.n)
    scratch, norm = kernel.scratch, 0.0
    oracle = config.stop_mode == "oracle"
    trace = IterationTrace(method=config.method, coeffs=[] if is_sm else None)
    safeguards = fallbacks = 0

    # the trace columns' appends, bound once: attribute lookups count at small n
    columns = (trace.sin_theta, trace.f_value, trace.rayleigh, trace.lambda_of_x,
               trace.residual, trace.matvecs, trace.seconds)
    add_sin, add_f, add_r, add_lambda, add_resid, add_mv, add_s = (c.append for c in columns)
    clock = time.perf_counter
    mv0 = op.matvec_count
    t0 = clock()
    converged = False
    iterations = 0

    for k in range(config.max_iter + 1):
        w = op.apply(x)
        z = op.apply(w) if is_sm else None

        quad, xtx, wtw, u1x = kernel.reductions(x, w, u1, with_wtw)
        if not 0.0 < quad < math.inf:
            raise NonDifferentiablePointError(f"x'Ax = {quad:.3e} at iteration {k}")
        r = quad / xtx
        if is_power:     # pass 2 also writes the power update
            norm = math.sqrt(wtw)
        rr, num, den, zz = kernel.vectors(x, w, z, scratch, is_power, r, quad, wtw, norm)
        root_xtx = math.sqrt(xtx)
        resid = math.sqrt(rr) / root_xtx
        sin_t = math.nan
        if u1 is not None:
            cos_t = abs(u1x) / root_xtx
            sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
        s = math.sqrt(quad)

        if is_sm:
            coeffs = coefficients_from_sums(quad, wtw, num, den, zz, config.rho_policy)
            trace.coeffs.append(coeffs)
            safeguards += coeffs.rho > 1.0
            fallbacks += coeffs.degenerate

        add_sin(sin_t)
        add_f(xtx - s)
        add_r(r)
        add_lambda(2.0 * s)
        add_resid(resid)
        add_mv(op.matvec_count - mv0)
        add_s(clock() - t0)

        iterations = k
        if oracle:
            stop = sin_t <= config.eps
        else:
            stop = resid / r <= config.residual_tol
        if stop:
            converged = True
            break
        if k == config.max_iter:
            break

        if is_power:
            x = kernel.power(w, norm)
        elif config.method == "gd_difference":
            x = kernel.gd(x, w, quad, config.alpha)
        elif config.method == "power_momentum":
            x = kernel.momentum(x, w, config.beta)
        else:
            x = kernel.split_merge(w, z, coeffs)

    norm_x = float(np.linalg.norm(x))
    return SolveResult(
        x=x,
        x_unit=x / norm_x,
        lambda_estimate=trace.lambda_of_x[-1],
        rayleigh_estimate=trace.rayleigh[-1],
        iterations=iterations,
        converged=converged,
        trace=trace,
        safeguard_activations=safeguards,
        degenerate_fallbacks=fallbacks,
    )
