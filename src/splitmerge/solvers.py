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


class IterationKernel:
    """The arithmetic of one iteration, on buffers reused across iterations.

    The caller takes the matvecs (always through ``op.apply``) and computes
    x'Ax; the kernel forms every other dot product once and writes each
    full-length intermediate into a preallocated buffer, so the operator's
    own outputs are the only vectors an iteration allocates. Every update
    writes the next iterate into ``out`` and returns it: a caller that keeps
    iterating must give the kernel a fresh ``out`` (the driver hands back
    the previous iterate's buffer), and the public step functions use a
    fresh kernel per call so what they return is the caller's.

    At small n the loop costs more than its arithmetic, so every call here
    takes numpy's cheapest path: a 1-D reduction is ``a.dot(b)``, never
    ``a @ b``, and a ufunc gets its output buffer positionally, never as
    ``out=``. Both forms give the same bits. With one BLAS thread on a
    2-core Xeon VM at n = 128 (medians of interleaved ``timeit`` runs,
    BENCH_small_loop.json), ``x @ w`` costs 1.5-1.6 us against 0.7-0.9 us
    for ``x.dot(w)``, and ``np.multiply(x, 2.0, out=t)`` 1.20-1.25 us
    against 1.09-1.20 us for ``np.multiply(x, 2.0, t)``; a power iteration
    makes five reductions and a split-merge iteration nine.
    """

    def __init__(self, n: int):
        self.tmp = np.empty(n)     # w - r*x, then g = z - c*w, then a step's second term
        self.out = np.empty(n)     # the next iterate
        self.prev = np.zeros(n)    # power_momentum: previous iterate, scaled with the current

    def diagnostics(self, x, w, quad: float, u1) -> tuple[float, float, float, float]:
        """(x'x, Rayleigh quotient r, ||Ax - r x|| / ||x||, sin theta to unit u1 or nan)."""
        xtx = float(x.dot(x))
        r = quad / xtx
        resid_vec = np.multiply(x, r, self.tmp)
        np.subtract(w, resid_vec, resid_vec)
        resid = math.sqrt(float(resid_vec.dot(resid_vec))) / math.sqrt(xtx)
        sin_t = math.nan
        if u1 is not None:
            cos_t = abs(float(u1.dot(x))) / math.sqrt(xtx)
            sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
        return xtx, r, resid, sin_t

    def split_merge_coeffs(
        self, w: np.ndarray, z: np.ndarray, quad: float, rho_policy: str | float
    ) -> SplitMergeCoefficients:
        """Split-merge scalars from w = Ax, z = A^2x and quad = x'Ax."""
        if isinstance(rho_policy, str):
            if rho_policy not in RHO_POLICIES:
                raise ValueError(f"unknown rho policy {rho_policy!r}")
        else:
            rho = _constant_rho(rho_policy)
        if quad <= 0.0:
            raise NonDifferentiablePointError("split-merge coefficients need x'Ax > 0")
        wtw = float(w.dot(w))        # x'A^2x by symmetry
        mu = 2.0 * math.sqrt(quad)

        c = wtw / quad
        g = np.multiply(w, c, self.tmp)
        np.subtract(z, g, g)         # orthogonal residual of A^2x against Ax
        num = float(g.dot(g))        # ||A^2x - c*Ax||^2
        den = float(g.dot(w))        # x'A^3x - (x'A^2x)^2 / x'Ax

        if den <= DEGENERATE_FACTOR * float(z.dot(z)):
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

    def power(self, w: np.ndarray) -> np.ndarray:
        """Ax / ||Ax||."""
        norm = math.sqrt(float(w.dot(w)))
        if norm < 1e-300:
            raise BreakdownError("power step broke down: ||Ax|| ~ 0")
        return np.divide(w, norm, self.out)

    def gd(self, x: np.ndarray, w: np.ndarray, quad: float, alpha: float) -> np.ndarray:
        """(1 - 2*alpha)*x + alpha*Ax/sqrt(x'Ax)."""
        if quad <= 0.0:
            raise NonDifferentiablePointError("gd step at a point with x'Ax <= 0")
        nxt = np.multiply(x, 1.0 - 2.0 * alpha, self.out)
        step = np.multiply(w, alpha / math.sqrt(quad), self.tmp)
        return np.add(nxt, step, nxt)

    def momentum(self, x: np.ndarray, w: np.ndarray, beta: float) -> np.ndarray:
        """y = Ax - beta*prev; returns y/||y|| and sets prev to x/||y||."""
        y = np.multiply(self.prev, beta, self.tmp)
        np.subtract(w, y, y)
        norm = math.sqrt(float(y.dot(y)))
        if norm < 1e-300:
            raise BreakdownError("momentum step broke down: ||Ax - beta*x_prev|| ~ 0")
        np.divide(x, norm, self.prev)
        return np.divide(y, norm, self.out)

    def split_merge(self, w: np.ndarray, z, coeffs: SplitMergeCoefficients) -> np.ndarray:
        """zeta*Ax + omega*A^2x from w = Ax and z = A^2x (unused when degenerate)."""
        nxt = np.multiply(w, coeffs.zeta, self.out)
        if not coeffs.degenerate:
            np.add(nxt, np.multiply(z, coeffs.omega, self.tmp), nxt)
        norm = math.sqrt(float(nxt.dot(nxt)))
        if not NORM_GUARD[0] <= norm <= NORM_GUARD[1]:
            raise OverflowGuardError(f"iterate norm {norm:.3e} outside {NORM_GUARD}")
        return nxt


# -- single steps (public contract: each does its own matvecs) ---------------


def power_step(op: LinearOperator, x: np.ndarray) -> np.ndarray:
    """Ax / ||Ax||. One matvec."""
    return IterationKernel(op.n).power(op.apply(np.asarray(x, dtype=float)))


def gd_step(op: LinearOperator, x: np.ndarray, alpha: float) -> np.ndarray:
    """(1 - 2*alpha)*x + alpha*Ax/sqrt(x'Ax), unnormalized. One matvec."""
    x = np.ascontiguousarray(x, dtype=float)   # BLAS ddot sums a strided x in another order
    w = op.apply(x)
    return IterationKernel(op.n).gd(x, w, float(x.dot(w)), alpha)


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
    coeffs = IterationKernel(op.n).split_merge_coeffs(w, z, float(x.dot(w)), rho_policy)
    coeffs.w, coeffs.z = w, z
    return coeffs


def split_merge_step(
    op: LinearOperator, x: np.ndarray, coeffs: SplitMergeCoefficients
) -> np.ndarray:
    """zeta*Ax + omega*A^2x using the products cached in ``coeffs``. No matvecs."""
    if coeffs.w is None or (coeffs.z is None and not coeffs.degenerate):
        raise ValueError("coefficients carry no cached products; compute them at this x")
    return IterationKernel(op.n).split_merge(coeffs.w, coeffs.z, coeffs)


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
    kernel = IterationKernel(op.n)
    trace = IterationTrace(method=config.method, coeffs=[] if is_sm else None)
    safeguards = fallbacks = 0

    mv0 = op.matvec_count
    t0 = time.perf_counter()
    converged = False
    iterations = 0

    for k in range(config.max_iter + 1):
        w = op.apply(x)
        z = op.apply(w) if is_sm else None

        quad = float(x.dot(w))
        if not 0.0 < quad < math.inf:
            raise NonDifferentiablePointError(f"x'Ax = {quad:.3e} at iteration {k}")
        xtx, r, resid, sin_t = kernel.diagnostics(x, w, quad, u1)
        s = math.sqrt(quad)

        if is_sm:
            coeffs = kernel.split_merge_coeffs(w, z, quad, config.rho_policy)
            trace.coeffs.append(coeffs)
            safeguards += coeffs.rho > 1.0
            fallbacks += coeffs.degenerate

        trace.sin_theta.append(sin_t)
        trace.f_value.append(xtx - s)
        trace.rayleigh.append(r)
        trace.lambda_of_x.append(2.0 * s)
        trace.residual.append(resid)
        trace.matvecs.append(op.matvec_count - mv0)
        trace.seconds.append(time.perf_counter() - t0)

        iterations = k
        if config.stop_mode == "oracle":
            stop = sin_t <= config.eps
        else:
            stop = resid / r <= config.residual_tol
        if stop:
            converged = True
            break
        if k == config.max_iter:
            break

        if config.method == "power":
            nxt = kernel.power(w)
        elif config.method == "gd_difference":
            nxt = kernel.gd(x, w, quad, config.alpha)
        elif config.method == "power_momentum":
            nxt = kernel.momentum(x, w, config.beta)
        else:
            nxt = kernel.split_merge(w, z, coeffs)
        x, kernel.out = nxt, x

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
