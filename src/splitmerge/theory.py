"""Ground-truth oracle and executable checks of the convergence theory.

The dense oracle is LAPACK's symmetric eigensolver (``np.linalg.eigh``);
above its size limit a residual-certified dominant pair comes from inverse
iteration on LAPACK's tridiagonal LDL' (``dpttrf``/``dpttrs``) for a symmetric
tridiagonal CSR operator, and from ARPACK's Lanczos
(``scipy.sparse.linalg.eigsh``) otherwise. Everything else here consumes the
dense oracle's output: square-root factors F'F = A, angle errors against the
true dominant eigenvector, the rate constant delta, per-iteration convergence
bounds, and the two surrogate verifications (dominance sampling and the
closed-form direction cross-validation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonDifferentiablePointError,
    OracleConvergenceError,
    UndefinedRatioError,
)
from .linop import (
    CsrOperator, LinearOperator, _require_symmetric, _scaled_norm, _storage, _tridiagonal_bands,
)
from .objective import _require_differentiable, hessian_vec
from .solvers import BLOCK, IterationTrace, _block_halves, _unit_u1, split_merge_step

DENSE_LIMIT_DEFAULT = 4096
REFERENCE_CERTIFY = 1e-10
# ARPACK stops at ||Au - lambda u|| <= tol * lambda by its own estimate;
# 10x below the certificate leaves margin for the estimate's error.
REFERENCE_TOL = REFERENCE_CERTIFY / 10
# ARPACK keeps ncv Lanczos vectors of length n; the default (20) holds 12
# more n-vectors than 8 does. ARPACK serves only a CSR operator above the
# dense limit that is not tridiagonal, and no benchmark workload has one, so
# no current run times ncv; BENCH_reference_tol.json timed it when the
# benchmark's tridiagonal file still took ARPACK.
REFERENCE_NCV = 8
REFERENCE_STEPS = 100   # the tridiagonal reference's cap; 1e6-row inputs take 5 to 11
PSD_EIG_CLAMP = 1e-10
RANK_TOL = 1e-12


@dataclass
class Spectrum:
    """Full eigendecomposition, eigenvalues descending, eigenvectors in columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(self.eigenvectors, dtype=float)
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be sorted descending")

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def u1(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


@dataclass
class DominantReference:
    """Residual-certified dominant eigenpair for matrices too large to decompose."""

    lambda1: float
    u1: np.ndarray
    residual: float
    matvecs: int        # products it made on the operator's counter, the certificate's included


@dataclass
class AngleError:
    """sin/cos of the angle between an iterate and the dominant eigenvector."""

    sin_theta: float
    cos_theta: float

    @property
    def tan_theta(self) -> float:
        if self.cos_theta == 0.0:
            return math.inf
        return self.sin_theta / self.cos_theta


def dense_eigendecomposition(
    op: LinearOperator, dense_limit: int = DENSE_LIMIT_DEFAULT
) -> Spectrum:
    """LAPACK eigendecomposition (``np.linalg.eigh``) of a symmetric operator.

    Eigenpairs are sorted descending. Eigenvalues in (-1e-10 * |lambda_max|, 0)
    are clamped to 0, since they are roundoff artifacts for PSD input.
    The entries are finite (``LinearOperator`` refuses a non-finite ||A||_F).
    A ``CsrOperator`` must be symmetric to 1e-12 relative, as a "general" file
    must (``AsymmetricMatrixError`` otherwise): LAPACK reads one triangle, and
    the matvec both. A ``DenseOperator`` was checked when it was built.
    """
    if op.n > dense_limit:
        raise ValueError(f"n = {op.n} exceeds the dense oracle limit {dense_limit}")
    if isinstance(op, CsrOperator):
        _require_symmetric(_storage(op), f"a CSR operator of order {op.n}")
    a = op.to_dense()
    try:
        eigs, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise OracleConvergenceError(f"LAPACK eigh failed: {exc}") from exc
    eigs = eigs[::-1].copy()
    vecs = vecs[:, ::-1]
    tiny = (eigs < 0.0) & (eigs > -PSD_EIG_CLAMP * abs(eigs[0]))
    eigs[tiny] = 0.0
    return Spectrum(eigs, vecs)


def reference_dominant_eigenpair(op: LinearOperator) -> DominantReference:
    """Dominant eigenpair by inverse iteration (tridiagonal CSR) or ARPACK, residual-certified.

    Ground-truth path for operators beyond the dense oracle limit. Its
    products count on ``op``'s counter, and ``matvecs`` says how many. An
    exactly symmetric tridiagonal CSR operator takes ``_top_tridiagonal_pair``,
    which stops once the residual it computes falls below ``REFERENCE_TOL`` =
    1e-11 * lambda; any other takes ARPACK's Lanczos (``eigsh``), which stops
    once its own estimate of the residual does. The pair is accepted
    only when the residual computed afresh meets ||Au - lambda u|| <=
    ``REFERENCE_CERTIFY`` * lambda = 1e-10 * lambda, and a tridiagonal one only
    when no eigenvalue lies above lambda + that residual + 1e-10 * lambda. By
    Davis-Kahan, the sine of u's angle to the true u1 is at most ||Au - lambda
    u|| / gap, gap = lambda1 - lambda2: ~1e-11 * lambda1 / gap at the stop,
    below ``SolverConfig``'s ~1e-8 floor on a meaningful oracle ``eps`` only
    when gap > 1e-3 * lambda1; the certificate alone guarantees 1e-10 * lambda1 / gap.
    The entries are finite (``LinearOperator`` refuses a non-finite ||A||_F).
    """
    if op.n < 2:
        raise ValueError("the dominant-pair reference needs n >= 2 (k = 1 < n)")
    before = op.matvec_count
    bands = _tridiagonal_bands(op)
    # imported here: scipy.linalg (+9 MiB RSS) and scipy.sparse.linalg serve only this path
    if bands is not None:
        name, (r, x) = "inverse-iteration", _top_tridiagonal_pair(op, *bands)
    else:
        from scipy.sparse.linalg import ArpackError, LinearOperator as ScipyOperator, eigsh
        name, v0 = "ARPACK", np.random.default_rng(0).standard_normal(op.n)
        arpack_op = ScipyOperator((op.n, op.n), matvec=op.apply, dtype=float)
        try:
            vals, vecs = eigsh(arpack_op, k=1, which="LA", v0=v0, ncv=REFERENCE_NCV,
                               tol=REFERENCE_TOL)
        except ArpackError as exc:
            raise OracleConvergenceError(f"ARPACK reference failed: {exc}") from exc
        r, x = float(vals[0]), vecs[:, 0]
    resid = _residual_norm(op.apply(x), x, r)
    if not (r > 0 and resid <= REFERENCE_CERTIFY * r):
        raise OracleConvergenceError(
            f"{name} reference residual {resid:.3e} not certified below "
            f"{REFERENCE_CERTIFY:.0e}*lambda (lambda = {r:.6g})"
        )
    if bands is not None and _shifted_factor(r + resid + REFERENCE_CERTIFY * r, *bands) is None:
        raise OracleConvergenceError(f"{name} reference lambda = {r:.6g} is not the top eigenvalue")
    return DominantReference(lambda1=r, u1=x, residual=resid, matvecs=op.matvec_count - before)


def _shifted_factor(sigma: float, diag: np.ndarray, off: np.ndarray):
    """LDL' factors of sigma*I - T, or None where not positive definite: then sigma <= lambda1."""
    from scipy.linalg.lapack import dpttrf   # its pivots see off only squared: either sign serves
    d, e, info = dpttrf(sigma - diag, off, overwrite_d=1)
    return None if info else (d, e)


def _top_tridiagonal_pair(op: LinearOperator, diag: np.ndarray, off: np.ndarray):
    """(rho, u) by inverse iteration on sigma*I - T, every shift sigma proven above lambda1.

    sigma starts above the Gershgorin bound and moves after each step down to rho + res, or
    as near to it as sigma*I - T still factors; it keeps its factor where rho + res is not
    below it. ``off`` is negated in place. Beside the bands it holds u, Ax and the factor's
    two arrays: four n-vectors, and one block.
    """
    from scipy.linalg.lapack import dpttrs
    np.negative(off, out=off)            # sigma*I - T has off-diagonal -off
    sigma = (top := _gershgorin_top(diag, off)) + 1e-8 * abs(top)
    if not sigma < math.inf or (f := _shifted_factor(sigma, diag, off)) is None:
        raise OracleConvergenceError(f"inverse-iteration reference failed at n = {op.n}")
    u = np.random.default_rng(0).standard_normal(op.n)
    for _ in range(REFERENCE_STEPS):
        u = dpttrs(*f, u, overwrite_b=1)[0]
        u /= np.linalg.norm(u)
        w = op.apply(u)
        rho = float(u @ w)
        res = _residual_norm(w, u, rho)
        w = None                         # spent: the next product may reuse its memory
        if res <= REFERENCE_TOL * abs(rho):
            return rho, u
        if sigma - (step := sigma - rho - res) < sigma:    # else sigma, and so its factor, stays
            f = None                     # one factor pair held at a time
            while (f := _shifted_factor(sigma - step, diag, off)) is None:
                step /= 2                # lambda1 lies above the failed shift sigma - step
            sigma -= step
    raise OracleConvergenceError(f"inverse-iteration reference reached residual {res:.3e} "
                                 f"in {REFERENCE_STEPS} steps at n = {op.n}")


def _gershgorin_top(diag: np.ndarray, off: np.ndarray) -> float:
    """max_i of (diag[i] + |off[i]|) + |off[i-1]|, the row bounds formed a block at a time.

    These are T's Gershgorin row bounds: sigma*I - T is strictly diagonally dominant above them.
    """
    n = diag.size
    low, high = _block_halves(n)
    buffer, top = np.empty(min(BLOCK, n)), -math.inf
    with np.errstate(over="ignore"):     # a bound past 1.8e308 is refused by the caller, with n
        for b in low + high:
            bound = buffer[:b.stop - b.start]
            np.copyto(bound, diag[b])
            below = off[b.start:min(b.stop, n - 1)]           # off[i], i < n - 1
            bound[:below.size] += np.abs(below)
            above = off[max(b.start - 1, 0):b.stop - 1]      # off[i - 1], i >= 1
            bound[bound.size - above.size:] += np.abs(above)
            top = max(top, float(bound.max()))
    return top


def _residual_norm(w: np.ndarray, u: np.ndarray, rho: float) -> float:
    """||w - rho*u||, with w - rho*u written over w a block at a time."""
    low, high = _block_halves(w.size)
    buffer = np.empty(min(BLOCK, w.size))
    for b in low + high:
        part = w[b]
        np.subtract(part, np.multiply(u[b], rho, buffer[:part.size]), part)
    return float(np.linalg.norm(w))


def square_root_factor(spectrum: Spectrum) -> np.ndarray:
    """The (r, n) array F with F'F = A, sqrt(L+) U' over the positive eigenvalues."""
    lam = spectrum.eigenvalues
    keep = lam > RANK_TOL * max(lam[0], 0.0) if lam[0] > 0 else lam > 0
    return np.sqrt(lam[keep])[:, None] * spectrum.eigenvectors[:, keep].T


def sin_theta(x: np.ndarray, u1: np.ndarray) -> AngleError:
    """Angle between x and the dominant eigenvector u1, checked and normalized as solve does."""
    x = np.asarray(x, dtype=float)
    norm = _scaled_norm(x)
    # as _unit_u1 checks u1: a nan or inf x would read as aligned or orthogonal
    if not 0.0 < norm < math.inf:
        raise ValueError(f"angle undefined for x of norm {norm} (zero or not finite)")
    cos = abs(float(_unit_u1(u1, x.size) @ x)) / norm
    cos = min(cos, 1.0)
    return AngleError(sin_theta=math.sqrt(max(0.0, 1.0 - cos * cos)), cos_theta=cos)


def compute_delta(spectrum: Spectrum, zeta: float, omega: float) -> float:
    """max_{j>=2} |(zeta + omega*lambda_j) / (zeta + omega*lambda_1)|."""
    lam = spectrum.eigenvalues
    denom = zeta + omega * lam[0]
    if denom == 0.0:
        raise UndefinedRatioError("zeta + omega*lambda1 = 0: rate ratio undefined")
    if lam.size == 1:
        return 0.0
    return float(np.max(np.abs((zeta + omega * lam[1:]) / denom)))


@dataclass
class Theorem51Bounds:
    """Per-iteration angle and Rayleigh bounds, with the certified delta."""

    delta: float
    applicable: bool            # False when delta > 1 at some iteration
    bound_sin: np.ndarray
    bound_rayleigh: np.ndarray
    delta_per_iteration: np.ndarray


def theorem51_bounds(
    spectrum: Spectrum, trace: IterationTrace, theta0: AngleError
) -> Theorem51Bounds:
    """Convergence-rate envelopes from the recorded split-merge coefficients.

    bound_sin[k]      = tan(theta0) * (lambda2/lambda1)^k * delta^k
    bound_rayleigh[k] = (lambda1 - lambda_n) * tan(theta0)^2
                        * (lambda2/lambda1)^{2k} * delta^{2k}

    with delta the max of the per-step ratios over the coefficients that
    actually produced iterates, and lambda2/lambda1 = 0 for a spectrum of
    one eigenvalue. delta > 1 only flags the bounds as not applicable; it
    is not an error.
    """
    lam = spectrum.eigenvalues
    coeffs = trace.applied_coeffs()
    deltas = np.array([compute_delta(spectrum, c.zeta, c.omega) for c in coeffs])
    delta = float(deltas.max()) if deltas.size else 0.0
    ks = np.asarray(trace.k, dtype=float)
    ratio = (lam[1] / lam[0] if lam.size > 1 else 0.0) * delta
    tan0 = theta0.tan_theta
    with np.errstate(over="ignore"):  # delta > 1 envelopes blow up to inf, harmlessly
        bound_sin = tan0 * ratio**ks
        bound_rq = (lam[0] - lam[-1]) * tan0**2 * ratio ** (2.0 * ks)
    return Theorem51Bounds(
        delta=delta,
        applicable=bool(delta <= 1.0),
        bound_sin=bound_sin,
        bound_rayleigh=bound_rq,
        delta_per_iteration=deltas,
    )


# -- surrogate machinery ------------------------------------------------------


def _factor_and_products(op: LinearOperator, x: np.ndarray):
    x = np.asarray(x, dtype=float)
    w = op.apply(x)
    _require_differentiable(op, x, w)
    quad = float(x @ w)
    if quad <= 0.0:
        raise NonDifferentiablePointError("surrogate checks need x with x'Ax > 0")
    return square_root_factor(dense_eigendecomposition(op)), w, quad


def project_direction(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Project v orthogonal to unit u and rescale into the unit ball."""
    v = np.asarray(v, dtype=float) - (float(v @ u)) * u
    norm = float(np.linalg.norm(v))
    if norm > 1.0:
        v = v / norm
    return v


def surrogate_matrix(
    factor: np.ndarray, quad: float, w: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Dense H = 2I - F'(uu' + vv')F / s + (Ax)(Ax)' / s^3, s = sqrt(x'Ax)."""
    s = math.sqrt(quad)
    n = factor.shape[1]
    fu = factor.T @ u
    fv = factor.T @ v
    return (
        2.0 * np.eye(n)
        - (np.outer(fu, fu) + np.outer(fv, fv)) / s
        + np.outer(w, w) / s**3
    )


def hessian_matrix(op: LinearOperator, x: np.ndarray) -> np.ndarray:
    """Dense objective Hessian for small-n verification (via hessian_vec)."""
    n = op.n
    cols = [hessian_vec(op, x, e) for e in np.eye(n)]
    return np.column_stack(cols)


def verify_surrogate_dominance(
    op: LinearOperator, x: np.ndarray, v: np.ndarray, samples: int, rng=None
) -> bool:
    """Sampled check of 2||d||^2 >= d'Hd >= d'(hess f)d at x.

    u is fixed to Fx/||Fx||; v is projected orthogonal to u and rescaled into
    the unit ball before the check, matching the surrogate's admissible set.
    """
    factor, w, quad = _factor_and_products(op, x)
    fx = factor @ x
    u = fx / np.linalg.norm(fx)
    v = project_direction(np.asarray(v, dtype=float), u)
    h = surrogate_matrix(factor, quad, w, u, v)
    rng = np.random.default_rng(rng)
    for _ in range(samples):
        d = rng.standard_normal(op.n)
        d /= np.linalg.norm(d)
        quad_h = float(d @ h @ d)
        quad_hess = float(d @ hessian_vec(op, x, d))
        if quad_h < quad_hess - 1e-9:
            return False
        if 2.0 * float(d @ d) < quad_h - 1e-9:
            return False
    return True


@dataclass
class VhatCheck:
    passed: bool
    skipped: bool
    vhat: np.ndarray | None = None
    explicit_next: np.ndarray | None = None
    merged_next: np.ndarray | None = None


def verify_vhat_formula(op: LinearOperator, x: np.ndarray, rho: float) -> VhatCheck:
    """Cross-validate the merged update against the explicit-factor form.

    Builds F, forms the optimal direction
    vhat = (FF'Fx - c*Fx) / (sqrt(rho) * ||FF'Fx - c*Fx||), c = x'A^2x / x'Ax,
    checks vhat ' Fx ~ 0 and ||vhat||^2 = 1/rho, then compares
    x - H^{-1} grad f (explicit rank-1 inverse) with the two-matvec merged
    step. Degenerate x (no orthogonal component) is skipped, not failed.
    """
    factor, w, quad = _factor_and_products(op, x)
    x = np.asarray(x, dtype=float)
    fx = factor @ x
    z = op.apply(w)
    c = float(w @ w) / quad
    g_split = factor @ (factor.T @ fx) - c * fx   # FF'Fx - c*Fx = F(Ax - c*x)
    norm_g = float(np.linalg.norm(g_split))
    # ||F(Ax - c*x)||^2 = x'A^3x - (x'A^2x)^2 / x'Ax, the split-merge denominator
    if norm_g * norm_g <= 1e-14 * float(z @ z):
        return VhatCheck(passed=True, skipped=True)

    vhat = g_split / (math.sqrt(rho) * norm_g)
    s = math.sqrt(quad)
    if abs(float(vhat @ fx)) > 1e-10 or abs(float(vhat @ vhat) - 1.0 / rho) > 1e-10:
        return VhatCheck(passed=False, skipped=False, vhat=vhat)

    # explicit update: Ax/(2s) + ((F'v)'Ax / (4*sigma*quad)) * F'v
    fv = factor.T @ vhat
    sigma = 1.0 - float(fv @ fv) / (2.0 * s)
    explicit = w / (2.0 * s) + (float(fv @ w) / (4.0 * sigma * quad)) * fv

    merged = split_merge_step(op, x, rho)[0]
    rel = float(np.linalg.norm(explicit - merged)) / float(np.linalg.norm(merged))
    return VhatCheck(
        passed=rel <= 1e-8,
        skipped=False,
        vhat=vhat,
        explicit_next=explicit,
        merged_next=merged,
    )
