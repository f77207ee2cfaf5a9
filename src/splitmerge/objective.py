"""The difference-formulation objective and its derivatives.

f(x) = ||x||^2 - sqrt(x'Ax) for a symmetric PSD operator A. Its global
minimizers are scaled dominant eigenvectors with minimum value -lambda1/4,
and every stationary point is an eigenvector with eigenvalue
lambda(x) = 2*sqrt(x'Ax). All functions here are pure and matrix-free.
"""

from __future__ import annotations

import numpy as np

from .errors import NonDifferentiablePointError, PsdViolationError
from .linop import LinearOperator

QUAD_CLAMP_TOL = 1e-10
DIFFERENTIABLE_TOL = 1e-14


def _clamped_quad(op: LinearOperator, x: np.ndarray, w: np.ndarray) -> float:
    """x'Ax with tiny negative roundoff clamped to 0; genuine negatives raise."""
    quad = float(x @ w)
    if quad < 0.0:
        floor = QUAD_CLAMP_TOL * op.frobenius_norm * float(x @ x)
        if quad < -floor:
            raise PsdViolationError(
                f"x'Ax = {quad:.6e} below the PSD roundoff floor -{floor:.6e}"
            )
        quad = 0.0
    return quad


def eval_f(op: LinearOperator, x: np.ndarray) -> float:
    """Objective value ||x||^2 - sqrt(x'Ax). One matvec."""
    x = np.asarray(x, dtype=float)
    w = op.apply(x)
    quad = _clamped_quad(op, x, w)
    return float(x @ x) - float(np.sqrt(quad))


def eval_grad(op: LinearOperator, x: np.ndarray) -> np.ndarray:
    """Gradient 2x - Ax/sqrt(x'Ax), defined where Ax != 0. One matvec."""
    x = np.asarray(x, dtype=float)
    w = op.apply(x)
    _require_differentiable(op, x, w)
    quad = _clamped_quad(op, x, w)
    return 2.0 * x - w / np.sqrt(quad)


def hessian_vec(op: LinearOperator, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Hessian-vector product 2d - Ad/s + Ax*(Ax'd)/s^3, s = sqrt(x'Ax).

    Two matvecs; the Hessian itself is never materialized.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    w = op.apply(x)
    _require_differentiable(op, x, w)
    quad = _clamped_quad(op, x, w)
    s = np.sqrt(quad)
    ad = op.apply(d)
    return 2.0 * d - ad / s + w * (float(w @ d) / s**3)


def rayleigh(op: LinearOperator, x: np.ndarray) -> float:
    """Rayleigh quotient x'Ax / x'x."""
    x = np.asarray(x, dtype=float)
    xtx = float(x @ x)
    if xtx == 0.0:
        raise ValueError("Rayleigh quotient undefined for the zero vector")
    return float(x @ op.apply(x)) / xtx


def _require_differentiable(op: LinearOperator, x: np.ndarray, w: np.ndarray) -> None:
    norm_w = float(np.linalg.norm(w))
    if norm_w <= DIFFERENTIABLE_TOL * op.frobenius_norm * float(np.linalg.norm(x)):
        raise NonDifferentiablePointError(
            "Ax = 0 within tolerance: the objective is not differentiable here"
        )
