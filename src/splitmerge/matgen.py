"""Synthetic PSD matrices with a prescribed dominant eigenvalue and gap.

A = U diag(spec) U' with U Haar-distributed via QR of a standard-normal
matrix (R-diagonal signs fixed so the draw is deterministic for a given
generator), spec = (lambda1, lambda1 - gap, random decreasing tail). The
exact spectrum used is returned alongside the operator so benchmarks get
ground truth for free.

The RNG is numpy's default_rng (PCG64): named, seedable, and portable, so
identical seeds reproduce identical matrices everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import DenseOperator, LinearOperator
from .theory import Spectrum

TAIL_SEPARATION = 1e-12
_REDRAW_CAP = 1000


@dataclass
class SyntheticSpec:
    """Generator parameters: dimension, eigengap, dominant eigenvalue, seed."""

    n: int
    gap: float
    seed: int = 0
    lambda1: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not 0.0 < self.gap < self.lambda1:
            raise ValueError(f"gap must lie in (0, lambda1), got {self.gap}")


def generate(spec: SyntheticSpec) -> tuple[LinearOperator, Spectrum]:
    """Draw (operator, exact spectrum) for the given spec."""
    rng = np.random.default_rng(spec.seed)
    m = rng.standard_normal((spec.n, spec.n))
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    u = q * signs  # R-diagonal forced positive: deterministic orientation

    lam2 = spec.lambda1 - spec.gap
    eigenvalues = np.array([spec.lambda1, lam2])
    if spec.n > 2:
        for _ in range(_REDRAW_CAP):
            tail = np.sort(rng.uniform(0.0, lam2, spec.n - 2))[::-1]
            below = np.concatenate(([lam2], tail))
            if np.all(np.diff(below) <= -TAIL_SEPARATION) and tail[-1] > 0.0:
                eigenvalues = np.concatenate(([spec.lambda1], below))
                break
        else:
            raise RuntimeError("could not draw a separated spectrum tail")

    a = (u * eigenvalues) @ u.T
    a = (a + a.T) * 0.5
    return DenseOperator(a), Spectrum(eigenvalues.copy(), u)
