"""Synthetic PSD matrices with dominant eigenvalue 1 and a prescribed gap.

A = U diag(spec) U' with U Haar-distributed via QR of a standard-normal
matrix (R-diagonal signs fixed so the draw is deterministic for a given
generator), spec = (1, 1 - gap, random decreasing tail), as the paper's
synthetic protocol fixes lambda1 = 1. The
exact spectrum used is returned alongside the operator so benchmarks get
ground truth for free.

The RNG is numpy's default_rng (PCG64): named, seedable, and portable, so
identical seeds draw identical Gaussians everywhere; the matrix built from
them repeats bit for bit under the same BLAS build and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .linop import DenseOperator, LinearOperator
from .theory import Spectrum

TAIL_SEPARATION = 1e-12
_REDRAW_CAP = 1000


@dataclass
class SyntheticSpec:
    """Generator parameters: dimension, eigengap below lambda1 = 1, seed."""

    n: int
    gap: float
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        # below 1 - gap, n - 2 tail eigenvalues must fit TAIL_SEPARATION apart and above 0
        if not TAIL_SEPARATION <= self.gap < 1.0 - (self.n - 2) * TAIL_SEPARATION:
            raise ValueError(f"gap must lie in [{TAIL_SEPARATION:g}, 1 - (n - 2) * "
                             f"{TAIL_SEPARATION:g}) with n = {self.n}, got {self.gap}")


def generate(spec: SyntheticSpec) -> tuple[LinearOperator, Spectrum]:
    """Draw (operator, exact spectrum) for the given spec.

    The stages work in place, so the peak holds three n x n arrays, the two
    returned included (24.1 MiB traced at n = 1024). scipy's LAPACK QR
    factors the Gaussian over its own Fortran copy, as numpy's ``qr`` cannot.
    With more than one BLAS thread its Q depends on the thread count at some
    orders. Raises ``ConfigError`` when no draw of the tail keeps every
    adjacent pair ``TAIL_SEPARATION`` apart, though ``spec`` leaves room.
    """
    import scipy.linalg

    n = spec.n
    rng = np.random.default_rng(spec.seed)
    q, r = scipy.linalg.qr(np.asfortranarray(rng.standard_normal((n, n))), overwrite_a=True,
                           mode="economic", check_finite=False)
    signs = np.sign(np.diag(r))
    del r
    signs[signs == 0] = 1.0
    q *= signs  # R-diagonal forced positive: deterministic orientation
    u = np.ascontiguousarray(q)  # C order: the product's BLAS call does not follow the QR's layout
    del q

    lam2 = 1.0 - spec.gap
    eigenvalues = np.array([1.0, lam2])
    if n > 2:
        for _ in range(_REDRAW_CAP):
            tail = np.sort(rng.uniform(0.0, lam2, n - 2))[::-1]
            below = np.concatenate(([lam2], tail))
            if np.all(np.diff(below) <= -TAIL_SEPARATION) and tail[-1] > 0.0:
                eigenvalues = np.concatenate(([1.0], below))
                break
        else:
            raise ConfigError(f"n = {n}, gap = {spec.gap}: {_REDRAW_CAP} draws found no tail with "
                              f"adjacent eigenvalues TAIL_SEPARATION = {TAIL_SEPARATION:g} apart")

    a = u * eigenvalues
    a = a @ u.T
    a += a.T    # numpy buffers the overlapping transpose: (a + a') / 2 with the same bits
    a *= 0.5
    return DenseOperator(a), Spectrum(eigenvalues.copy(), u)
