"""Exception types raised across the library.

Every error condition named by an operation contract maps to a distinct
class here so callers can discriminate without parsing messages.
"""


class SplitMergeError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(SplitMergeError):
    """Vector length does not match the operator dimension."""


class MatrixMarketError(SplitMergeError):
    """Malformed Matrix Market content, or an operator whose ||A||_F is not finite."""


class MatrixMarketHeaderError(MatrixMarketError):
    """Missing, malformed, or unsupported Matrix Market banner."""


class NonSquareMatrixError(MatrixMarketError):
    """Matrix Market file declares a non-square matrix."""


class IndexOutOfRangeError(MatrixMarketError):
    """Coordinate entry index outside the declared dimensions."""


class AsymmetricMatrixError(MatrixMarketError):
    """A matrix is not symmetric enough for its storage.

    Raised for a "general" Matrix Market file that fails the 1e-12 relative
    symmetry check, and for a dense operator of order ``linop.SYMV_MIN_N``
    or more that is not exactly equal to its transpose (its matvec reads one
    triangle).
    """


class PsdViolationError(SplitMergeError):
    """Quadratic form x'Ax negative beyond the roundoff tolerance."""


class NonDifferentiablePointError(SplitMergeError):
    """Objective queried at a point with Ax = 0."""


class BreakdownError(SplitMergeError):
    """Iteration produced a numerically zero direction."""


class InitializationError(SplitMergeError):
    """Could not draw a starting vector with x'Ax bounded away from 0."""


class SigmaNotPositiveError(SplitMergeError):
    """Split-merge curvature scalar sigma <= 0 (surrogate not PD)."""


class OverflowGuardError(SplitMergeError):
    """Unnormalized iterate left the representable range."""


class OracleConvergenceError(SplitMergeError):
    """The eigendecomposition oracle failed to converge."""


class UndefinedRatioError(SplitMergeError):
    """Rate-ratio denominator zeta + omega*lambda1 is exactly zero."""


class ConfigError(SplitMergeError):
    """Invalid benchmark configuration."""
