"""Dominant-eigenvector solvers for symmetric PSD operators.

Library surface: matrix-free operators (`linop`), the difference-formulation
objective (`objective`), the solver family including the split-merge method
(`solvers`), ground truth from LAPACK (dense oracle, tridiagonal dominant
pair) or ARPACK (any other dominant pair) and theory checks (`theory`),
synthetic matrix generation (`matgen`), and the benchmark harness (`bench`,
CLI via ``bench``). Large CSR matvecs and kernel passes split across two
CPUs (`worker`).
"""

from . import errors
from .bench import ExperimentConfig, RunReport, SolverSetting, load_config, run_experiment
from .linop import (
    CsrOperator,
    DenseOperator,
    LinearOperator,
    gershgorin_shift,
    load_matrix_market,
    save_matrix_market,
)
from .matgen import SyntheticSpec, generate
from .objective import eval_f, eval_grad, hessian_vec, rayleigh
from .solvers import (
    IterationTrace,
    SolveResult,
    SolverConfig,
    SplitMergeCoefficients,
    gd_step,
    init_vector,
    power_momentum_step,
    power_step,
    solve,
    split_merge_step,
)
from .theory import (
    AngleError,
    DominantReference,
    Spectrum,
    Theorem51Bounds,
    compute_delta,
    dense_eigendecomposition,
    reference_dominant_eigenpair,
    sin_theta,
    square_root_factor,
    theorem51_bounds,
    verify_surrogate_dominance,
    verify_vhat_formula,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "LinearOperator",
    "DenseOperator",
    "CsrOperator",
    "gershgorin_shift",
    "load_matrix_market",
    "save_matrix_market",
    "eval_f",
    "eval_grad",
    "hessian_vec",
    "rayleigh",
    "SolverConfig",
    "SolveResult",
    "IterationTrace",
    "SplitMergeCoefficients",
    "init_vector",
    "power_step",
    "gd_step",
    "power_momentum_step",
    "split_merge_step",
    "solve",
    "Spectrum",
    "DominantReference",
    "AngleError",
    "Theorem51Bounds",
    "dense_eigendecomposition",
    "reference_dominant_eigenpair",
    "sin_theta",
    "square_root_factor",
    "compute_delta",
    "theorem51_bounds",
    "verify_surrogate_dominance",
    "verify_vhat_formula",
    "SyntheticSpec",
    "generate",
    "ExperimentConfig",
    "SolverSetting",
    "RunReport",
    "load_config",
    "run_experiment",
]
