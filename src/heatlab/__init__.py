"""Finite-difference laboratory for the 1-D heat equation.

Seven time-stepping schemes behind one stepper contract, pivoting
tridiagonal solves (LAPACK ``dgttrf``/``dgttrs`` for a matrix that lasts
the run, ``dgtsv`` for every other), closed-form reference solutions, and
the stability / dispersion / convergence / error-bound tooling needed to
measure what each scheme actually does.
"""

from .analysis import (AmplificationResult, DispersionSample,
                       UndefinedGrowthError, amplification,
                       dispersion_branches, empirical_growth,
                       hyperbolization_error_bound, information_speed,
                       max_amplification, observed_order, truncation_residual)
from .grid import (BCKind, BoundaryCondition, Field, Grid1D, Side,
                   boundary_closure_coefficients, build_uniform_grid,
                   close_boundary, sample_initial)
from .reference import (SineSeriesSolution, evaluate_series,
                        fundamental_solution, hyperbolic_mode_solution)
from .schemes import (DIVERGENCE_THRESHOLD, DiffusivityError,
                      DiffusivityModel, FixedPointError,
                      RunRecord, Scheme, SchemeParams, SolverError, StepState,
                      bootstrap_hyperbolic, run_simulation,
                      step_ccn, step_cn_nonlinear, step_crank_nicolson,
                      step_dufort_frankel, step_explicit, step_hyperbolic,
                      step_implicit, step_leapfrog, step_saulyev_pair)
from .tridiag import SingularSystemError, TridiagonalSystem, thomas_solve

__version__ = "0.1.0"

__all__ = [
    "AmplificationResult", "BCKind", "BoundaryCondition", "DIVERGENCE_THRESHOLD",
    "DiffusivityError", "DiffusivityModel",
    "DispersionSample", "Field", "FixedPointError",
    "Grid1D", "RunRecord", "Scheme", "SchemeParams", "Side",
    "SineSeriesSolution", "SingularSystemError", "SolverError", "StepState",
    "TridiagonalSystem", "UndefinedGrowthError", "amplification",
    "bootstrap_hyperbolic", "boundary_closure_coefficients",
    "build_uniform_grid", "close_boundary", "dispersion_branches",
    "empirical_growth", "evaluate_series", "fundamental_solution",
    "hyperbolic_mode_solution", "hyperbolization_error_bound",
    "information_speed", "max_amplification", "observed_order",
    "run_simulation", "sample_initial", "step_ccn", "step_cn_nonlinear",
    "step_crank_nicolson", "step_dufort_frankel", "step_explicit",
    "step_hyperbolic", "step_implicit", "step_leapfrog", "step_saulyev_pair",
    "thomas_solve", "truncation_residual",
    "__version__",
]
