"""Desk-scale numerics for Brownian self-intersection local times."""

__version__ = "0.1.0"

from .quadrature import ConvergenceError, SimplexQuadrature
from .specfun import (
    hermite_eval,
    simplex_moment_asymptotic,
    simplex_moment_integral,
    upper_incomplete_gamma,
)
from .siltcore import Path, sample_path, silt_epsilon

__all__ = [
    "__version__",
    "ConvergenceError",
    "SimplexQuadrature",
    "hermite_eval",
    "simplex_moment_asymptotic",
    "simplex_moment_integral",
    "upper_incomplete_gamma",
    "Path",
    "sample_path",
    "silt_epsilon",
]
