"""Robustness-to-perturbation analysis (paper Section VI-C, Table II)."""

from .epsilon import EpsilonInputs, epsilon_radius
from .montecarlo import MonteCarloReport, monte_carlo_epsilon_check
from .regions import RobustRegion, check_level_robust_smt, synthesize_robust_level
from .surface import SurfaceGeometry, surface_geometry
from .volume import (
    cap_fraction,
    ellipsoid_volume,
    log10_truncated_ellipsoid_volume,
    truncated_ellipsoid_volume,
    unit_ball_volume,
)

__all__ = [
    "SurfaceGeometry",
    "surface_geometry",
    "RobustRegion",
    "synthesize_robust_level",
    "check_level_robust_smt",
    "unit_ball_volume",
    "cap_fraction",
    "ellipsoid_volume",
    "truncated_ellipsoid_volume",
    "log10_truncated_ellipsoid_volume",
    "EpsilonInputs",
    "epsilon_radius",
    "MonteCarloReport",
    "monte_carlo_epsilon_check",
]
