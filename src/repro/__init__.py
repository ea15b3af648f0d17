"""repro — SMT-based stability verification of switched PI control systems.

A from-scratch reproduction of Battista et al., *SMT-Based Stability
Verification of an Industrial Switched PI Control System* (DSN-W 2023):
exact rational linear algebra, a mini SMT layer (ICP, Farkas checks),
hand-written LMI/SDP solvers, balanced-truncation model reduction, a
synthetic 18-state turbofan case study with the paper's exact switched
PI gains, Lyapunov synthesis/validation pipelines, and robust-region
analysis — plus drivers regenerating every table and figure.

Quick tour::

    import repro

    plant = repro.build_engine_plant()             # 18-state turbofan
    controller = repro.paper_controller()          # the paper's gains
    r = repro.nominal_reference(plant)
    switched = repro.build_closed_loop(plant, controller, r)

    a0 = switched.modes[0].flow.a                  # closed-loop mode 0
    candidate = repro.synthesize("lmi-alpha", a0)  # numeric synthesis
    report = repro.validate_candidate(candidate, a0)  # exact proof
    assert report.valid

See ``examples/`` and ``python -m repro.experiments --help``.
"""

from .engine import (
    BenchmarkCase,
    benchmark_suite,
    build_engine_plant,
    case_by_name,
    mode_gains,
    nominal_reference,
    paper_controller,
)
from .exact import RationalMatrix, is_hurwitz_matrix
from .lyapunov import (
    LyapunovCandidate,
    PiecewiseCandidate,
    synthesize,
    synthesize_piecewise,
)
from .reduction import balanced_truncation
from .robust import (
    epsilon_radius,
    monte_carlo_epsilon_check,
    synthesize_robust_level,
    truncated_ellipsoid_volume,
)
from .systems import (
    AffineSystem,
    OutputGuard,
    PIGains,
    PwaSystem,
    StateSpace,
    SwitchedPIController,
    build_closed_loop,
    simulate_affine,
    simulate_pwa,
)
from .validate import validate_candidate, validate_piecewise

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "StateSpace",
    "AffineSystem",
    "PIGains",
    "OutputGuard",
    "SwitchedPIController",
    "PwaSystem",
    "build_closed_loop",
    "simulate_affine",
    "simulate_pwa",
    "RationalMatrix",
    "is_hurwitz_matrix",
    "balanced_truncation",
    "build_engine_plant",
    "paper_controller",
    "mode_gains",
    "nominal_reference",
    "BenchmarkCase",
    "benchmark_suite",
    "case_by_name",
    "LyapunovCandidate",
    "PiecewiseCandidate",
    "synthesize",
    "synthesize_piecewise",
    "validate_candidate",
    "validate_piecewise",
    "synthesize_robust_level",
    "truncated_ellipsoid_volume",
    "epsilon_radius",
    "monte_carlo_epsilon_check",
]
