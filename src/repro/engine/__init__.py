"""The industrial case study: a turbofan engine under switched PI control.

``build_engine_plant`` gives the synthetic 18-state plant (a documented
substitution for the paper's proprietary Spey model, see DESIGN.md);
``paper_controller`` carries the published gain matrices verbatim; and
``benchmark_suite`` materializes the size-3/5/10/15/18 reduction ladder
of Section VI-A.
"""

from .benchmarks import MODES, BenchmarkCase, benchmark_suite, case_by_name
from .gains import KI_0, KI_1, KP_0, KP_1, THETA, mode_gains, paper_controller
from .model import INPUT_NAMES, OUTPUT_NAMES, STATE_NAMES, build_engine_plant
from .references import (
    ATTRACTING_MARGIN,
    REGIME_MARGINS,
    attracting_reference,
    equilibrium_output,
    mode_equilibrium,
    nominal_reference,
)

__all__ = [
    "build_engine_plant",
    "STATE_NAMES",
    "INPUT_NAMES",
    "OUTPUT_NAMES",
    "THETA",
    "KI_0",
    "KI_1",
    "KP_0",
    "KP_1",
    "mode_gains",
    "paper_controller",
    "mode_equilibrium",
    "equilibrium_output",
    "nominal_reference",
    "attracting_reference",
    "ATTRACTING_MARGIN",
    "REGIME_MARGINS",
    "BenchmarkCase",
    "benchmark_suite",
    "case_by_name",
    "MODES",
]
