"""Ground-truth oracle fuzzing: generated systems with known verdicts.

The package builds test oracles the rest of the library cannot fake:

* :mod:`~repro.oracle.generate` constructs systems *backwards* from a
  chosen Lyapunov certificate (``A = P^{-1}(K - Q)``), so stability and
  a rational witness are known exactly by construction — plus unstable,
  marginal and defective systems by eigenvalue placement;
* :mod:`~repro.oracle.differential` fans each system through every
  ``method x validator x kernel-backend`` combination and fails on any
  disagreement;
* :mod:`~repro.oracle.metamorphic` checks verdict invariance under
  exact similarity transforms, permutations, scalings and LMI block
  reordering;
* :mod:`~repro.oracle.shrink` reduces failures to the smallest failing
  dimension, and :mod:`~repro.oracle.artifacts` persists them as
  replayable specs.

``python -m repro.fuzz`` drives campaigns over this package through
the parallel runner.
"""

from .artifacts import replay_spec, write_failure
from .cegis import (
    CEGIS_KINDS,
    CegisScenario,
    cegis_specs,
    check_cegis_scenario,
    generate_cegis_scenario,
)
from .differential import (
    FuzzProfile,
    LONG_PROFILE,
    QUICK_PROFILE,
    check_system,
)
from .generate import (
    KINDS,
    GeneratedSystem,
    generate_system,
    random_spd,
    system_specs,
    unimodular_matrix,
)
from .records import FuzzRecord
from .shrink import ShrinkResult, shrink_failure

__all__ = [
    "KINDS",
    "CEGIS_KINDS",
    "CegisScenario",
    "cegis_specs",
    "generate_cegis_scenario",
    "check_cegis_scenario",
    "GeneratedSystem",
    "generate_system",
    "random_spd",
    "system_specs",
    "unimodular_matrix",
    "FuzzProfile",
    "QUICK_PROFILE",
    "LONG_PROFILE",
    "check_system",
    "FuzzRecord",
    "ShrinkResult",
    "shrink_failure",
    "write_failure",
    "replay_spec",
]
