"""Semidefinite programming / LMI solvers, written from scratch.

The paper solves its LMI problems through PICOS with CVXOPT, Mosek and
SMCP backends; none are available offline, so this package provides an
equivalent front-end (:func:`solve_lyapunov_lmi`) over three hand-built
backends with deliberately different cost/conditioning profiles, plus
two generic block-LMI engines (deep-cut ellipsoid, level-shift barrier)
that :func:`solve_lmi_hybrid` chains into the one pipeline solving the
piecewise-quadratic S-procedure problems.
"""

from .barrier import (
    BarrierResult,
    HybridResult,
    solve_lmi_barrier,
    solve_lmi_hybrid,
)
from .generic import (
    CompiledLmiSystem,
    EllipsoidResult,
    LmiBlock,
    solve_lmi_ellipsoid,
)
from .ipm import solve_ipm
from .problems import (
    LmiInfeasibleError,
    LyapunovLmiProblem,
    candidate_screen_blocks,
    lyap_basis_tensor,
    lyapunov_lmi_blocks,
    screen_candidates,
)
from .proj import solve_proj
from .shift import solve_shift
from .solve import (
    BACKENDS,
    LmiSolution,
    solve_lyapunov_lmi,
)
from .svec import basis_matrix, basis_tensor, smat, svec, svec_basis, svec_dim

__all__ = [
    "LyapunovLmiProblem",
    "LmiInfeasibleError",
    "LmiSolution",
    "solve_lyapunov_lmi",
    "BACKENDS",
    "solve_ipm",
    "solve_shift",
    "solve_proj",
    "LmiBlock",
    "CompiledLmiSystem",
    "EllipsoidResult",
    "solve_lmi_ellipsoid",
    "BarrierResult",
    "solve_lmi_barrier",
    "HybridResult",
    "solve_lmi_hybrid",
    "lyap_basis_tensor",
    "lyapunov_lmi_blocks",
    "candidate_screen_blocks",
    "screen_candidates",
    "svec",
    "smat",
    "svec_dim",
    "svec_basis",
    "basis_matrix",
    "basis_tensor",
]
