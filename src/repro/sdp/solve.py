"""Front-end for the Lyapunov LMI solvers.

``solve_lyapunov_lmi`` dispatches to one of three hand-written backends
(the offline stand-ins for the paper's CVXOPT / Mosek / SMCP columns).
Measured roles on the case-study problems:

========  =======================================  ==========================
backend   algorithm                                measured role
========  =======================================  ==========================
``ipm``   analytic-center damped Newton            costliest, growing with
                                                   size (the CVXOPT/SMCP
                                                   column); best-conditioned
                                                   candidates
``shift`` shifted Lyapunov solve + scaling         fastest (Mosek role)
``proj``  alternating spectral projections         fast but boundary-hugging:
                                                   its candidates are the
                                                   fragile ones under
                                                   aggressive rounding
========  =======================================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ipm import solve_ipm
from .problems import LyapunovLmiProblem
from .proj import solve_proj
from .shift import solve_shift

__all__ = [
    "LmiSolution",
    "solve_lyapunov_lmi",
    "BACKENDS",
]

BACKENDS = {
    "ipm": solve_ipm,
    "shift": solve_shift,
    "proj": solve_proj,
}


@dataclass
class LmiSolution:
    """A solved Lyapunov LMI: candidate ``P`` plus backend metadata."""
    p: np.ndarray
    backend: str
    iterations: int
    info: dict

    @property
    def matrix(self) -> np.ndarray:
        """The candidate ``P`` (alias of ``p``)."""
        return self.p


def solve_lyapunov_lmi(
    a: np.ndarray,
    alpha: float = 0.0,
    nu: float | None = None,
    backend: str = "ipm",
    margin: float = 1e-6,
    **options,
) -> LmiSolution:
    """Solve the LMI family (9)/(10)/(10+floor) for a candidate ``P``.

    Raises
    ------
    LmiInfeasibleError
        When the problem has no strictly feasible point (e.g. ``A`` not
        Hurwitz, or ``alpha`` beyond the system's decay rate).
    KeyError
        For an unknown backend name.
    """
    if backend not in BACKENDS:
        raise KeyError(
            f"unknown backend {backend!r}; available: {sorted(BACKENDS)}"
        )
    problem = LyapunovLmiProblem(
        a=np.asarray(a, dtype=float), alpha=alpha, nu=nu, margin=margin
    )
    p, info = BACKENDS[backend](problem, **options)
    return LmiSolution(
        p=p, backend=backend, iterations=info.get("iterations", 0), info=info
    )
