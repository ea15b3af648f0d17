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

``best_alpha`` performs the bisection the paper alludes to for the
LMIalpha method: the largest decay rate for which the LMI stays
feasible, which for the Lyapunov family equals twice the spectral
abscissa of ``A`` (up to the bisection tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ipm import solve_ipm
from .problems import LmiInfeasibleError, LyapunovLmiProblem
from .proj import solve_proj
from .shift import solve_shift

__all__ = [
    "LmiSolution",
    "solve_lyapunov_lmi",
    "best_alpha",
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


def best_alpha(
    a: np.ndarray,
    tolerance: float = 1e-6,
    backend: str = "shift",
    with_info: bool = False,
) -> float | tuple[float, dict]:
    """Largest ``alpha`` with LMIalpha feasible, by bisection.

    The optimum is ``-2 * max Re(eig(A))``; the bisection exists to
    mirror how one finds it with a feasibility oracle only.

    With the ``ipm`` backend each bisection step is warm-started from
    the previous feasible solution (``initial=``), skipping that step's
    Phase I solve whenever the old center is still strictly feasible.
    ``with_info=True`` additionally returns the bookkeeping dict:
    ``steps``, ``iterations_total``, ``warm_started_steps`` (bisection
    steps that skipped Phase I), and ``iterations_saved`` (Newton
    iterations below the cold-start count of the first step, summed
    over the warm-started steps).
    """
    a = np.asarray(a, dtype=float)
    abscissa = float(np.linalg.eigvals(a).real.max())
    if abscissa >= 0:
        raise LmiInfeasibleError("A is not Hurwitz: every alpha is infeasible")
    low, high = 0.0, -4.0 * abscissa  # upper bound: strictly infeasible
    previous: np.ndarray | None = None
    cold_iterations: int | None = None
    info = {
        "steps": 0,
        "iterations_total": 0,
        "warm_started_steps": 0,
        "iterations_saved": 0,
    }
    while high - low > tolerance:
        mid = 0.5 * (low + high)
        options = {}
        if backend == "ipm" and previous is not None:
            options["initial"] = previous
        try:
            solution = solve_lyapunov_lmi(
                a, alpha=mid, backend=backend, **options
            )
        except LmiInfeasibleError:
            high = mid
        else:
            low = mid
            previous = solution.p
            if solution.info.get("warm_start"):
                info["warm_started_steps"] += 1
                if cold_iterations is not None:
                    info["iterations_saved"] += max(
                        0, cold_iterations - solution.iterations
                    )
            elif cold_iterations is None:
                cold_iterations = solution.iterations
            info["iterations_total"] += solution.iterations
        info["steps"] += 1
    if with_info:
        return low, info
    return low
