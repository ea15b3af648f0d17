"""Alternating-projection backend for the Lyapunov LMI family.

A feasibility iteration in the spirit of von Neumann/Dykstra alternating
projections between the two convex sets

    C1 = { P : P ⪰ nu_eff I }            (spectral clamp)
    C2 = { P : L(P) ⪯ -margin I }        (clamp in the image of the
                                          Lyapunov operator, pulled back
                                          by a Bartels--Stewart solve)

``C1``-projection is the exact Frobenius projection (eigenvalue clamp).
For ``C2`` the exact metric projection has no closed form, so the
iteration clamps the eigenvalues of ``L(P)`` at ``-margin`` and pulls
the clamped matrix back through ``L^{-1}`` — a quasi-projection that
preserves the fixed-point set. On Hurwitz problems it converges in a
few sweeps, landing *on or near the constraint boundary*: the
candidates it returns are the most fragile under rounding (the
invalid-entry generator of the Table I sweep), the counterpart of the
paper's observation that some solver columns lose entries.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from .problems import LmiInfeasibleError, LyapunovLmiProblem

__all__ = ["solve_proj"]

_MAX_SWEEPS = 500


def _clamp_floor(matrix: np.ndarray, floor: float) -> np.ndarray:
    """Frobenius projection onto ``{X : X ⪰ floor I}``."""
    eigenvalues, vectors = np.linalg.eigh(matrix)
    clamped = np.maximum(eigenvalues, floor)
    return (vectors * clamped) @ vectors.T


def _clamp_ceiling(matrix: np.ndarray, ceiling: float) -> np.ndarray:
    eigenvalues, vectors = np.linalg.eigh(matrix)
    clamped = np.minimum(eigenvalues, ceiling)
    return (vectors * clamped) @ vectors.T


def solve_proj(problem: LyapunovLmiProblem) -> tuple[np.ndarray, dict]:
    """Alternate spectral clamps until both LMI blocks are feasible
    (at most ``_MAX_SWEEPS`` sweeps)."""
    a_s = problem.shifted_a
    if float(np.linalg.eigvals(a_s).real.max()) >= 0:
        raise LmiInfeasibleError("A + (alpha/2)I is not Hurwitz")
    n = problem.n
    p = np.eye(n)
    sweeps = 0
    for sweeps in range(1, _MAX_SWEEPS + 1):
        # C2 quasi-projection: clamp the Lyapunov image, pull back.
        image = a_s.T @ p + p @ a_s
        clamped = _clamp_ceiling(image, -2.0 * problem.margin)
        p = linalg.solve_continuous_lyapunov(a_s.T, clamped)
        p = 0.5 * (p + p.T)
        # C1 projection: eigenvalue floor.
        p = _clamp_floor(p, 2.0 * problem.nu_effective)
        if problem.is_strictly_feasible(p):
            break
    else:
        raise LmiInfeasibleError(
            f"alternating projections did not converge in {_MAX_SWEEPS} sweeps "
            f"(residual {problem.residual(p):.3g})"
        )
    info = {"backend": "proj", "iterations": sweeps, "residual": problem.residual(p)}
    return p, info
