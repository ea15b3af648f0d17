"""Controllability and observability Gramians of stable linear systems.

For a Hurwitz ``A``, the Gramians solve the Lyapunov equations

    A Wc + Wc A^T + B B^T = 0,        A^T Wo + Wo A + C^T C = 0,

and their product's eigenvalues are the squared Hankel singular values —
the quantities balanced truncation (see :mod:`repro.reduction.balanced`)
ranks states by.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from ..systems import StateSpace

__all__ = [
    "controllability_gramian",
    "observability_gramian",
]


def _require_stable(plant: StateSpace) -> None:
    if not plant.is_stable():
        raise ValueError(
            "Gramians require a Hurwitz A (spectral abscissa "
            f"{plant.spectral_abscissa():.4g})"
        )


def controllability_gramian(plant: StateSpace) -> np.ndarray:
    """``Wc`` with ``A Wc + Wc A^T = -B B^T``."""
    _require_stable(plant)
    wc = linalg.solve_continuous_lyapunov(plant.a, -plant.b @ plant.b.T)
    return 0.5 * (wc + wc.T)


def observability_gramian(plant: StateSpace) -> np.ndarray:
    """``Wo`` with ``A^T Wo + Wo A = -C^T C``."""
    _require_stable(plant)
    wo = linalg.solve_continuous_lyapunov(plant.a.T, -plant.c.T @ plant.c)
    return 0.5 * (wo + wo.T)
