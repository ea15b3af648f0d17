"""Balanced truncation model reduction (paper Section VI-A).

The square-root algorithm: factor the controllability Gramian
``Wc = R R^T`` (Cholesky), SVD the cross product ``R^T Wo R``, and build
the balancing transformation from the singular vectors. In balanced
coordinates both Gramians equal ``diag(sigma)`` (the Hankel singular
values); truncating to the top ``k`` states preserves stability and
carries the classic ``2 * sum(sigma_tail)`` H-infinity error bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..systems import StateSpace
from .gramians import controllability_gramian, observability_gramian

__all__ = ["BalancedRealization", "balance", "balanced_truncation"]


@dataclass(frozen=True)
class BalancedRealization:
    """A balanced realization plus its transformation data."""

    system: StateSpace
    hankel_values: np.ndarray
    t: np.ndarray
    t_inv: np.ndarray

    def truncate(self, order: int) -> StateSpace:
        """Keep the ``order`` most Hankel-significant states."""
        n = self.system.n_states
        if not 1 <= order <= n:
            raise ValueError(f"order must be in [1, {n}], got {order}")
        a = self.system.a[:order, :order]
        b = self.system.b[:order, :]
        c = self.system.c[:, :order]
        return StateSpace(a, b, c)

    def error_bound(self, order: int) -> float:
        """The ``2 * sum of discarded Hankel values`` H-inf bound."""
        return 2.0 * float(self.hankel_values[order:].sum())


def balance(plant: StateSpace) -> BalancedRealization:
    """Compute a balanced realization via the square-root method."""
    wc = controllability_gramian(plant)
    wo = observability_gramian(plant)
    n = plant.n_states
    # Cholesky with a tiny regularizer: Wc can be numerically singular
    # when some states are nearly uncontrollable.
    r = np.linalg.cholesky(wc + 1e-12 * np.eye(n))
    u, s2, _vt = np.linalg.svd(r.T @ wo @ r)
    hankel = np.sqrt(np.maximum(s2, 1e-300))  # sigma_i
    sqrt_sigma = np.sqrt(hankel)
    # t maps balanced coordinates to original ones; in the new basis both
    # Gramians become diag(hankel).
    t = r @ u / sqrt_sigma
    t_inv = (sqrt_sigma[:, None] * u.T) @ np.linalg.inv(r)
    balanced = StateSpace(t_inv @ plant.a @ t, t_inv @ plant.b, plant.c @ t)
    return BalancedRealization(
        system=balanced, hankel_values=hankel, t=t, t_inv=t_inv
    )


def balanced_truncation(plant: StateSpace, order: int) -> StateSpace:
    """Balanced-truncate ``plant`` to ``order`` states."""
    return balance(plant).truncate(order)
