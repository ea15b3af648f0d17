"""Frequency-domain analysis of linear systems.

Transfer-function evaluation ``G(s) = C (sI - A)^{-1} B`` and
classical gain/phase margins per SISO loop. Used to document and
sanity-check the engine design (each PI loop's phase margin) and by the
tests that pin the balanced-truncation H-infinity error bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statespace import StateSpace

__all__ = [
    "transfer_function",
    "LoopMargins",
    "loop_margins",
]


def transfer_function(plant: StateSpace, s: complex) -> np.ndarray:
    """``G(s) = C (sI - A)^{-1} B`` at one complex frequency."""
    n = plant.n_states
    resolvent = np.linalg.solve(
        s * np.eye(n) - plant.a, plant.b.astype(complex)
    )
    return plant.c @ resolvent


@dataclass(frozen=True)
class LoopMargins:
    """Classical stability margins of one SISO loop transfer."""

    gain_margin_db: float  # inf when phase never crosses -180 deg
    phase_margin_deg: float  # inf when |L| never crosses 1
    gain_crossover: float | None
    phase_crossover: float | None


def loop_margins(
    loop_gain, omegas: np.ndarray
) -> LoopMargins:
    """Margins of a SISO loop ``L(j omega)`` given as a callable.

    ``loop_gain`` maps a (positive) frequency to a complex number.
    Crossings are located by sign-change bisection on the sampled grid,
    so the grid should bracket the crossovers.
    """
    omegas = np.asarray(omegas, dtype=float)
    values = np.array([loop_gain(w) for w in omegas])
    magnitude = np.abs(values)
    phase = np.unwrap(np.angle(values))

    gain_crossover = _crossing(omegas, magnitude - 1.0, loop_gain, "mag")
    phase_crossover = _crossing(
        omegas, phase + np.pi, loop_gain, "phase"
    )

    if gain_crossover is None:
        phase_margin = float("inf")
    else:
        phase_at = np.angle(loop_gain(gain_crossover))
        phase_margin = float(np.degrees(phase_at + np.pi))
        # Normalize to (-180, 180].
        while phase_margin > 180.0:
            phase_margin -= 360.0
        while phase_margin <= -180.0:
            phase_margin += 360.0
    if phase_crossover is None:
        gain_margin = float("inf")
    else:
        magnitude_at = abs(loop_gain(phase_crossover))
        gain_margin = float(-20.0 * np.log10(magnitude_at))
    return LoopMargins(
        gain_margin_db=gain_margin,
        phase_margin_deg=phase_margin,
        gain_crossover=gain_crossover,
        phase_crossover=phase_crossover,
    )


def _crossing(omegas, signal, loop_gain, kind) -> float | None:
    """First sign change of ``signal`` refined by bisection."""
    signs = np.sign(signal)
    changes = np.nonzero(np.diff(signs) != 0)[0]
    if len(changes) == 0:
        return None
    lo, hi = float(omegas[changes[0]]), float(omegas[changes[0] + 1])

    def residual(w: float) -> float:
        value = loop_gain(w)
        if kind == "mag":
            return abs(value) - 1.0
        angle = float(np.angle(value))
        if angle > 0:  # unwrap: loop phases of interest live in (-2pi, 0]
            angle -= 2.0 * np.pi
        return angle + np.pi

    r_lo = residual(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if r_lo * r_mid <= 0:
            hi = mid
        else:
            lo, r_lo = mid, r_mid
    return 0.5 * (lo + hi)
