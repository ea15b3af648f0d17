"""Numerical simulation of affine and PWA systems.

An adaptive Dormand--Prince RK45 integrator (written here, no scipy
dependency in the hot loop) with event detection for switching-surface
crossings: when a step leaves the current operating region, the crossing
time is located by bisection on the region margin, the state is advanced
to the boundary, and integration resumes under the new mode's flow.
Trajectories record states, active modes and switch events, which the
examples and integration tests use to confirm the verified predictions
(convergence without switching from inside a robust region, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .pwa import PwaSystem
from .statespace import AffineSystem

__all__ = ["Trajectory", "rk45_step", "simulate_affine", "simulate_pwa"]

# Dormand–Prince (RK45) Butcher tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def rk45_step(
    f: Callable[[np.ndarray], np.ndarray], y: np.ndarray, h: float
) -> tuple[np.ndarray, float]:
    """One Dormand--Prince step; returns ``(y_next, error_estimate)``."""
    k = []
    for stage in range(7):
        y_stage = y.copy()
        for coeff, k_prev in zip(_A[stage], k):
            y_stage = y_stage + h * coeff * k_prev
        k.append(f(y_stage))
    k = np.array(k)
    y5 = y + h * (_B5 @ k)
    y4 = y + h * (_B4 @ k)
    error = float(np.linalg.norm(y5 - y4))
    return y5, error


@dataclass
class Trajectory:
    """A simulated trajectory with mode bookkeeping.

    ``completed`` is ``False`` when the integration was truncated by the
    Zeno protection (too many switching events — the trajectory entered
    a sliding/chattering regime that state-dependent switching cannot
    resolve without Filippov semantics).
    """

    times: np.ndarray
    states: np.ndarray
    modes: np.ndarray = field(default=None)
    switch_times: list = field(default_factory=list)
    completed: bool = True

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def n_switches(self) -> int:
        return len(self.switch_times)


def _adaptive_steps(
    f: Callable[[np.ndarray], np.ndarray],
    w0: np.ndarray,
    t0: float,
    t_final: float,
    rtol: float,
    atol: float,
    max_step: float,
):
    """Yield ``(t, w)`` samples of an adaptive RK45 integration."""
    t = t0
    w = np.asarray(w0, dtype=float).copy()
    h = min(max_step, max((t_final - t0) / 100.0, 1e-6))
    while t < t_final:
        h = min(h, t_final - t, max_step)
        w_next, error = rk45_step(f, w, h)
        scale = atol + rtol * max(
            float(np.linalg.norm(w)), float(np.linalg.norm(w_next))
        )
        if error <= scale or h <= 1e-12:
            t += h
            w = w_next
            yield t, w
            growth = 2.0 if error == 0 else min(2.0, 0.9 * (scale / error) ** 0.2)
            h *= growth
        else:
            h *= max(0.1, 0.9 * (scale / error) ** 0.25)


def simulate_affine(
    system: AffineSystem,
    w0: Sequence[float],
    t_final: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float = np.inf,
) -> Trajectory:
    """Integrate a single affine system."""
    times = [0.0]
    states = [np.asarray(w0, dtype=float)]
    for t, w in _adaptive_steps(
        system.derivative, states[0], 0.0, t_final, rtol, atol, max_step
    ):
        times.append(t)
        states.append(w)
    return Trajectory(np.array(times), np.array(states))


def simulate_pwa(
    system: PwaSystem,
    w0: Sequence[float],
    t_final: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float = np.inf,
    boundary_tol: float = 1e-10,
    max_switches: int = 10_000,
) -> Trajectory:
    """Integrate a PWA system with switching-event detection.

    Within a mode, steps follow that mode's affine flow. When a step
    lands outside the current region, bisection on the step size locates
    the boundary crossing to ``boundary_tol``, the crossing is recorded,
    and the active mode is re-evaluated just past the boundary.

    Trajectories entering a sliding regime would switch infinitely often
    (Zeno); after ``max_switches`` events the integration stops and the
    returned trajectory has ``completed = False``.
    """
    w = np.asarray(w0, dtype=float).copy()
    t = 0.0
    mode = system.mode_of(w)
    times = [0.0]
    states = [w.copy()]
    modes = [mode]
    switch_times: list[float] = []
    h = min(max_step, max(t_final / 100.0, 1e-6))
    completed = True
    while t < t_final:
        if len(switch_times) >= max_switches:
            completed = False
            break
        flow = system.modes[mode].flow
        region = system.modes[mode].region
        h = min(h, t_final - t, max_step)
        w_next, error = rk45_step(flow.derivative, w, h)
        scale = atol + rtol * max(
            float(np.linalg.norm(w)), float(np.linalg.norm(w_next))
        )
        if error > scale and h > 1e-12:
            h *= max(0.1, 0.9 * (scale / error) ** 0.25)
            continue
        if region.contains(list(w_next)):
            t += h
            w = w_next
            times.append(t)
            states.append(w.copy())
            modes.append(mode)
            h *= 2.0 if error == 0 else min(2.0, 0.9 * (scale / error) ** 0.2)
            continue
        # The step crossed the switching surface: bisect on step size.
        lo, hi = 0.0, h
        for _ in range(80):
            if hi - lo <= boundary_tol * max(1.0, h):
                break
            mid = 0.5 * (lo + hi)
            w_mid, _ = rk45_step(flow.derivative, w, mid)
            if region.contains(list(w_mid)):
                lo = mid
            else:
                hi = mid
        if hi < 1e-14:
            # Stall guard: the state sits numerically on the surface.
            # Push through with a tiny Euler step so time always advances.
            hi = 1e-12 * max(1.0, t_final)
            w_boundary = w + hi * flow.derivative(w)
        else:
            w_boundary, _ = rk45_step(flow.derivative, w, hi)
        t += hi
        w = w_boundary
        times.append(t)
        states.append(w.copy())
        new_mode = system.mode_of(w)
        if new_mode != mode:
            switch_times.append(t)
            mode = new_mode
        modes.append(mode)
        # Keep h adaptive (do not collapse it): the bisection above only
        # advanced to the boundary, so the next step restarts from there.
    return Trajectory(
        np.array(times),
        np.array(states),
        np.array(modes),
        switch_times,
        completed,
    )
