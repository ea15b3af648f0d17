"""Tests for frequency-domain analysis (repro.systems.frequency)."""

import numpy as np
import pytest

from repro.systems import StateSpace, loop_margins, transfer_function


def first_order(a=2.0, k=3.0):
    """G(s) = k / (s + a)."""
    return StateSpace([[-a]], [[1.0]], [[k]])


class TestTransferFunction:
    def test_first_order_dc(self):
        g = transfer_function(first_order(), 0.0)
        assert g[0, 0] == pytest.approx(1.5)

    def test_first_order_pole_magnitude(self):
        # |G(j a)| = k / (a sqrt(2)).
        g = transfer_function(first_order(2.0, 3.0), 2.0j)
        assert abs(g[0, 0]) == pytest.approx(3.0 / (2.0 * np.sqrt(2.0)))

    def test_matches_dc_gain(self):
        from repro.engine import build_engine_plant

        plant = build_engine_plant()
        assert np.allclose(
            transfer_function(plant, 0.0).real, plant.dc_gain(), atol=1e-10
        )

    def test_balanced_truncation_hinf_bound_sampled(self):
        """|G - G_r| at sampled frequencies obeys 2*sum(tail sigma)."""
        from repro.engine import build_engine_plant
        from repro.reduction import balance

        plant = build_engine_plant()
        realization = balance(plant)
        reduced = realization.truncate(5)
        bound = realization.error_bound(5)
        for w in (0.0, 0.5, 2.0, 10.0, 50.0):
            g_full = transfer_function(plant, 1j * w)
            g_red = transfer_function(reduced, 1j * w)
            error = np.linalg.svd(g_full - g_red, compute_uv=False)[0]
            assert error <= bound + 1e-8


class TestLoopMargins:
    def test_integrator_loop(self):
        """L(s) = 10 / (s (s/10 + 1)^2): textbook margins."""

        def loop(w):
            s = 1j * w
            return 10.0 / (s * (s / 10.0 + 1.0) ** 2)

        omegas = np.logspace(-2, 3, 400)
        margins = loop_margins(loop, omegas)
        # Gain crossover near 10 rad/s, phase crossover at 10 rad/s
        # (phase = -90 - 2 atan(w/10) = -180 at w = 10).
        assert margins.phase_crossover == pytest.approx(10.0, rel=1e-3)
        # At w=10: |L| = 10/(10*2) = 0.5 -> gain margin = 6 dB.
        assert margins.gain_margin_db == pytest.approx(6.02, abs=0.1)
        assert margins.phase_margin_deg > 0

    def test_first_order_never_crosses_180(self):
        def loop(w):
            return 5.0 / (1j * w + 1.0)

        margins = loop_margins(loop, np.logspace(-2, 3, 300))
        assert margins.gain_margin_db == float("inf")
        assert margins.phase_margin_deg > 60.0

    def test_low_gain_loop_infinite_phase_margin(self):
        def loop(w):
            return 0.1 / (1j * w + 1.0)

        margins = loop_margins(loop, np.logspace(-2, 3, 300))
        assert margins.gain_crossover is None
        assert margins.phase_margin_deg == float("inf")

    def test_engine_fuel_loop_is_comfortably_stable(self):
        """The mode-0 fuel loop (PI * G00) has healthy margins — the
        design property behind Table I's all-valid column."""
        from repro.engine import build_engine_plant, mode_gains
        from repro.systems import transfer_function as tf

        plant = build_engine_plant()
        gains = mode_gains(0)
        kp, ki = gains.kp[0, 0], gains.ki[0, 0]

        def loop(w):
            s = 1j * w
            return (kp + ki / s) * tf(plant, s)[0, 0]

        margins = loop_margins(loop, np.logspace(-2, 3, 500))
        assert margins.phase_margin_deg > 30.0
