"""Tests for simulation with event detection (repro.systems.simulate)."""

import numpy as np
import pytest

from repro.systems import (
    AffineSystem,
    HalfSpace,
    PolyhedralRegion,
    PwaMode,
    PwaSystem,
    rk45_step,
    simulate_affine,
    simulate_pwa,
)


class TestRk45Step:
    def test_exponential_decay_accuracy(self):
        # y' = -y from 1: y(h) = e^{-h}.
        f = lambda y: -y
        y1, error = rk45_step(f, np.array([1.0]), 0.1)
        assert y1[0] == pytest.approx(np.exp(-0.1), abs=1e-9)
        assert error < 1e-6

    def test_linear_problem_is_near_exact(self):
        f = lambda y: np.array([2.0])
        y1, error = rk45_step(f, np.array([0.0]), 0.5)
        assert y1[0] == pytest.approx(1.0, abs=1e-14)
        assert error == pytest.approx(0.0, abs=1e-14)


class TestSimulateAffine:
    def test_converges_to_equilibrium(self):
        system = AffineSystem([[-1.0, 0.5], [0.0, -2.0]], [1.0, 2.0])
        trajectory = simulate_affine(system, [5.0, -3.0], t_final=20.0)
        assert trajectory.final_state == pytest.approx(
            system.equilibrium(), abs=1e-5
        )

    def test_matches_matrix_exponential(self):
        from scipy.linalg import expm

        a = np.array([[-1.0, 2.0], [-2.0, -1.0]])
        system = AffineSystem(a, [0.0, 0.0])
        w0 = np.array([1.0, 1.0])
        trajectory = simulate_affine(system, w0, t_final=1.0, rtol=1e-10)
        assert trajectory.final_state == pytest.approx(expm(a) @ w0, abs=1e-7)


def bouncing_modes():
    """Two 1-D modes: x >= 0 flows to -1 equilibrium, x < 0 flows to +1.

    Trajectories slide toward x = 0 and chatter across it; good stress
    for the event detector.
    """
    right = PwaMode(
        flow=AffineSystem([[-1.0]], [-1.0]),  # x' = -x - 1 -> eq -1
        region=PolyhedralRegion([HalfSpace((1,), 0)]),
        name="right",
    )
    left = PwaMode(
        flow=AffineSystem([[-1.0]], [1.0]),  # x' = -x + 1 -> eq +1
        region=PolyhedralRegion([HalfSpace((-1,), 0, strict=True)]),
        name="left",
    )
    return PwaSystem([right, left])


def stable_switched():
    """Both modes share the equilibrium -A^{-1}b inside mode 0."""
    mode0 = PwaMode(
        flow=AffineSystem([[-1.0, 0.0], [0.0, -1.0]], [2.0, 0.0]),  # eq (2, 0)
        region=PolyhedralRegion([HalfSpace((1, 0), 0)]),  # x >= 0
    )
    mode1 = PwaMode(
        flow=AffineSystem([[-2.0, 0.0], [0.0, -2.0]], [4.0, 0.0]),  # eq (2, 0)
        region=PolyhedralRegion([HalfSpace((-1, 0), 0, strict=True)]),
    )
    return PwaSystem([mode0, mode1])


class TestPwaSystem:
    def test_mode_of(self):
        system = bouncing_modes()
        assert system.mode_of(np.array([1.0])) == 0
        assert system.mode_of(np.array([-1.0])) == 1
        assert system.mode_of(np.array([0.0])) == 0

    def test_derivative_dispatch(self):
        system = bouncing_modes()
        assert system.derivative(np.array([2.0])) == pytest.approx([-3.0])
        assert system.derivative(np.array([-2.0])) == pytest.approx([3.0])

    def test_equilibria(self):
        eqs = bouncing_modes().equilibria()
        assert eqs[0] == pytest.approx([-1.0])
        assert eqs[1] == pytest.approx([1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            PwaSystem([])
        with pytest.raises(ValueError):
            PwaMode(
                flow=AffineSystem([[-1.0]], [0.0]),
                region=PolyhedralRegion([HalfSpace((1, 0), 0)]),
            )

    def test_equilibrium_in_region(self):
        system = stable_switched()
        assert system.modes[0].equilibrium_in_region()
        assert not system.modes[1].equilibrium_in_region()


class TestSimulatePwa:
    def test_no_switch_when_staying_inside(self):
        system = stable_switched()
        trajectory = simulate_pwa(system, [5.0, 1.0], t_final=25.0)
        assert trajectory.n_switches == 0
        assert trajectory.final_state == pytest.approx([2.0, 0.0], abs=1e-5)
        assert set(trajectory.modes.tolist()) == {0}

    def test_switch_detected(self):
        system = stable_switched()
        trajectory = simulate_pwa(system, [-3.0, 0.0], t_final=25.0)
        # Starts in mode 1, converges to (2, 0) inside mode 0: one switch.
        assert trajectory.n_switches == 1
        assert trajectory.final_state == pytest.approx([2.0, 0.0], abs=1e-5)
        # The switch happens when x crosses 0: x(t) = -3 e^{-2t} + 2(1 - e^{-2t})
        # = 2 - 5 e^{-2t} = 0 -> t = ln(5/2)/2.
        expected = np.log(5.0 / 2.0) / 2.0
        assert trajectory.switch_times[0] == pytest.approx(expected, abs=1e-6)

    def test_chattering_truncated_by_zeno_guard(self):
        system = bouncing_modes()
        trajectory = simulate_pwa(
            system, [2.0], t_final=5.0, max_step=0.1, max_switches=50
        )
        # The trajectory slides toward 0 and chatters; the Zeno guard
        # must stop it near the surface instead of hanging.
        assert not trajectory.completed
        assert trajectory.n_switches == 50
        assert abs(trajectory.final_state[0]) < 0.2
