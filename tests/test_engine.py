"""Tests for the case-study engine model and benchmark suite."""

import numpy as np
import pytest

from repro.engine import (
    MODES,
    THETA,
    BenchmarkCase,
    benchmark_suite,
    build_engine_plant,
    case_by_name,
    equilibrium_output,
    mode_equilibrium,
    mode_gains,
    nominal_reference,
    paper_controller,
)
from repro.engine.model import INPUT_NAMES, OUTPUT_NAMES, STATE_NAMES


def _pbh_deficient(a, other, stack_rows, tol=1e-9):
    """Eigenvalues where ``[A - lambda I | B]`` (or the row-stacked dual
    ``[A - lambda I; C]``) loses rank: the Popov-Belevitch-Hautus test,
    robust on stiff models where Krylov-matrix ranks underflow."""
    n = a.shape[0]
    scale = max(float(np.linalg.norm(a, 2)), 1.0)
    deficient = []
    for eigenvalue in np.linalg.eigvals(a):
        shifted = a - eigenvalue * np.eye(n)
        pencil = (
            np.vstack([shifted, other]) if stack_rows
            else np.hstack([shifted, other])
        )
        s = np.linalg.svd(pencil, compute_uv=False)
        if s[n - 1] <= tol * scale:
            deficient.append(complex(eigenvalue))
    return deficient


class TestPlant:
    def test_signature_matches_paper(self):
        plant = build_engine_plant()
        assert plant.n_states == 18
        assert plant.n_inputs == 3
        assert plant.n_outputs == 4

    def test_open_loop_stable(self):
        assert build_engine_plant().is_stable()

    def test_names_cover_dimensions(self):
        assert len(STATE_NAMES) == 18
        assert len(INPUT_NAMES) == 3
        assert len(OUTPUT_NAMES) == 4

    def test_deterministic(self):
        p1, p2 = build_engine_plant(), build_engine_plant()
        assert np.array_equal(p1.a, p2.a)
        assert np.array_equal(p1.b, p2.b)
        assert np.array_equal(p1.c, p2.c)

    def test_engine_is_minimal_pbh(self):
        """The synthetic engine must be a minimal realization: every
        state participates in the I/O behaviour (else balanced
        truncation orders would be misleading). PBH is the robust test
        for this stiff model."""
        plant = build_engine_plant()
        assert _pbh_deficient(plant.a, plant.b, stack_rows=False) == []
        assert _pbh_deficient(plant.a, plant.c, stack_rows=True) == []

    def test_every_actuation_channel_reaches_its_output(self):
        gain = build_engine_plant().dc_gain()
        # fuel -> LPC speed and HPC PR; nozzle -> Mach; IGV -> HPC speed.
        assert gain[0, 0] > 0.1
        assert gain[1, 0] > 0.1
        assert gain[2, 1] > 0.1
        assert gain[3, 2] > 0.3


class TestGainsAndController:
    def test_gain_values_match_paper(self):
        g0, g1 = mode_gains(0), mode_gains(1)
        assert g0.ki[0, 0] == 10.0 and g0.ki[1, 2] == 100.0 and g0.ki[2, 3] == 2.0
        assert g1.ki[0, 1] == 20.0
        assert g0.kp[0, 0] == 1.0 and g1.kp[0, 1] == 0.1
        assert g0.kp[1, 2] == 10.0 and g0.kp[2, 3] == 0.5

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            mode_gains(2)

    def test_switching_law(self):
        controller = paper_controller()
        r = np.array([5.0, 0.0, 0.0, 0.0])
        # r0 - y0 < Theta -> mode 0.
        assert controller.mode_of(np.array([4.5, 0, 0, 0]), r) == 0
        # r0 - y0 >= Theta -> mode 1.
        assert controller.mode_of(np.array([3.0, 0, 0, 0]), r) == 1
        # Boundary r0 - y0 == Theta belongs to mode 1 (non-strict guard).
        assert controller.mode_of(np.array([4.0, 0, 0, 0]), r) == 1

    def test_guards_partition(self):
        controller = paper_controller()
        rng = np.random.default_rng(0)
        r = np.array([5.0, 1.0, 0.5, 2.0])
        for y in rng.normal(scale=10.0, size=(200, 4)):
            modes = [
                all(c.holds(y, r) for c in conditions)
                for conditions in controller.guards
            ]
            assert sum(modes) == 1

    def test_both_modes_closed_loop_stable(self):
        """The headline design property: the paper's exact gains stabilize
        the synthetic plant in both operating modes."""
        case = case_by_name("size18")
        for mode in MODES:
            eigenvalues = np.linalg.eigvals(case.mode_matrix(mode))
            assert eigenvalues.real.max() < -0.1


class TestReferences:
    def test_equilibria_in_their_regions(self):
        plant = build_engine_plant()
        r = nominal_reference(plant)
        y0_mode1 = equilibrium_output(plant, mode_equilibrium(plant, 1, r))[0]
        # Mode-1 equilibrium satisfies the mode-1 guard with margin.
        assert r[0] - y0_mode1 >= THETA + 0.5
        # Mode-0 equilibrium tracks r0 exactly: guard value = Theta > 0.
        y0_mode0 = equilibrium_output(plant, mode_equilibrium(plant, 0, r))[0]
        assert y0_mode0 == pytest.approx(r[0], abs=1e-8)

    def test_mode1_tracks_its_outputs(self):
        plant = build_engine_plant()
        r = nominal_reference(plant)
        y = equilibrium_output(plant, mode_equilibrium(plant, 1, r))
        assert y[1:] == pytest.approx(r[1:], abs=1e-8)

    def test_switched_system_equilibria_in_regions(self):
        case = case_by_name("size18")
        r = case.reference()
        system = case.switched_system(r)
        for mode in MODES:
            assert system.modes[mode].equilibrium_in_region()


class TestBenchmarkSuite:
    def test_suite_composition(self):
        suite = benchmark_suite()
        names = [case.name for case in suite]
        assert names == [
            "size3i",
            "size3",
            "size5i",
            "size5",
            "size10i",
            "size10",
            "size15",
            "size18",
        ]

    def test_case_by_name_roundtrip(self):
        for case in benchmark_suite():
            again = case_by_name(case.name)
            assert again.size == case.size
            assert again.integer == case.integer

    def test_integer_cases_have_integer_entries(self):
        case = case_by_name("size5i")
        for m in (case.plant.a, case.plant.b, case.plant.c):
            assert np.array_equal(m, np.round(m))

    @pytest.mark.parametrize(
        "name",
        ["size3i", "size3", "size5i", "size5", "size10i", "size10", "size15", "size18"],
    )
    def test_every_case_closed_loop_stable(self, name):
        """Table I's precondition: all 16 single-mode benchmarks admit a
        Lyapunov function."""
        assert case_by_name(name).is_closed_loop_stable()

    def test_reduced_models_stay_minimal(self):
        for name in ("size3", "size5", "size10"):
            plant = case_by_name(name).plant
            assert _pbh_deficient(plant.a, plant.b, False, tol=1e-8) == [], name
            assert _pbh_deficient(plant.a, plant.c, True, tol=1e-8) == [], name

    def test_closed_loop_dimension(self):
        assert case_by_name("size18").closed_loop_dimension == 21
        assert case_by_name("size3").closed_loop_dimension == 6

    def test_plant_sizes(self):
        for case in benchmark_suite():
            assert case.plant.n_states == case.size
            assert case.plant.n_inputs == 3
            assert case.plant.n_outputs == 4


class TestFactSheet:
    def test_main_prints_the_case_study(self, capsys):
        from repro.engine.__main__ import main

        assert main() == 0
        out = capsys.readouterr().out
        assert "states:  18   inputs: 3   outputs: 4" in out
        loops = [line for line in out.splitlines() if " PM = " in line]
        assert len(loops) == 3
        assert all(" GM = " in line for line in loops)
        ladder = [line for line in out.splitlines() if " dim " in line]
        assert len(ladder) == 8
        assert all(
            line.endswith("closed loop stable in both modes")
            for line in ladder
        )
