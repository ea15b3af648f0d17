"""Tests for piecewise-quadratic synthesis and validation."""

import numpy as np
import pytest

import repro.sdp.barrier as barrier_module
from repro.engine import case_by_name
from repro.lyapunov import ENCODINGS, PiecewiseCandidate, synthesize_piecewise
from repro.systems import AffineSystem, HalfSpace, PolyhedralRegion, PwaMode, PwaSystem
from repro.validate import validate_piecewise


def shared_equilibrium_system():
    """Two modes with the SAME globally stable equilibrium at the origin
    (origin on region-0 side). A common quadratic Lyapunov function
    exists, so the piecewise LMI system is genuinely feasible."""
    mode0 = PwaMode(
        flow=AffineSystem([[-1.0, 0.0], [0.0, -2.0]], [0.0, 0.0]),
        region=PolyhedralRegion([HalfSpace((1, 0), 1)]),  # x >= -1
    )
    mode1 = PwaMode(
        flow=AffineSystem([[-3.0, 0.0], [0.0, -1.0]], [0.0, 0.0]),
        region=PolyhedralRegion([HalfSpace((-1, 0), -1, strict=True)]),
    )
    return PwaSystem([mode0, mode1])


@pytest.fixture(scope="module")
def engine_size3():
    case = case_by_name("size3")
    return case.switched_system(case.reference())


class TestSynthesizePiecewise:
    def test_feasible_on_shared_equilibrium(self):
        system = shared_equilibrium_system()
        candidate = synthesize_piecewise(
            system, encoding="continuous", max_iterations=20_000
        )
        assert candidate.feasible
        assert candidate.dimension == 2
        # V must be positive away from the origin on each side.
        assert candidate.value(0, np.array([1.0, 1.0])) > 0
        assert candidate.value(1, np.array([-2.0, 0.5])) > 0

    def test_continuity_encoding_exact_on_surface(self):
        system = shared_equilibrium_system()
        candidate = synthesize_piecewise(
            system, encoding="continuous", max_iterations=5_000
        )
        # P1 - P0 = sym(g_bar q^T) vanishes on the surface x = -1.
        for y in (-3.0, 0.0, 2.0):
            w = np.array([-1.0, y])
            assert candidate.value(0, w) == pytest.approx(
                candidate.value(1, w), rel=1e-9, abs=1e-9
            )

    def test_engine_case_proved_infeasible(self, engine_size3):
        """With the nominal reference both equilibria are locally stable
        in their own regions (bistable switched system): no global
        piecewise-quadratic certificate can exist. The ellipsoid burn-in
        claims the LMI empty in floats; tests/test_cegis.py pins the
        exact proof (the equilibrium witness)."""
        candidate = synthesize_piecewise(
            engine_size3, encoding="continuous", max_iterations=6_000
        )
        assert not candidate.feasible
        assert candidate.info["proved_infeasible"] or candidate.iterations == 6_000
        # The best iterate is still returned as a candidate.
        assert np.abs(candidate.p[0]).max() > 0

    def test_unknown_encoding(self, engine_size3):
        with pytest.raises(ValueError):
            synthesize_piecewise(engine_size3, encoding="sos")

    def test_rejects_three_modes(self):
        base = shared_equilibrium_system()
        system = PwaSystem(list(base.modes) + [base.modes[0]])
        with pytest.raises(ValueError):
            synthesize_piecewise(system)

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_both_encodings_run(self, encoding):
        system = shared_equilibrium_system()
        candidate = synthesize_piecewise(
            system, encoding=encoding, max_iterations=800
        )
        assert isinstance(candidate, PiecewiseCandidate)
        assert candidate.encoding == encoding
        assert candidate.synthesis_time > 0

    def test_polish_runs_on_feasible_system(self):
        system = shared_equilibrium_system()
        candidate = synthesize_piecewise(
            system, encoding="continuous", max_iterations=20_000
        )
        assert candidate.feasible
        assert candidate.info["polish_iterations"] > 0


class TestSharedPipeline:
    """Both encodings on the nominal size3 loop run the one burn-in plus
    polish pipeline and keep the paper's negative result."""

    def test_engine_float_claim_skips_polish(self, engine_size3):
        def refuse(*args, **kwargs):
            raise AssertionError("a claimed-empty system is not polished")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(barrier_module, "solve_lmi_barrier", refuse)
            candidate = synthesize_piecewise(
                engine_size3, encoding="continuous", max_iterations=6_000
            )
        assert not candidate.feasible
        assert candidate.info["proved_infeasible"]
        assert candidate.info["polish_iterations"] == 0

    def test_relaxed_candidate_fails_surface_validation(self, engine_size3):
        candidate = synthesize_piecewise(
            engine_size3, encoding="relaxed", max_iterations=4_000
        )
        report = validate_piecewise(
            candidate, engine_size3, conditions_scope="surface",
            max_boxes=4_000,
        )
        assert report.valid is False
        assert report.failed_conditions


class TestValidatePiecewise:
    def test_engine_candidate_fails_surface_condition(self, engine_size3):
        """The paper's negative result: exact validation of the
        switching-surface condition fails on the rounded candidate."""
        candidate = synthesize_piecewise(
            engine_size3, encoding="continuous", max_iterations=4_000
        )
        report = validate_piecewise(
            candidate, engine_size3, conditions_scope="surface", max_boxes=4_000
        )
        assert report.valid is False
        assert any(
            name.startswith("surface-nonincrease")
            for name in report.failed_conditions
        )
        # Witnesses are exact rational points on the surface.
        name = report.failed_conditions[0]
        witness = report.witnesses[name]
        halfspace = engine_size3.modes[0].region.halfspaces[0]
        point = [witness[f"w{i}"] for i in range(engine_size3.dimension)]
        assert halfspace.value(point) == 0

    def test_surface_scope_skips_region_conditions(self, engine_size3):
        candidate = synthesize_piecewise(
            engine_size3, encoding="continuous", max_iterations=500
        )
        report = validate_piecewise(
            candidate, engine_size3, conditions_scope="surface", max_boxes=1_000
        )
        assert set(report.conditions) == {
            "surface-nonincrease(0->1)",
            "surface-nonincrease(1->0)",
        }

    def test_report_properties(self, engine_size3):
        candidate = synthesize_piecewise(
            engine_size3, encoding="relaxed", max_iterations=500
        )
        report = validate_piecewise(
            candidate, engine_size3, conditions_scope="surface", max_boxes=1_000
        )
        assert report.time > 0
        assert report.sigfigs == 10
        # A near-zero best iterate can make the surface difference vanish
        # identically, so any tri-state verdict is structurally possible.
        assert report.valid in (True, False, None)
        assert set(report.conditions) == {
            "surface-nonincrease(0->1)",
            "surface-nonincrease(1->0)",
        }


class TestValidateAllScope:
    def test_all_scope_probes_region_conditions(self, engine_size3):
        from repro.lyapunov import synthesize_piecewise
        from repro.validate import validate_piecewise

        candidate = synthesize_piecewise(
            engine_size3, encoding="continuous", max_iterations=400
        )
        report = validate_piecewise(
            candidate, engine_size3, conditions_scope="all", max_boxes=300
        )
        assert set(report.conditions) == {
            "positivity(mode0)",
            "decrease(mode0)",
            "positivity(mode1)",
            "decrease(mode1)",
            "surface-nonincrease(0->1)",
            "surface-nonincrease(1->0)",
        }
        # Every found witness must be confirmed (exact rational point).
        for name, witness in report.witnesses.items():
            assert witness, name
