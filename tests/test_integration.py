"""Cross-module integration tests: the full verification pipeline.

These tests exercise the pipeline end to end the way the paper does —
model → reduction → closed loop → synthesis → exact validation → robust
region — and cross-check the *semantic* consistency between layers
(e.g. a validated Lyapunov function must actually decrease along
simulated trajectories; ICP verdicts must agree with exact linear
algebra)."""

from fractions import Fraction

import numpy as np
import pytest

import repro
from repro.engine import case_by_name
from repro.exact import RationalMatrix, is_hurwitz_matrix
from repro.robust import synthesize_robust_level
from repro.validate import validate_candidate


class TestPipelineEndToEnd:
    def test_small_case_full_chain(self):
        """size3i: synthesis, validation, exact Hurwitz proof, robust
        region — everything must agree."""
        case = case_by_name("size3i")
        system = case.switched_system(case.reference())
        for mode in (0, 1):
            a = case.mode_matrix(mode)
            # exact stability proof of the mode matrix itself
            assert is_hurwitz_matrix(RationalMatrix.from_numpy(a))
            candidate = repro.synthesize("lmi", a, backend="shift")
            report = validate_candidate(candidate, a)
            assert report.valid is True
            flow = system.modes[mode].flow
            halfspace = system.modes[mode].region.halfspaces[0]
            region = synthesize_robust_level(
                flow, halfspace, candidate.exact_p(10)
            )
            assert region.bounded and region.k > 0

    def test_lyapunov_decreases_along_simulation(self):
        """The validated V must decrease along an actual trajectory."""
        case = case_by_name("size5")
        system = case.switched_system(case.reference())
        flow = system.modes[0].flow
        a = case.mode_matrix(0)
        candidate = repro.synthesize("eq-num", a)
        assert validate_candidate(candidate, a).valid
        w_eq = flow.equilibrium()
        rng = np.random.default_rng(3)
        w0 = w_eq + rng.normal(scale=0.1, size=len(w_eq))
        trajectory = repro.simulate_affine(flow, w0, t_final=5.0)
        values = [
            candidate.value(state, center=w_eq) for state in trajectory.states
        ]
        # Monotone decrease up to integrator noise.
        diffs = np.diff(values)
        assert values[-1] < values[0] * 1e-3
        assert (diffs <= 1e-9 * max(values)).all()

    def test_reduced_models_inherit_stability_story(self):
        """Every reduction level yields the same verdict pattern."""
        for name in ("size3", "size5", "size10", "size15"):
            case = case_by_name(name)
            for mode in (0, 1):
                a = case.mode_matrix(mode)
                candidate = repro.synthesize("modal", a)
                assert validate_candidate(candidate, a).valid is True

    def test_robust_region_blocks_switching_exactly(self):
        """Exact semantics of the robust level: the sublevel set at the
        synthesized k contains no surface point with outward flow, and
        slightly above k such a point exists (checked via the exact
        minimizer)."""
        case = case_by_name("size5")
        system = case.switched_system(case.reference())
        flow = system.modes[0].flow
        halfspace = system.modes[0].region.halfspaces[0]
        candidate = repro.synthesize("lmi-alpha", case.mode_matrix(0))
        p_exact = candidate.exact_p(10)
        region = synthesize_robust_level(flow, halfspace, p_exact)
        assert region.bounded
        minimizer = region.minimizer
        # The minimizer witnesses tightness: on the surface, not inward.
        geometry = region.geometry
        on_surface = (
            sum(g * x for g, x in zip(geometry.normal, minimizer))
            + geometry.offset
        )
        assert on_surface == 0
        assert geometry.inward_derivative(minimizer) <= 0
        # And its V-value equals k exactly (about the *exact* equilibrium,
        # the same one the synthesis used).
        from repro.exact import solve_vector, to_fraction

        w_eq_exact = solve_vector(
            RationalMatrix.from_numpy(flow.a),
            [-to_fraction(x) for x in flow.b.tolist()],
        )
        shifted = [m - e for m, e in zip(minimizer, w_eq_exact)]
        assert p_exact.quadratic_form(shifted) == region.k

    def test_icp_agrees_with_exact_validators_on_grid(self):
        """Every validator family must give identical verdicts on a mix
        of valid and broken candidates."""
        case = case_by_name("size3")
        a = case.mode_matrix(0)
        good = repro.synthesize("eq-num", a)
        bad = repro.LyapunovCandidate(-good.p, method="negated")
        for candidate, expected in ((good, True), (bad, False)):
            for validator in ("sylvester", "gauss", "ldl", "sympy", "icp"):
                report = validate_candidate(candidate, a, validator=validator)
                assert report.valid is expected, (validator, expected)

    def test_switched_simulation_respects_verified_regions(self):
        """Trajectories from inside a certified robust region never
        switch; this is the headline semantic link between the symbolic
        and the dynamic sides."""
        case = case_by_name("size3")
        system = case.switched_system(case.reference())
        flow = system.modes[0].flow
        halfspace = system.modes[0].region.halfspaces[0]
        candidate = repro.synthesize("lmi", case.mode_matrix(0), backend="ipm")
        p_exact = candidate.exact_p(10)
        region = synthesize_robust_level(flow, halfspace, p_exact)
        k = region.k_float()
        w_eq = flow.equilibrium()
        p = candidate.p
        rng = np.random.default_rng(11)
        for _ in range(3):
            direction = rng.normal(size=len(w_eq))
            scale = np.sqrt(direction @ p @ direction)
            w0 = w_eq + direction * (0.85 * np.sqrt(k) / scale)
            trajectory = repro.simulate_pwa(system, w0, t_final=25.0)
            assert trajectory.n_switches == 0
            assert np.linalg.norm(trajectory.final_state - w_eq) < 1e-3


class TestNumericExactBridge:
    def test_exact_p_roundtrip_preserves_validation(self):
        case = case_by_name("size5")
        a = case.mode_matrix(1)
        candidate = repro.synthesize("lmi-alpha+", a, backend="ipm")
        # Raw binary floats (sigfigs=None) validate too: the synthesis
        # margin dominates the encoding error.
        report = validate_candidate(candidate, a, sigfigs=None)
        assert report.valid is True

    def test_mode_matrices_match_affine_flows(self):
        case = case_by_name("size10")
        r = case.reference()
        system = case.switched_system(r)
        for mode in (0, 1):
            assert np.allclose(
                case.mode_matrix(mode), system.modes[mode].flow.a
            )

    def test_equilibrium_consistency_numeric_vs_exact(self):
        from repro.exact import solve_vector, to_fraction

        case = case_by_name("size5")
        system = case.switched_system(case.reference())
        flow = system.modes[0].flow
        numeric = flow.equilibrium()
        exact = solve_vector(
            RationalMatrix.from_numpy(flow.a),
            [-to_fraction(x) for x in flow.b.tolist()],
        )
        assert np.allclose(numeric, [float(x) for x in exact], atol=1e-9)
