"""Tests for the log-barrier block-LMI engine and the shared
burn-in-plus-polish pipeline (repro.sdp.barrier)."""

import numpy as np
import pytest

import repro.sdp.barrier as barrier_module
from repro.sdp import (
    CompiledLmiSystem,
    LmiBlock,
    solve_lmi_barrier,
    solve_lmi_ellipsoid,
    solve_lmi_hybrid,
    svec_basis,
)


def diag_block(f0_diag, coeff_diags, margin=0.0, name=""):
    return LmiBlock(
        np.diag(np.asarray(f0_diag, dtype=float)),
        [np.diag(np.asarray(d, dtype=float)) for d in coeff_diags],
        margin=margin,
        name=name,
    )


def compile_1d(*blocks):
    return CompiledLmiSystem(list(blocks), dimension=1)


class TestBarrier:
    def test_simple_interval(self):
        # x > 1/2 and x < 2: margin maximized at x = 5/4 with t = 3/4.
        system = compile_1d(
            diag_block([-0.5], [[1]], name="lower"),
            diag_block([2.0], [[-1]], name="upper"),
        )
        result = solve_lmi_barrier(system, target_margin=10.0)
        assert result.feasible
        assert 0.5 < result.x[0] < 2.0
        assert result.t_star == pytest.approx(0.75, abs=1e-3)

    def test_early_stop_at_target(self):
        system = compile_1d(diag_block([-0.5], [[1]], name="lower"))
        result = solve_lmi_barrier(system, target_margin=0.01)
        assert result.feasible
        assert result.t_star > 0.01

    def test_infeasible_reports_negative_margin(self):
        system = compile_1d(
            diag_block([-1.0], [[1]], name="x>=1"),
            diag_block([-1.0], [[-1]], name="x<=-1"),
        )
        result = solve_lmi_barrier(system)
        assert not result.feasible
        assert result.t_star <= 0
        # The best margin of this system is -1 (at x = 0).
        assert result.t_star == pytest.approx(-1.0, abs=1e-2)

    def test_validation(self):
        system = compile_1d(diag_block([1], [[1]]))
        with pytest.raises(ValueError):
            solve_lmi_barrier(system, pull=1.0)
        with pytest.raises(ValueError):
            solve_lmi_barrier(system, initial=np.zeros(2))

    def test_compiled_only_matches_blocks_path(self):
        """A system grown by ``with_cuts`` (the CEGIS loop's path)
        polishes exactly like one compiled from the full block list."""
        lower = diag_block([-0.5], [[1]], name="lower")
        upper = diag_block([2.0], [[-1]], name="upper")
        direct = solve_lmi_barrier(compile_1d(lower, upper))
        grown = solve_lmi_barrier(compile_1d(lower).with_cuts([upper]))
        assert grown.t_star == direct.t_star
        assert np.array_equal(grown.x, direct.x)

    def test_lyapunov_block_system(self):
        """Same cross-check as the ellipsoid: find P > 0 with
        A^T P + P A < 0 via generic blocks."""
        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        basis = svec_basis(2)
        blocks = [
            LmiBlock(np.zeros((2, 2)), [e.copy() for e in basis], name="P>0"),
            LmiBlock(
                np.zeros((2, 2)),
                [-(a.T @ e + e @ a) for e in basis],
                name="lyap",
            ),
            LmiBlock(5.0 * np.eye(2), [-e.copy() for e in basis], name="cap"),
        ]
        result = solve_lmi_barrier(
            CompiledLmiSystem(blocks, len(basis)), target_margin=0.05
        )
        assert result.feasible
        p = sum(x * e for x, e in zip(result.x, basis))
        assert np.linalg.eigvalsh(p).min() > 0
        assert np.linalg.eigvalsh(a.T @ p + p @ a).max() < 0

    def test_agrees_with_ellipsoid_verdicts(self):
        """Cross-engine consistency on feasible and infeasible systems."""
        feasible = [
            diag_block([-0.5, -0.5], [[1, 1]], name="lower"),
            diag_block([2, 2], [[-1, -1]], name="upper"),
        ]
        b = solve_lmi_barrier(compile_1d(*feasible))
        e = solve_lmi_ellipsoid(feasible, dimension=1)
        assert b.feasible and e.feasible

        infeasible = [
            diag_block([-1], [[1]], name="lower"),
            diag_block([-1], [[-1]], name="upper"),
        ]
        b2 = solve_lmi_barrier(compile_1d(*infeasible))
        e2 = solve_lmi_ellipsoid(infeasible, dimension=1)
        assert not b2.feasible
        assert e2.proved_infeasible


def _recording_ellipsoid(calls):
    solve = barrier_module.solve_lmi_ellipsoid

    def recording(*args, **kwargs):
        result = solve(*args, **kwargs)
        calls.append((kwargs["initial_center"], result))
        return result

    return recording


class TestHybrid:
    def test_emptiness_claim_skips_the_polish(self):
        def refuse(*args, **kwargs):
            raise AssertionError("a claimed-empty system is not polished")

        system = compile_1d(
            diag_block([-1], [[1]], name="x>=1"),
            diag_block([-1], [[-1]], name="x<=-1"),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(barrier_module, "solve_lmi_barrier", refuse)
            result = solve_lmi_hybrid(system, 100.0, 1_000)
        assert result.proved_infeasible
        assert not result.feasible
        assert result.polish_iterations == 0
        assert not result.polished

    def test_polish_never_loses_margin(self):
        system = compile_1d(
            diag_block([-0.5], [[1]], name="lower"),
            diag_block([2.0], [[-1]], name="upper"),
        )
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                barrier_module, "solve_lmi_ellipsoid",
                _recording_ellipsoid(calls),
            )
            result = solve_lmi_hybrid(system, 10.0, 1_000)
        [(_, burn_in)] = calls
        assert result.feasible
        assert result.polish_iterations > 0
        assert result.worst_violation <= burn_in.worst_violation
        assert result.worst_violation == pytest.approx(
            float(system.violations(result.x).max()), abs=1e-12
        )

    def test_claimed_empty_warm_start_is_solved_cold(self):
        # The ball of radius 1 around x = 100 misses [1/2, 2]; the one
        # around the origin does not.
        system = compile_1d(
            diag_block([-0.5], [[1]], name="lower"),
            diag_block([2.0], [[-1]], name="upper"),
        )
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                barrier_module, "solve_lmi_ellipsoid",
                _recording_ellipsoid(calls),
            )
            result = solve_lmi_hybrid(
                system, 1.0, 1_000, center=np.array([100.0])
            )
        [(warm, claim), (cold, solved)] = calls
        assert warm[0] == 100.0 and claim.proved_infeasible
        assert cold is None and not solved.proved_infeasible
        assert not result.proved_infeasible
        assert result.feasible
        assert result.iterations == claim.iterations + solved.iterations
        assert 0.5 < result.x[0] < 2.0
