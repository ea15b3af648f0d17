"""Tests for the Lyapunov LMI solvers (repro.sdp)."""

import numpy as np
import pytest

from repro.engine import case_by_name
from repro.lyapunov import DEFAULT_NU, default_alpha, synthesize
from repro.sdp import (
    BACKENDS,
    LmiInfeasibleError,
    LyapunovLmiProblem,
    lyap_basis_tensor,
    solve_lyapunov_lmi,
)
from repro.sdp.ipm import _barrier_terms, solve_ipm
from repro.sdp.svec import basis_tensor, svec_dim

ALL_BACKENDS = sorted(BACKENDS)


def stable_matrix(n, seed=0, margin=0.5):
    """A random Hurwitz matrix with spectral abscissa <= -margin."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    abscissa = float(np.linalg.eigvals(a).real.max())
    return a - (abscissa + margin) * np.eye(n)


class TestProblem:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            LyapunovLmiProblem(np.ones((2, 3)))

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            LyapunovLmiProblem(np.eye(2), alpha=-1.0)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            LyapunovLmiProblem(np.eye(2), nu=0.0)

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            LyapunovLmiProblem(np.eye(2), margin=0.0)

    def test_margins_at_known_point(self):
        a = -np.eye(2)
        problem = LyapunovLmiProblem(a, margin=1e-6)
        floor, decay = problem.constraint_margins(np.eye(2))
        # P = I: floor = 1 - 1e-6, L(P) = -2I so decay = 2 - 1e-6.
        assert floor == pytest.approx(1.0, abs=1e-5)
        assert decay == pytest.approx(2.0, abs=1e-5)
        assert problem.is_strictly_feasible(np.eye(2))
        assert problem.residual(np.eye(2)) == 0.0

    def test_residual_positive_when_infeasible(self):
        problem = LyapunovLmiProblem(-np.eye(2))
        assert problem.residual(-np.eye(2)) > 0


class TestBackends:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_plain_lmi_feasible(self, backend, n):
        a = stable_matrix(n, seed=n)
        solution = solve_lyapunov_lmi(a, backend=backend)
        problem = LyapunovLmiProblem(a)
        assert problem.is_strictly_feasible(solution.p, slack=1e-10)
        assert np.allclose(solution.p, solution.p.T)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_alpha_constraint_enforced(self, backend):
        a = stable_matrix(6, seed=3, margin=2.0)
        alpha = 1.0
        solution = solve_lyapunov_lmi(a, alpha=alpha, backend=backend)
        p = solution.p
        decay = np.linalg.eigvalsh(a.T @ p + p @ a + alpha * p).max()
        assert decay < 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_nu_floor_enforced(self, backend):
        a = stable_matrix(4, seed=9)
        nu = 2.5
        solution = solve_lyapunov_lmi(a, nu=nu, backend=backend)
        assert np.linalg.eigvalsh(solution.p).min() >= nu

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_unstable_matrix_rejected(self, backend):
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(LmiInfeasibleError):
            solve_lyapunov_lmi(a, backend=backend)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_excessive_alpha_rejected(self, backend):
        a = -np.eye(3)  # decay rate exactly 2
        with pytest.raises(LmiInfeasibleError):
            solve_lyapunov_lmi(a, alpha=5.0, backend=backend)

    def test_unknown_backend(self):
        with pytest.raises(KeyError):
            solve_lyapunov_lmi(-np.eye(2), backend="mosek")

    def test_solution_metadata(self):
        solution = solve_lyapunov_lmi(-np.eye(3), backend="shift")
        assert solution.backend == "shift"
        assert solution.iterations >= 1
        assert solution.matrix is solution.p

    def test_ipm_returns_interior_point(self):
        """The analytic center should be far from the constraint floor."""
        a = stable_matrix(4, seed=1)
        shift_sol = solve_lyapunov_lmi(a, backend="shift")
        ipm_sol = solve_lyapunov_lmi(a, backend="ipm")
        problem = LyapunovLmiProblem(a)
        floor_shift, _ = problem.constraint_margins(shift_sol.p)
        floor_ipm, _ = problem.constraint_margins(ipm_sol.p)
        assert floor_ipm > floor_shift  # deeper in the cone


def einsum_barrier_terms(stack, inverse):
    """The contraction ``_barrier_terms`` replaces with one GEMM: the
    gradient ``tr(C_k X)`` and Hessian ``tr(C_k X C_l X)`` as einsums."""
    transformed = stack @ inverse
    return (
        np.einsum("kaa->k", transformed),
        np.einsum("kab,lba->kl", transformed, transformed),
    )


class TestIpm:
    @pytest.mark.parametrize("n", range(1, 22))
    def test_barrier_terms_match_einsum_oracle(self, n):
        rng = np.random.default_rng(n)
        raw = rng.normal(size=(svec_dim(n), n, n))
        a = stable_matrix(n, seed=n)
        stacks = {
            "random symmetric": raw + raw.transpose(0, 2, 1),
            "svec basis": basis_tensor(n),
            "L(E_k)": lyap_basis_tensor(a, default_alpha(a)),
        }
        x = rng.normal(size=(n, n))
        inverse = np.linalg.inv(x @ x.T + n * np.eye(n))
        for name, stack in stacks.items():
            gradient, hessian = _barrier_terms(stack, inverse)
            want_gradient, want_hessian = einsum_barrier_terms(stack, inverse)
            assert np.array_equal(gradient, want_gradient), name
            error = np.abs(hessian - want_hessian).max()
            assert error <= 1e-12 * np.abs(want_hessian).max(), name

    @pytest.mark.parametrize(
        ("case", "mode", "method", "stop", "iterations", "decrement"),
        [
            # The decrement reaches ~1e-10, below tol = 1e-8.
            ("size3", 0, "lmi", "converged", 29, (1e-12, 1e-8)),
            # Phase I leaves P on the eigenvalue floor (ROADMAP item 2):
            # the first line search accepts no step.
            ("size3", 1, "lmi-alpha+", "stalled", 1, (0.5, 2.0)),
            # The decrement bottoms out near 7e-7 and never reaches tol.
            ("size10", 0, "lmi", "stalled", 30, (1e-8, 1e-5)),
            # On the floor again: the Newton direction stops being a
            # descent direction, which reads as a zero decrement.
            ("size3", 0, "lmi-alpha+", "stalled", 19, (0.0, 0.0)),
        ],
    )
    def test_reports_why_it_stopped(
        self, case, mode, method, stop, iterations, decrement
    ):
        a = case_by_name(case).mode_matrix(mode)
        info = synthesize(method, a, backend="ipm").info
        assert (info["stop"], info["iterations"]) == (stop, iterations)
        low, high = decrement
        assert low <= info["newton_decrement"] <= high

    def test_reports_max_iterations(self):
        problem = LyapunovLmiProblem(case_by_name("size3").mode_matrix(0))
        _p, info = solve_ipm(problem, max_iterations=5)
        assert (info["stop"], info["iterations"]) == ("max-iterations", 5)

    @pytest.mark.xfail(
        strict=True,
        raises=np.linalg.LinAlgError,
        reason=(
            "ROADMAP item 2: Phase I (solve_shift) returns P on the "
            "eigenvalue floor, so P - nu_eff I = 0 and the first barrier "
            "inverse is singular. The fix (scale p0 by "
            "max(1, 2 nu_eff / lambda_min(p0))) turns 13 of the 80 "
            "fuzz-small records from 'infeasible' to 'ok', so it must "
            "re-pin bench/golden/fuzz-small.json."
        ),
    )
    def test_alpha_plus_on_scalar_system(self):
        # fuzz-small's stable/1/180421576: LinAlgError subclasses
        # ValueError, so the fuzzer and the runner tasks file this crash
        # as "infeasible".
        a = np.array([[-8.2]])
        candidate = synthesize("lmi-alpha+", a, backend="ipm")
        problem = LyapunovLmiProblem(a, alpha=default_alpha(a), nu=DEFAULT_NU)
        assert problem.is_strictly_feasible(candidate.p)
