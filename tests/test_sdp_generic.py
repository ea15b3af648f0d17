"""Tests for the ellipsoid-method LMI solver (repro.sdp.generic)."""

import numpy as np
import pytest

from repro.sdp import CompiledLmiSystem, LmiBlock, solve_lmi_ellipsoid


def diag_block(f0_diag, coeff_diags, margin=0.0, name=""):
    return LmiBlock(
        np.diag(np.asarray(f0_diag, dtype=float)),
        [np.diag(np.asarray(d, dtype=float)) for d in coeff_diags],
        margin=margin,
        name=name,
    )


class TestLmiBlock:
    def test_evaluate(self):
        block = diag_block([1, 1], [[1, 0], [0, 1]])
        m = block.evaluate(np.array([2.0, -3.0]))
        assert np.allclose(m, np.diag([3.0, -2.0]))

    def test_violation_sign(self):
        block = diag_block([1, 1], [[1, 0]], margin=0.0)
        violated, vector = block.violation(np.array([-2.0]))
        assert violated > 0  # min eig = -1 < 0
        assert np.allclose(np.abs(vector), [1.0, 0.0])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LmiBlock(np.eye(2), [np.eye(3)])


class TestEllipsoid:
    def test_simple_feasibility(self):
        # Find x with x*I - I/2 > 0, i.e. x > 1/2, and 2I - x*I > 0 (x < 2).
        blocks = [
            diag_block([-0.5, -0.5], [[1, 1]], name="lower"),
            diag_block([2, 2], [[-1, -1]], name="upper"),
        ]
        result = solve_lmi_ellipsoid(blocks, dimension=1)
        assert result.feasible
        assert 0.5 < result.x[0] < 2.0

    def test_two_dimensional(self):
        # [[x, y], [y, 1]] > 0 and x < 3: feasible, e.g. x=1, y=0.
        f0 = np.array([[0.0, 0.0], [0.0, 1.0]])
        fx = np.array([[1.0, 0.0], [0.0, 0.0]])
        fy = np.array([[0.0, 1.0], [1.0, 0.0]])
        cap = LmiBlock(np.array([[3.0]]), [np.array([[-1.0]]), np.array([[0.0]])])
        result = solve_lmi_ellipsoid(
            [LmiBlock(f0, [fx, fy], margin=0.1), cap], dimension=2
        )
        assert result.feasible
        x, y = result.x
        m = f0 + x * fx + y * fy
        assert np.linalg.eigvalsh(m).min() >= 0.1
        assert x < 3

    def test_infeasible_claims_emptiness(self):
        # x >= 1 and x <= -1 simultaneously: empty.
        blocks = [
            diag_block([-1], [[1]], name="lower"),
            diag_block([-1], [[-1]], name="upper"),
        ]
        result = solve_lmi_ellipsoid(blocks, dimension=1, initial_radius=100.0)
        assert result.proved_infeasible
        assert not result.feasible

    def test_budget_exhaustion_returns_best(self):
        blocks = [diag_block([-0.5], [[1]])]
        result = solve_lmi_ellipsoid(blocks, dimension=1, max_iterations=1)
        # One iteration from x=0 cannot reach feasibility (x must be > 1/2)
        assert not result.feasible
        assert result.worst_violation > 0

    def test_lyapunov_via_ellipsoid(self):
        """Cross-check against the dedicated solvers on a small system."""
        from repro.sdp import svec_basis

        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        basis = svec_basis(2)
        dim = len(basis)
        pd_block = LmiBlock(
            np.zeros((2, 2)), [e.copy() for e in basis], margin=0.05, name="P>0"
        )
        decay_block = LmiBlock(
            np.zeros((2, 2)),
            [-(a.T @ e + e @ a) for e in basis],
            margin=0.05,
            name="lyap",
        )
        bound_block = LmiBlock(
            10.0 * np.eye(2), [-e.copy() for e in basis], name="P<10I"
        )
        result = solve_lmi_ellipsoid(
            [pd_block, decay_block, bound_block], dimension=dim
        )
        assert result.feasible
        p = sum(x * e for x, e in zip(result.x, basis))
        assert np.linalg.eigvalsh(p).min() > 0
        assert np.linalg.eigvalsh(a.T @ p + p @ a).max() < 0

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            solve_lmi_ellipsoid([], dimension=0)
        with pytest.raises(ValueError):
            solve_lmi_ellipsoid([diag_block([1], [[1]])], dimension=2)

    def test_history_recorded(self):
        blocks = [diag_block([-0.5], [[1]])]
        result = solve_lmi_ellipsoid(
            blocks, dimension=1, record_history=True
        )
        assert result.feasible
        assert len(result.history) == result.iterations

    def test_empty_block_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            solve_lmi_ellipsoid([], dimension=1)

    def test_dimension_one_bisection_thin_interval(self):
        # Feasible set is the thin interval [1, 1.001]: the 1-D update
        # is interval bisection, and many halvings are needed before the
        # iterate lands inside.  Exercises the dimension==1 branch.
        blocks = [
            diag_block([-1], [[1]], name="lower"),
            diag_block([1.001], [[-1]], name="upper"),
        ]
        result = solve_lmi_ellipsoid(
            blocks, dimension=1, initial_radius=10.0
        )
        assert result.feasible
        assert 1.0 <= result.x[0] <= 1.001
        assert result.iterations > 1  # took at least one bisection cut

    def test_dimension_one_shape_collapse_breaks(self):
        # A single-point feasible set {1} shrunk to emptiness by a tiny
        # margin: the 1-D branch must terminate (emptiness proof or
        # interval collapse below the 1e-24 width floor), never claim
        # feasibility, and never loop to budget exhaustion.
        blocks = [
            diag_block([-1], [[1]], margin=1e-9, name="lower"),
            diag_block([1], [[-1]], margin=1e-9, name="upper"),
        ]
        result = solve_lmi_ellipsoid(
            blocks, dimension=1, initial_radius=10.0, max_iterations=10_000,
        )
        assert not result.feasible
        assert result.proved_infeasible or result.iterations < 10_000

    def test_depth_one_infeasibility_proof(self):
        # Strict margins make x >= 1+m and x <= -1+m jointly empty with
        # slack, so a cut of depth >= 1 appears and proves emptiness.
        blocks = [
            diag_block([-1], [[1]], margin=0.1, name="lower"),
            diag_block([-1], [[-1]], margin=0.1, name="upper"),
        ]
        result = solve_lmi_ellipsoid(blocks, dimension=1, initial_radius=100.0)
        assert result.proved_infeasible
        assert not result.feasible

    def test_depth_one_proof_multidim(self):
        # Same emptiness proof through the general (dimension >= 2)
        # deep-cut branch rather than the 1-D bisection special case.
        blocks = [
            diag_block([-1, -1], [[1, 1], [0, 0]], name="lower"),
            diag_block([-1, -1], [[-1, -1], [0, 0]], name="upper"),
        ]
        result = solve_lmi_ellipsoid(blocks, dimension=2, initial_radius=50.0)
        assert result.proved_infeasible
        assert not result.feasible


class TestCompiledLmiSystem:
    def _blocks(self):
        rng = np.random.default_rng(7)
        blocks = []
        for size in (1, 2, 3, 2):
            f0 = rng.normal(size=(size, size))
            f0 = (f0 + f0.T) / 2
            coeffs = []
            for _ in range(3):
                c = rng.normal(size=(size, size))
                coeffs.append((c + c.T) / 2)
            blocks.append(LmiBlock(f0, coeffs, margin=0.05 * size))
        return blocks

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompiledLmiSystem([], 1)

    def test_evaluate_matches_blocks(self):
        blocks = self._blocks()
        system = CompiledLmiSystem(blocks, 3)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.normal(size=3)
            for i, block in enumerate(blocks):
                assert np.allclose(
                    system.evaluate(i, x), block.evaluate(x), atol=1e-12
                )

    def test_violations_and_gradient_match_blocks(self):
        blocks = self._blocks()
        system = CompiledLmiSystem(blocks, 3)
        rng = np.random.default_rng(13)
        for _ in range(5):
            x = rng.normal(size=3)
            violations = system.violations(x)
            for i, block in enumerate(blocks):
                violated, vector = block.violation(x)
                assert abs(violations[i] - violated) < 1e-12
                grad = system.gradient(i, vector)
                expected = np.array(
                    [-vector @ c @ vector for c in block.coefficients]
                )
                assert np.allclose(grad, expected, atol=1e-12)

    def test_oracle_matches_per_block_argmax(self):
        blocks = self._blocks()
        system = CompiledLmiSystem(blocks, 3)
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.normal(size=3)
            worst, vector, index, violations = system.oracle(x)
            per_block = [b.violation(x)[0] for b in blocks]
            assert index == int(np.argmax(per_block))
            assert abs(worst - max(per_block)) < 1e-12
            if worst > 0:
                # The returned eigenvector witnesses the violation.
                m = blocks[index].evaluate(x)
                rayleigh = vector @ m @ vector
                assert abs(
                    (blocks[index].margin - rayleigh) - worst
                ) < 1e-10

    def test_active_set_matches_full_sweep(self):
        from repro.sdp import svec_basis

        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        basis = svec_basis(2)
        dim = len(basis)
        blocks = [
            LmiBlock(np.zeros((2, 2)), [e.copy() for e in basis],
                     margin=0.05, name="P>0"),
            LmiBlock(np.zeros((2, 2)),
                     [-(a.T @ e + e @ a) for e in basis],
                     margin=0.05, name="lyap"),
            LmiBlock(10.0 * np.eye(2), [-e.copy() for e in basis],
                     name="P<10I"),
        ]
        full = solve_lmi_ellipsoid(blocks, dimension=dim)
        active = solve_lmi_ellipsoid(blocks, dimension=dim, sweep_every=4)
        assert full.feasible and active.feasible
        # Feasibility is always confirmed by a full sweep, so the
        # active-set iterate satisfies every block exactly like the
        # full-sweep one.
        for result in (full, active):
            p = sum(x * e for x, e in zip(result.x, basis))
            assert np.linalg.eigvalsh(p).min() > 0
            assert np.linalg.eigvalsh(a.T @ p + p @ a).max() < 0

    def test_batch_oracle_off_matches_on(self):
        blocks = self._blocks()
        on = solve_lmi_ellipsoid(blocks, dimension=3, max_iterations=500)
        off = solve_lmi_ellipsoid(
            blocks, dimension=3, max_iterations=500, batch_oracle=False,
        )
        assert on.feasible == off.feasible
        assert on.iterations == off.iterations
        assert np.allclose(on.x, off.x, atol=1e-9)
