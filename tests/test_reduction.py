"""Tests for Gramians and balanced truncation (repro.reduction)."""

import numpy as np
import pytest

from repro.reduction import (
    balance,
    balanced_truncation,
    controllability_gramian,
    observability_gramian,
)
from repro.systems import StateSpace


def random_stable_system(n, m=2, p=2, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(n)
    return StateSpace(a, rng.normal(size=(n, m)), rng.normal(size=(p, n)))


class TestGramians:
    def test_controllability_equation(self):
        sys = random_stable_system(5, seed=1)
        wc = controllability_gramian(sys)
        residual = sys.a @ wc + wc @ sys.a.T + sys.b @ sys.b.T
        assert np.allclose(residual, 0.0, atol=1e-8)
        assert np.allclose(wc, wc.T)

    def test_observability_equation(self):
        sys = random_stable_system(5, seed=2)
        wo = observability_gramian(sys)
        residual = sys.a.T @ wo + wo @ sys.a + sys.c.T @ sys.c
        assert np.allclose(residual, 0.0, atol=1e-8)

    def test_gramians_psd(self):
        sys = random_stable_system(6, seed=3)
        assert np.linalg.eigvalsh(controllability_gramian(sys)).min() >= -1e-10
        assert np.linalg.eigvalsh(observability_gramian(sys)).min() >= -1e-10

    def test_unstable_rejected(self):
        sys = StateSpace([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            controllability_gramian(sys)
        with pytest.raises(ValueError):
            observability_gramian(sys)

    def test_hankel_first_order(self):
        # G(s) = 1/(s + a): single Hankel value 1/(2a).
        sys = StateSpace([[-2.0]], [[1.0]], [[1.0]])
        assert balance(sys).hankel_values == pytest.approx([0.25])

    def test_hankel_sorted_descending(self):
        values = balance(random_stable_system(6, seed=4)).hankel_values
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))


class TestBalancedTruncation:
    def test_balanced_gramians_are_diagonal_equal(self):
        sys = random_stable_system(5, seed=5)
        realization = balance(sys)
        wc = controllability_gramian(realization.system)
        wo = observability_gramian(realization.system)
        expected = np.diag(realization.hankel_values)
        assert np.allclose(wc, expected, atol=1e-6)
        assert np.allclose(wo, expected, atol=1e-6)

    def test_transformation_consistency(self):
        sys = random_stable_system(4, seed=6)
        realization = balance(sys)
        assert np.allclose(realization.t @ realization.t_inv, np.eye(4), atol=1e-8)
        assert np.allclose(
            realization.t_inv @ sys.a @ realization.t,
            realization.system.a,
            atol=1e-8,
        )

    def test_truncation_preserves_stability(self):
        sys = random_stable_system(8, seed=7)
        for order in (1, 3, 6):
            reduced = balanced_truncation(sys, order)
            assert reduced.n_states == order
            assert reduced.is_stable()

    def test_truncation_preserves_io_shape(self):
        sys = random_stable_system(6, m=3, p=4, seed=8)
        reduced = balanced_truncation(sys, 2)
        assert reduced.n_inputs == 3
        assert reduced.n_outputs == 4

    def test_full_order_matches_dc_gain(self):
        sys = random_stable_system(5, seed=9)
        reduced = balanced_truncation(sys, 5)
        assert np.allclose(reduced.dc_gain(), sys.dc_gain(), atol=1e-8)

    def test_error_bound_holds_at_dc(self):
        """|G(0) - G_r(0)| <= 2 sum sigma_tail (H-inf bound at s=0)."""
        sys = random_stable_system(7, seed=10)
        realization = balance(sys)
        for order in (2, 4):
            reduced = realization.truncate(order)
            error = np.linalg.norm(sys.dc_gain() - reduced.dc_gain(), 2)
            assert error <= realization.error_bound(order) + 1e-8

    def test_order_validation(self):
        realization = balance(random_stable_system(3, seed=11))
        with pytest.raises(ValueError):
            realization.truncate(0)
        with pytest.raises(ValueError):
            realization.truncate(4)
