"""Tests for exact definiteness certificates (repro.exact.definiteness)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact import (
    RationalMatrix,
    definiteness_counterexample,
    gauss_positive_definite,
    ldl_positive_definite,
    sylvester_positive_definite,
)

ALL_PD_CHECKS = [
    sylvester_positive_definite,
    gauss_positive_definite,
    ldl_positive_definite,
]

entries = st.integers(min_value=-10, max_value=10)


def random_symmetric(n):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: RationalMatrix(rows).symmetrize())


symmetric_matrices = st.integers(min_value=1, max_value=5).flatmap(random_symmetric)


def gram(n):
    """Random G G^T + I: always positive definite."""
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(
        lambda rows: RationalMatrix(rows) @ RationalMatrix(rows).T
        + RationalMatrix.identity(n)
    )


PD_EXAMPLES = [
    RationalMatrix([[1]]),
    RationalMatrix([[2, 1], [1, 2]]),
    RationalMatrix([[4, 2, 0], [2, 5, 3], [0, 3, 6]]),
]

NOT_PD_EXAMPLES = [
    RationalMatrix([[0]]),
    RationalMatrix([[-1]]),
    RationalMatrix([[1, 2], [2, 1]]),  # eigenvalues 3, -1
    RationalMatrix([[0, 1], [1, 0]]),  # zero pivot first
    RationalMatrix([[1, 1], [1, 1]]),  # PSD but singular
]


class TestPositiveDefinite:
    @pytest.mark.parametrize("check", ALL_PD_CHECKS)
    @pytest.mark.parametrize("m", PD_EXAMPLES)
    def test_accepts_pd(self, check, m):
        assert check(m)

    @pytest.mark.parametrize("check", ALL_PD_CHECKS)
    @pytest.mark.parametrize("m", NOT_PD_EXAMPLES)
    def test_rejects_not_pd(self, check, m):
        assert not check(m)

    @pytest.mark.parametrize("check", ALL_PD_CHECKS)
    def test_requires_symmetric(self, check):
        with pytest.raises(ValueError):
            check(RationalMatrix([[1, 2], [0, 1]]))

    @settings(max_examples=40)
    @given(symmetric_matrices)
    def test_all_three_checks_agree(self, m):
        verdicts = {check(m) for check in ALL_PD_CHECKS}
        assert len(verdicts) == 1

    @settings(max_examples=30)
    @given(symmetric_matrices)
    def test_matches_numpy_eigenvalues(self, m):
        eig = np.linalg.eigvalsh(m.to_numpy())
        if abs(float(np.min(eig))) < 1e-9:
            return  # near-singular: float ground truth unreliable
        assert sylvester_positive_definite(m) == bool(np.min(eig) > 0)

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=4).flatmap(gram))
    def test_gram_plus_identity_is_pd(self, m):
        assert all(check(m) for check in ALL_PD_CHECKS)

    @settings(max_examples=40)
    @given(symmetric_matrices)
    def test_single_pass_matches_per_minor_sylvester(self, m):
        """The one-pass Bareiss Sylvester check must give the verdict of
        the textbook criterion (each minor as its own determinant)."""
        from repro.exact import bareiss_determinant

        reference = all(
            bareiss_determinant(m.leading_principal(k)) > 0
            for k in range(1, m.rows + 1)
        )
        assert sylvester_positive_definite(m) == reference


class TestCounterexample:
    @pytest.mark.parametrize("m", NOT_PD_EXAMPLES)
    def test_witness_refutes(self, m):
        v = definiteness_counterexample(m)
        assert v is not None
        assert any(x != 0 for x in v)
        assert m.quadratic_form(v) <= 0

    @pytest.mark.parametrize("m", PD_EXAMPLES)
    def test_no_witness_for_pd(self, m):
        assert definiteness_counterexample(m) is None

    @settings(max_examples=40)
    @given(symmetric_matrices)
    def test_witness_iff_not_pd(self, m):
        v = definiteness_counterexample(m)
        if sylvester_positive_definite(m):
            assert v is None
        else:
            assert v is not None
            assert m.quadratic_form(v) <= 0
            assert any(x != 0 for x in v)
