"""Tests for exact factorizations (repro.exact.factor)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact import (
    RationalMatrix,
    bareiss_determinant,
    determinant,
    gauss_pivots,
    inverse,
    iter_leading_principal_minors,
    ldl,
    leading_principal_minors,
    solve,
    solve_vector,
)

entries = st.integers(min_value=-20, max_value=20)
fraction_entries = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def square(n, elements=entries):
    return st.lists(
        st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RationalMatrix)


small_square = st.integers(min_value=1, max_value=5).flatmap(square)
small_symmetric = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: square(n, fraction_entries).map(RationalMatrix.symmetrize)
)


class TestDeterminant:
    def test_known(self):
        assert bareiss_determinant(RationalMatrix([[1, 2], [3, 4]])) == -2
        assert determinant(RationalMatrix([[5]])) == 5

    def test_singular(self):
        assert bareiss_determinant(RationalMatrix([[1, 2], [2, 4]])) == 0

    def test_needs_pivot_swap(self):
        m = RationalMatrix([[0, 1], [1, 0]])
        assert bareiss_determinant(m) == -1

    def test_non_square(self):
        with pytest.raises(ValueError):
            bareiss_determinant(RationalMatrix([[1, 2]]))

    @settings(max_examples=40)
    @given(small_square)
    def test_matches_numpy(self, m):
        expected = np.linalg.det(m.to_numpy())
        got = float(bareiss_determinant(m))
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-6)

    @settings(max_examples=40)
    @given(square(3), square(3))
    def test_multiplicative(self, a, b):
        assert bareiss_determinant(a @ b) == bareiss_determinant(
            a
        ) * bareiss_determinant(b)


class TestLeadingPrincipalMinors:
    def test_known(self):
        m = RationalMatrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        assert leading_principal_minors(m) == [2, 3, 4]

    def test_single_entry(self):
        assert leading_principal_minors(RationalMatrix([[7]])) == [7]

    def test_zero_first_minor_falls_back(self):
        # Pivot-free Bareiss stalls on the zero; remaining minors must
        # still come out exact.
        m = RationalMatrix([[0, 1], [1, 0]])
        assert leading_principal_minors(m) == [0, -1]

    def test_singular_leading_block(self):
        m = RationalMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        assert leading_principal_minors(m) == [1, 0, -1]

    def test_non_square(self):
        with pytest.raises(ValueError):
            leading_principal_minors(RationalMatrix([[1, 2]]))

    def test_iterator_is_lazy(self):
        minors = iter_leading_principal_minors(
            RationalMatrix([[-1, 0], [0, 1]])
        )
        assert next(minors) == -1  # consumers may stop here

    @settings(max_examples=40)
    @given(small_square)
    def test_matches_per_k_determinants(self, m):
        assert leading_principal_minors(m) == [
            bareiss_determinant(m.leading_principal(k))
            for k in range(1, m.rows + 1)
        ]

    @settings(max_examples=40)
    @given(small_symmetric)
    def test_symmetric_rational_matches_per_k_determinants(self, m):
        # Symmetric input takes the mirrored-elimination fast path;
        # singular and indefinite matrices exercise the fallback.
        assert leading_principal_minors(m) == [
            bareiss_determinant(m.leading_principal(k))
            for k in range(1, m.rows + 1)
        ]

    @settings(max_examples=40)
    @given(small_square)
    def test_last_minor_is_determinant(self, m):
        assert leading_principal_minors(m)[-1] == bareiss_determinant(m)


class TestSolveInverse:
    def test_solve_known(self):
        a = RationalMatrix([[2, 0], [0, 4]])
        b = RationalMatrix([[1], [1]])
        assert solve(a, b) == RationalMatrix([["1/2"], ["1/4"]])

    def test_solve_vector(self):
        a = RationalMatrix([[1, 1], [0, 1]])
        assert solve_vector(a, [3, 1]) == [Fraction(2), Fraction(1)]

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            solve(RationalMatrix([[1, 1], [1, 1]]), RationalMatrix([[1], [1]]))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            solve(RationalMatrix([[1, 2]]), RationalMatrix([[1]]))

    def test_rhs_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve(RationalMatrix([[1]]), RationalMatrix([[1], [2]]))

    @settings(max_examples=40)
    @given(small_square)
    def test_inverse_roundtrip(self, m):
        if bareiss_determinant(m) == 0:
            return
        assert m @ inverse(m) == RationalMatrix.identity(m.rows)

    @settings(max_examples=40)
    @given(square(3), st.lists(entries, min_size=3, max_size=3))
    def test_solve_then_multiply(self, a, rhs):
        if bareiss_determinant(a) == 0:
            return
        x = solve_vector(a, rhs)
        assert a.dot(x) == [Fraction(v) for v in rhs]


class TestGaussPivotsAndLDL:
    def test_pivots_positive_definite(self):
        m = RationalMatrix([[2, 1], [1, 2]])
        assert gauss_pivots(m) == [Fraction(2), Fraction(3, 2)]

    def test_pivots_zero_returns_none(self):
        assert gauss_pivots(RationalMatrix([[0, 1], [1, 0]])) is None

    def test_ldl_reconstructs(self):
        m = RationalMatrix([[4, 2, 0], [2, 5, 3], [0, 3, 6]])
        lower, diag = ldl(m)
        d = RationalMatrix.diagonal(diag)
        assert lower @ d @ lower.T == m

    def test_ldl_requires_symmetric(self):
        with pytest.raises(ValueError):
            ldl(RationalMatrix([[1, 2], [3, 4]]))

    def test_ldl_zero_pivot(self):
        assert ldl(RationalMatrix([[0, 1], [1, 0]])) is None

    @settings(max_examples=40)
    @given(square(4))
    def test_ldl_congruence_property(self, g):
        m = (g @ g.T).symmetrize()
        result = ldl(m)
        if result is None:
            return
        lower, diag = result
        assert lower @ RationalMatrix.diagonal(diag) @ lower.T == m
