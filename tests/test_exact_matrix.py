"""Tests for RationalMatrix (repro.exact.matrix)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import benchmark_suite
from repro.exact import RationalMatrix
from repro.lyapunov import synthesize
from repro.validate.pipeline import lie_derivative_exact

entries = st.integers(min_value=-50, max_value=50)


def square_matrices(n_max=4):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(RationalMatrix)
    )


class TestConstruction:
    def test_shape(self):
        m = RationalMatrix([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)

    def test_entries_are_fractions(self):
        m = RationalMatrix([["0.5", 1]])
        assert m[0, 0] == Fraction(1, 2)
        assert isinstance(m[0, 1], Fraction)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix([])

    def test_identity_and_zeros(self):
        assert RationalMatrix.identity(2) == RationalMatrix([[1, 0], [0, 1]])
        assert RationalMatrix.zeros(2, 3).is_zero()

    def test_diagonal(self):
        d = RationalMatrix.diagonal([1, 2, 3])
        assert d[1, 1] == 2 and d[0, 1] == 0

    def test_from_numpy_roundtrip(self):
        a = np.array([[0.25, -1.5], [3.0, 0.0]])
        m = RationalMatrix.from_numpy(a)
        assert m[0, 0] == Fraction(1, 4)
        assert np.array_equal(m.to_numpy(), a)

    def test_from_numpy_1d_becomes_column(self):
        m = RationalMatrix.from_numpy(np.array([1.0, 2.0]))
        assert m.shape == (2, 1)


class TestArithmetic:
    def test_add_sub(self):
        a = RationalMatrix([[1, 2], [3, 4]])
        b = RationalMatrix([[4, 3], [2, 1]])
        assert a + b == RationalMatrix([[5, 5], [5, 5]])
        assert (a + b) - b == a

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1]]) + RationalMatrix([[1, 2]])

    def test_matmul(self):
        a = RationalMatrix([[1, 2], [3, 4]])
        b = RationalMatrix([[0, 1], [1, 0]])
        assert a @ b == RationalMatrix([[2, 1], [4, 3]])

    def test_matmul_mismatch(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2]]) @ RationalMatrix([[1, 2]])

    def test_scale(self):
        assert RationalMatrix([[2, 4]]).scale("1/2") == RationalMatrix([[1, 2]])
        assert 2 * RationalMatrix([[1]]) == RationalMatrix([[2]])

    def test_neg(self):
        assert -RationalMatrix([[1, -2]]) == RationalMatrix([[-1, 2]])

    def test_trace(self):
        assert RationalMatrix([[1, 9], [9, 2]]).trace() == 3

    def test_quadratic_form(self):
        p = RationalMatrix([[2, 0], [0, 3]])
        assert p.quadratic_form([1, 2]) == 2 + 12

    def test_dot(self):
        m = RationalMatrix([[1, 2], [3, 4]])
        assert m.dot([1, 1]) == [3, 7]

    @given(square_matrices(), square_matrices())
    def test_transpose_antihomomorphism(self, a, b):
        if a.cols == b.rows:
            assert (a @ b).T == b.T @ a.T

    @given(square_matrices())
    def test_identity_neutral(self, m):
        eye = RationalMatrix.identity(m.rows)
        assert eye @ m == m and m @ eye == m


class TestStructure:
    def test_leading_principal(self):
        m = RationalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert m.leading_principal(2) == RationalMatrix([[1, 2], [4, 5]])
        with pytest.raises(ValueError):
            m.leading_principal(4)

    def test_stacking(self):
        a = RationalMatrix([[1], [2]])
        b = RationalMatrix([[3], [4]])
        assert a.hstack(b) == RationalMatrix([[1, 3], [2, 4]])
        assert a.vstack(b) == RationalMatrix([[1], [2], [3], [4]])

    def test_stack_mismatch(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1]]).hstack(RationalMatrix([[1], [2]]))

    def test_symmetrize(self):
        m = RationalMatrix([[0, 2], [0, 0]]).symmetrize()
        assert m == RationalMatrix([[0, 1], [1, 0]])
        assert m.is_symmetric()

    def test_is_symmetric(self):
        assert RationalMatrix([[1, 5], [5, 2]]).is_symmetric()
        assert not RationalMatrix([[1, 5], [4, 2]]).is_symmetric()
        assert not RationalMatrix([[1, 2]]).is_symmetric()

    def test_round_sigfigs(self):
        m = RationalMatrix([["1.23456", "0"]]).round_sigfigs(3)
        assert m == RationalMatrix([["1.23", 0]])

    def test_max_abs(self):
        assert RationalMatrix([[1, -7], [3, 2]]).max_abs() == 7

    def test_hash_eq(self):
        a = RationalMatrix([[1, 2]])
        b = RationalMatrix([["1", "2"]])
        assert a == b and hash(a) == hash(b)
        assert a != RationalMatrix([[1, 3]])
        assert (a == "nope") is False

    def test_repr_small_and_large(self):
        assert "1 2" in repr(RationalMatrix([[1, 2]]))
        big = RationalMatrix.zeros(10, 10)
        assert repr(big) == "RationalMatrix(10x10)"


# ----------------------------------------------------------------------
# Differential suite: the normal-form arithmetic against the historical
# entry-by-entry Fraction formulas, kept here as the reference.
# ----------------------------------------------------------------------

def ref_transpose(a):
    return [list(col) for col in zip(*a)]


def ref_matmul(a, b):
    cols = ref_transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def ref_add(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def ref_sub(a, b):
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def ref_scale(a, k):
    k = Fraction(k)
    return [[x * k for x in row] for row in a]


def ref_symmetrize(a):
    h = Fraction(1, 2)
    n = len(a)
    return [[(a[i][j] + a[j][i]) * h for j in range(n)] for i in range(n)]


def ref_lie(p, a):
    """``(A^T P + P A)`` symmetrized, entry by entry."""
    return ref_symmetrize(
        ref_add(ref_matmul(ref_transpose(a), p), ref_matmul(p, a))
    )


def assert_canonical_equal(matrix, expected):
    """Same values, and every entry a canonical Fraction: equal ``str``
    and ``hash`` (the journal and the kernel cache rely on both)."""
    got = matrix.tolist()
    assert got == expected
    for row_got, row_want in zip(got, expected):
        for x, y in zip(row_got, row_want):
            assert type(x) is Fraction
            assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
            assert str(x) == str(y) and hash(x) == hash(y)


def _decimal10(value):
    return Fraction(f"{value:.10g}")


magnitudes = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
#: Binary floats (denominators 2^k), 10-sigfig decimals (2^a 5^b),
#: small integers and exact zeros, mixed within one matrix.
mixed_entries = st.one_of(
    magnitudes.map(Fraction),
    magnitudes.map(_decimal10),
    st.integers(min_value=-9, max_value=9).map(Fraction),
    st.just(Fraction(0)),
)


def shaped(rows, cols, entry=mixed_entries):
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


dims = st.integers(min_value=1, max_value=8)


@st.composite
def product_pairs(draw):
    """Conforming ``(r x k, k x c)`` pairs, square or not, some zero."""
    r, k, c = draw(dims), draw(dims), draw(dims)
    zero = st.just(Fraction(0))
    left = draw(st.one_of(shaped(r, k), shaped(r, k, zero)))
    right = draw(st.one_of(shaped(k, c), shaped(k, c, zero)))
    return left, right


@st.composite
def same_shape_pairs(draw):
    r, c = draw(dims), draw(dims)
    return draw(shaped(r, c)), draw(shaped(r, c))


@st.composite
def square_lists(draw):
    n = draw(dims)
    return draw(st.one_of(shaped(n, n), shaped(n, n, st.just(Fraction(0)))))


scalars = st.one_of(
    st.just(0),
    st.integers(min_value=-7, max_value=-1),
    magnitudes,
    mixed_entries,
)


class TestNormalFormArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(product_pairs())
    def test_matmul_matches_reference(self, pair):
        a, b = pair
        result = RationalMatrix(a) @ RationalMatrix(b)
        assert_canonical_equal(result, ref_matmul(a, b))

    @settings(max_examples=150, deadline=None)
    @given(same_shape_pairs())
    def test_add_sub_match_reference(self, pair):
        a, b = pair
        assert_canonical_equal(
            RationalMatrix(a) + RationalMatrix(b), ref_add(a, b)
        )
        assert_canonical_equal(
            RationalMatrix(a) - RationalMatrix(b), ref_sub(a, b)
        )

    @settings(max_examples=150, deadline=None)
    @given(same_shape_pairs(), scalars)
    def test_scale_matches_reference(self, pair, k):
        a, _ = pair
        assert_canonical_equal(RationalMatrix(a).scale(k), ref_scale(a, k))

    @pytest.mark.parametrize("k", [0, -1, -3, 0.1, -2.5, "7/3"])
    def test_scale_special_scalars(self, k):
        a = [
            [Fraction(1, 3), Fraction(0.75), Fraction(0)],
            [Fraction("-1.234567891"), Fraction(5), Fraction(1)],
        ]
        assert_canonical_equal(RationalMatrix(a).scale(k), ref_scale(a, k))

    @settings(max_examples=150, deadline=None)
    @given(square_lists())
    def test_symmetrize_matches_reference(self, a):
        assert_canonical_equal(RationalMatrix(a).symmetrize(), ref_symmetrize(a))
        sym = ref_symmetrize(a)
        assert_canonical_equal(RationalMatrix(sym).symmetrize(), sym)

    @settings(max_examples=100, deadline=None)
    @given(square_lists(), st.data())
    def test_lie_derivative_matches_reference(self, p, data):
        n = len(p)
        a = data.draw(shaped(n, n))
        result = lie_derivative_exact(RationalMatrix(p), RationalMatrix(a))
        assert_canonical_equal(result, ref_lie(p, a))
        assert result.is_symmetric()

    def test_normal_form_is_lcm_scaled(self):
        m = RationalMatrix([["1/6", "-3/4"], [2, 0]])
        rows, den = m.normal_form()
        assert den == 12
        assert rows == [[2, -9], [24, 0]]
        assert RationalMatrix.from_normal_form(rows, den) == m

    def test_from_normal_form_reduces_each_entry(self):
        m = RationalMatrix.from_normal_form([[2, 4], [4, 6]], 4)
        assert_canonical_equal(
            m, [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(3, 2)]]
        )

    def test_lie_derivative_shape_mismatch(self):
        with pytest.raises(ValueError):
            lie_derivative_exact(
                RationalMatrix.identity(2), RationalMatrix.identity(3)
            )


@pytest.mark.parametrize("mode", [0, 1])
@pytest.mark.parametrize("case", benchmark_suite(), ids=lambda c: c.name)
def test_lie_derivative_ladder_matches_reference(case, mode):
    """Real candidates on every Table I size, both modes, 10/6/4 sf."""
    a = case.mode_matrix(mode)
    a_exact = RationalMatrix.from_numpy(a)
    candidate = synthesize("eq-num", a)
    a_rows = a_exact.tolist()
    for sigfigs in (10, 6, 4):
        p = candidate.exact_p(sigfigs)
        assert_canonical_equal(
            lie_derivative_exact(p, a_exact), ref_lie(p.tolist(), a_rows)
        )
