"""Tests for the term/atom language (repro.smt.terms)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact import RationalMatrix
from repro.smt import (
    Atom,
    Relation,
    Var,
    affine_term,
    point_satisfies,
    poly_eval,
    polynomial_of,
    quadratic_form_term,
)

x, y = Var("x"), Var("y")


class TestTermBuilding:
    def test_operators_build_terms(self):
        term = 2 * x + y - 3
        poly = polynomial_of(term)
        assert poly == {
            (("x", 1),): Fraction(2),
            (("y", 1),): Fraction(1),
            (): Fraction(-3),
        }

    def test_pow_and_mul(self):
        poly = polynomial_of((x + y) ** 2)
        assert poly == {
            (("x", 2),): 1,
            (("x", 1), ("y", 1)): 2,
            (("y", 2),): 1,
        }

    def test_neg(self):
        assert polynomial_of(-x) == {(("x", 1),): Fraction(-1)}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            x ** (-1)

    def test_cancellation(self):
        assert polynomial_of(x - x) == {}

    def test_relational_sugar(self):
        atom = x <= 3
        assert atom.relation is Relation.LE
        assert polynomial_of(atom.lhs) == {(("x", 1),): 1, (): -3}
        atom = x > y
        assert atom.relation is Relation.LT
        # x > y  normalizes to  y - x < 0
        assert polynomial_of(atom.lhs) == {(("y", 1),): 1, (("x", 1),): -1}

    def test_eq_atom(self):
        atom = x.eq(1)
        assert atom.relation is Relation.EQ


class TestPolynomialQueries:
    def test_eval(self):
        poly = polynomial_of(x**2 + 2 * y)
        assert poly_eval(poly, {"x": 3, "y": Fraction(1, 2)}) == 10

    @settings(max_examples=30)
    @given(
        st.integers(-5, 5),
        st.integers(-5, 5),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    def test_eval_matches_python(self, a, b, vx, vy):
        term = a * x * x + b * x * y + 7
        poly = polynomial_of(term)
        assert poly_eval(poly, {"x": vx, "y": vy}) == a * vx * vx + b * vx * vy + 7


class TestBuilders:
    def test_quadratic_form_term(self):
        p = RationalMatrix([[2, 1], [1, 3]])
        term = quadratic_form_term(p, [x, y])
        poly = polynomial_of(term)
        assert poly == {(("x", 2),): 2, (("x", 1), ("y", 1)): 2, (("y", 2),): 3}

    def test_quadratic_form_with_center(self):
        p = RationalMatrix([[1]])
        term = quadratic_form_term(p, [x], center=[2])
        poly = polynomial_of(term)
        # (x-2)^2 = x^2 -4x +4
        assert poly == {(("x", 2),): 1, (("x", 1),): -4, (): 4}

    def test_quadratic_form_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quadratic_form_term(RationalMatrix([[1]]), [x, y])

    def test_affine_term(self):
        poly = polynomial_of(affine_term([1, -2], [x, y], 5))
        assert poly == {(("x", 1),): 1, (("y", 1),): -2, (): 5}

    def test_affine_term_all_zero(self):
        poly = polynomial_of(affine_term([0, 0], [x, y]))
        assert poly == {}

    def test_affine_mismatch(self):
        with pytest.raises(ValueError):
            affine_term([1], [x, y])


class TestNormalForms:
    def test_negate_atom_relations(self):
        assert (x <= 0).negate().relation is Relation.LT
        assert (x < 0).negate().relation is Relation.LE
        assert x.eq(0).negate().relation is Relation.NE
        assert x.eq(0).negate().negate().relation is Relation.EQ


class TestPointSatisfies:
    @pytest.mark.parametrize(
        "relation, satisfied, violated",
        [
            (Relation.LE, [-1, 0], [1]),
            (Relation.LT, [-1], [0, 1]),
            (Relation.EQ, [0], [-1, 1]),
            (Relation.NE, [-1, 1], [0]),
        ],
    )
    def test_each_relation(self, relation, satisfied, violated):
        atom = Atom(x - 5, relation)
        for offset in satisfied:
            assert point_satisfies(atom, {"x": Fraction(5 + offset)})
        for offset in violated:
            assert not point_satisfies(atom, {"x": Fraction(5 + offset)})
