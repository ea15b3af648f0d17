"""Tests for exact linear feasibility (repro.smt.linear)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    Atom,
    LinearConstraint,
    Relation,
    Var,
    polynomial_of,
    solve_linear,
)

x, y, z = Var("x"), Var("y"), Var("z")


def constraints(*atoms):
    return [LinearConstraint.from_atom(a) for a in atoms]


def check_model(result, atoms):
    """Every returned model must satisfy every atom exactly."""
    from repro.smt.terms import poly_eval

    assert result.model is not None
    for atom in atoms:
        value = poly_eval(
            polynomial_of(atom.lhs),
            {v: result.model.get(v, Fraction(0)) for v in _vars(atom)},
        )
        if atom.relation is Relation.LE:
            assert value <= 0
        elif atom.relation is Relation.LT:
            assert value < 0
        elif atom.relation is Relation.EQ:
            assert value == 0
        else:
            assert value != 0


def _vars(atom):
    from repro.smt.terms import poly_free_vars

    return poly_free_vars(polynomial_of(atom.lhs))


class TestFromAtom:
    def test_parses_affine(self):
        c = LinearConstraint.from_atom((2 * x - y + 3) <= 0)
        assert c.coeff_map() == {"x": Fraction(2), "y": Fraction(-1)}
        assert c.constant == 3
        assert c.relation is Relation.LE

    def test_rejects_nonlinear(self):
        with pytest.raises(ValueError):
            LinearConstraint.from_atom((x * y) <= 0)

    def test_rejects_ne(self):
        with pytest.raises(ValueError):
            LinearConstraint.from_atom(Atom(x, Relation.NE))


class TestSolveLinear:
    def test_trivially_sat(self):
        assert solve_linear([]).satisfiable

    def test_simple_sat(self):
        atoms = [x <= 5, (1 - x) <= 0]  # 1 <= x <= 5
        result = solve_linear(constraints(*atoms))
        assert result.satisfiable
        check_model(result, atoms)

    def test_simple_unsat(self):
        result = solve_linear(constraints(x <= 0, (1 - x) <= 0))
        assert not result.satisfiable

    def test_strict_unsat(self):
        # x < 0 and x > 0
        result = solve_linear(constraints(x < 0, Var("x") > 0))
        assert not result.satisfiable

    def test_strict_boundary(self):
        # x <= 0 and x >= 0 is SAT (x = 0); x < 0 and x >= 0 is not.
        assert solve_linear(constraints(x <= 0, x >= 0)).satisfiable
        assert not solve_linear(constraints(x < 0, x >= 0)).satisfiable

    def test_equality_substitution(self):
        atoms = [x.eq(y + 1), x <= 0, y >= -3]
        result = solve_linear(constraints(*atoms))
        assert result.satisfiable
        check_model(result, atoms)

    def test_inconsistent_equalities(self):
        result = solve_linear(constraints(x.eq(1), x.eq(2)))
        assert not result.satisfiable

    def test_constant_equality(self):
        assert not solve_linear(
            [LinearConstraint((), Fraction(1), Relation.EQ)]
        ).satisfiable
        assert solve_linear(
            [LinearConstraint((), Fraction(0), Relation.EQ)]
        ).satisfiable

    def test_chain(self):
        atoms = [x <= y, y <= z, z <= x, x.eq(3)]
        result = solve_linear(constraints(*atoms))
        assert result.satisfiable
        assert result.model["x"] == result.model["y"] == result.model["z"] == 3

    def test_two_var_unsat(self):
        # x + y <= 0, x >= 1, y >= 1
        result = solve_linear(constraints((x + y) <= 0, x >= 1, y >= 1))
        assert not result.satisfiable

    def test_unbounded_variable(self):
        result = solve_linear(constraints(x >= 10))
        assert result.satisfiable
        assert result.model["x"] >= 10

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.integers(-5, 5),
                st.integers(-5, 5),
                st.integers(-10, 10),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_models_always_satisfy(self, rows):
        atoms = []
        for a, b, c, strict in rows:
            lhs = a * x + b * y + c
            atoms.append(lhs < 0 if strict else lhs <= 0)
        result = solve_linear(constraints(*atoms))
        if result.satisfiable:
            check_model(result, atoms)

    @settings(max_examples=50)
    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=2))
    def test_point_feasibility_agrees(self, point):
        """Constraints pinning an integer point are always satisfiable."""
        px, py = point
        atoms = [x.eq(px), y.eq(py), (x + y) <= px + py, x <= px]
        result = solve_linear(constraints(*atoms))
        assert result.satisfiable
        assert result.model["x"] == px and result.model["y"] == py

