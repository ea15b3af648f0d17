"""Tests for Farkas infeasibility certificates (repro.smt.linear)."""

from fractions import Fraction

from repro.smt import LinearConstraint, Relation, Var, polynomial_of
from repro.smt.linear import check_farkas_certificate

x, y, z = Var("x"), Var("y"), Var("z")


def constraints(*atoms):
    """Affine atoms as :class:`LinearConstraint` rows."""
    rows = []
    for atom in atoms:
        poly = polynomial_of(atom.lhs)
        coeffs = tuple(
            sorted((mono[0][0], coeff) for mono, coeff in poly.items() if mono)
        )
        rows.append(
            LinearConstraint(coeffs, poly.get((), Fraction(0)), atom.relation)
        )
    return rows


def multipliers(*values):
    return {index: Fraction(value) for index, value in enumerate(values)}


class TestCertificateProduction:
    """Hand-derived certificates of small infeasible systems."""

    def test_simple_unsat_carries_certificate(self):
        cs = constraints(x <= 0, (1 - x) <= 0)
        # x + (1 - x) = 1 > 0.
        assert check_farkas_certificate(cs, multipliers(1, 1))

    def test_strict_contradiction(self):
        cs = constraints(x < 0, Var("x") > 0)
        # x + (-x) = 0 < 0.
        assert check_farkas_certificate(cs, multipliers(1, 1))

    def test_equality_chain_contradiction(self):
        cs = constraints(x.eq(1), y.eq(x + 1), y <= 1)
        # -(x - 1) - (y - x - 1) + (y - 1) = 1 > 0.
        assert check_farkas_certificate(cs, multipliers(-1, -1, 1))

    def test_pure_equality_contradiction(self):
        cs = constraints(x.eq(1), x.eq(2))
        # (x - 1) - (x - 2) = 1 > 0.
        assert check_farkas_certificate(cs, multipliers(1, -1))

    def test_three_variable_cycle(self):
        cs = constraints((x - y) <= -1, (y - z) <= -1, (z - x) <= -1)
        # The three rows sum to 3 > 0.
        assert check_farkas_certificate(cs, multipliers(1, 1, 1))


class TestCertificateChecker:
    def test_rejects_empty(self):
        assert not check_farkas_certificate(constraints(x <= 0), {})

    def test_rejects_negative_multiplier_on_inequality(self):
        cs = constraints(x <= 0, (1 - x) <= 0)
        assert not check_farkas_certificate(cs, {0: Fraction(-1), 1: Fraction(1)})

    def test_rejects_out_of_range_index(self):
        cs = constraints(x <= 0)
        assert not check_farkas_certificate(cs, {5: Fraction(1)})

    def test_rejects_uncancelled_variables(self):
        cs = constraints(x <= 0, (1 - y) <= 0)
        assert not check_farkas_certificate(cs, {0: Fraction(1), 1: Fraction(1)})

    def test_rejects_nonpositive_constant(self):
        cs = constraints(x <= 0, -x <= 0)  # feasible at x=0
        # combination cancels x and gives constant 0 without strictness
        assert not check_farkas_certificate(cs, {0: Fraction(1), 1: Fraction(1)})

    def test_accepts_strict_zero_combination(self):
        cs = constraints(x < 0, Var("x") > 0)
        # x < 0 and -x < 0 sum to 0 < 0.
        assert check_farkas_certificate(cs, {0: Fraction(1), 1: Fraction(1)})

    def test_free_multiplier_on_equality(self):
        cs = [
            LinearConstraint((("x", Fraction(1)),), Fraction(-1), Relation.EQ),
            LinearConstraint((("x", Fraction(1)),), Fraction(-3), Relation.EQ),
        ]
        # (x - 1) - (x - 3) = 2 > 0 with a negative equality multiplier.
        assert check_farkas_certificate(cs, {0: Fraction(1), 1: Fraction(-1)})
