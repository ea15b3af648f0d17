"""Term and atom language for the mini-SMT layer (QF_NRA fragment).

The library's symbolic validation queries — "is this quadratic form
positive on the unit sphere?", "does the flow point inward on this part
of the switching surface?" — are expressed as conjunctions of
polynomial atoms over the reals. This module provides the term AST,
atoms, exact evaluation, and normalization of terms into sparse
polynomials (monomial dictionaries), which is the form the decision
procedures in :mod:`repro.smt.icp` consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence, Union

from ..exact.rational import Number, to_fraction

__all__ = [
    "Term",
    "Var",
    "Const",
    "Add",
    "Mul",
    "Pow",
    "Relation",
    "Atom",
    "Polynomial",
    "Monomial",
    "polynomial_of",
    "poly_eval",
    "quadratic_form_term",
    "affine_term",
]


# ----------------------------------------------------------------------
# Terms
# ----------------------------------------------------------------------
class Term:
    """Base class for arithmetic terms."""

    def __add__(self, other: "TermLike") -> "Term":
        return Add((self, _term(other)))

    def __radd__(self, other: "TermLike") -> "Term":
        return Add((_term(other), self))

    def __sub__(self, other: "TermLike") -> "Term":
        return Add((self, Mul((Const(-1), _term(other)))))

    def __rsub__(self, other: "TermLike") -> "Term":
        return Add((_term(other), Mul((Const(-1), self))))

    def __mul__(self, other: "TermLike") -> "Term":
        return Mul((self, _term(other)))

    def __rmul__(self, other: "TermLike") -> "Term":
        return Mul((_term(other), self))

    def __neg__(self) -> "Term":
        return Mul((Const(-1), self))

    def __pow__(self, exponent: int) -> "Term":
        return Pow(self, exponent)

    # Relational sugar. Note: ``==`` builds an Atom, so terms are
    # compared for *structural* equality with ``equal_terms``.
    def __le__(self, other: "TermLike") -> "Atom":
        return Atom(self - _term(other), Relation.LE)

    def __lt__(self, other: "TermLike") -> "Atom":
        return Atom(self - _term(other), Relation.LT)

    def __ge__(self, other: "TermLike") -> "Atom":
        return Atom(_term(other) - self, Relation.LE)

    def __gt__(self, other: "TermLike") -> "Atom":
        return Atom(_term(other) - self, Relation.LT)

    def eq(self, other: "TermLike") -> "Atom":
        """The equality atom ``self = other``."""
        return Atom(self - _term(other), Relation.EQ)


TermLike = Union[Term, int, float, str, Fraction]


def _term(value: TermLike) -> Term:
    if isinstance(value, Term):
        return value
    return Const(to_fraction(value))


@dataclass(frozen=True)
class Var(Term):
    """A real-valued variable, identified by name."""
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Term):
    """An exact rational constant."""
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", to_fraction(self.value))

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Add(Term):
    """An n-ary sum of terms."""
    args: tuple[Term, ...]

    def __repr__(self) -> str:
        return "(" + " + ".join(map(repr, self.args)) + ")"


@dataclass(frozen=True)
class Mul(Term):
    """An n-ary product of terms."""
    args: tuple[Term, ...]

    def __repr__(self) -> str:
        return "(" + " * ".join(map(repr, self.args)) + ")"


@dataclass(frozen=True)
class Pow(Term):
    """A nonnegative integer power of a term."""
    base: Term
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("only nonnegative integer exponents are supported")

    def __repr__(self) -> str:
        return f"{self.base!r}^{self.exponent}"


# ----------------------------------------------------------------------
# Atoms
# ----------------------------------------------------------------------
class Relation(Enum):
    """Relations are normalized to ``term <rel> 0``."""

    LE = "<="
    LT = "<"
    EQ = "="
    NE = "!="


@dataclass(frozen=True)
class Atom:
    """An atomic constraint ``lhs <relation> 0``."""

    lhs: Term
    relation: Relation

    def negate(self) -> "Atom":
        """The negated atom (relation flipped, strictness dualized)."""
        lhs = self.lhs
        if self.relation is Relation.LE:  # not (t <= 0)  <=>  -t < 0
            return Atom(Mul((Const(-1), lhs)), Relation.LT)
        if self.relation is Relation.LT:  # not (t < 0)   <=>  -t <= 0
            return Atom(Mul((Const(-1), lhs)), Relation.LE)
        if self.relation is Relation.EQ:
            return Atom(lhs, Relation.NE)
        return Atom(lhs, Relation.EQ)

    def __repr__(self) -> str:
        return f"{self.lhs!r} {self.relation.value} 0"


# ----------------------------------------------------------------------
# Polynomial normal form
# ----------------------------------------------------------------------
#: A monomial is a sorted tuple of (variable name, positive exponent).
Monomial = tuple[tuple[str, int], ...]
#: A polynomial is a map from monomial to nonzero rational coefficient.
Polynomial = dict[Monomial, Fraction]

_ONE: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[str, int] = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def _poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    out = dict(a)
    for mono, coeff in b.items():
        new = out.get(mono, Fraction(0)) + coeff
        if new:
            out[mono] = new
        else:
            out.pop(mono, None)
    return out


def _poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    out: Polynomial = {}
    for mono_a, coeff_a in a.items():
        for mono_b, coeff_b in b.items():
            mono = _mono_mul(mono_a, mono_b)
            new = out.get(mono, Fraction(0)) + coeff_a * coeff_b
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
    return out


def polynomial_of(term: Term) -> Polynomial:
    """Expand ``term`` into sparse-polynomial normal form."""
    if isinstance(term, Const):
        return {_ONE: term.value} if term.value else {}
    if isinstance(term, Var):
        return {((term.name, 1),): Fraction(1)}
    if isinstance(term, Add):
        out: Polynomial = {}
        for arg in term.args:
            out = _poly_add(out, polynomial_of(arg))
        return out
    if isinstance(term, Mul):
        out = {_ONE: Fraction(1)}
        for arg in term.args:
            out = _poly_mul(out, polynomial_of(arg))
        return out
    if isinstance(term, Pow):
        base = polynomial_of(term.base)
        out = {_ONE: Fraction(1)}
        for _ in range(term.exponent):
            out = _poly_mul(out, base)
        return out
    raise TypeError(f"not a term: {term!r}")


def poly_eval(poly: Polynomial, assignment: Mapping[str, Number]) -> Fraction:
    """Exact evaluation under a (complete) variable assignment."""
    total = Fraction(0)
    for mono, coeff in poly.items():
        value = coeff
        for var, exp in mono:
            value *= to_fraction(assignment[var]) ** exp
        total += value
    return total


# ----------------------------------------------------------------------
# Convenience builders
# ----------------------------------------------------------------------
def quadratic_form_term(
    matrix, variables: Sequence[Var], center: Sequence[Number] | None = None
) -> Term:
    """Build ``(w - c)^T M (w - c)`` as a term.

    ``matrix`` is a :class:`~repro.exact.matrix.RationalMatrix`;
    ``variables`` supplies the ``w`` coordinates.
    """
    n = len(variables)
    if matrix.shape != (n, n):
        raise ValueError("matrix/variable dimension mismatch")
    shifted: list[Term] = []
    for i, var in enumerate(variables):
        if center is not None and to_fraction(center[i]) != 0:
            shifted.append(var - Const(to_fraction(center[i])))
        else:
            shifted.append(var)
    parts: list[Term] = []
    for i in range(n):
        for j in range(n):
            coeff = matrix[i, j]
            if coeff:
                parts.append(Mul((Const(coeff), shifted[i], shifted[j])))
    if not parts:
        return Const(Fraction(0))
    return Add(tuple(parts))


def affine_term(
    coefficients: Sequence[Number],
    variables: Sequence[Var],
    constant: Number = 0,
) -> Term:
    """Build ``c^T w + h`` as a term."""
    if len(coefficients) != len(variables):
        raise ValueError("coefficient/variable length mismatch")
    parts: list[Term] = [
        Mul((Const(to_fraction(c)), v))
        for c, v in zip(coefficients, variables)
        if to_fraction(c) != 0
    ]
    constant = to_fraction(constant)
    if constant or not parts:
        parts.append(Const(constant))
    return Add(tuple(parts)) if len(parts) > 1 else parts[0]
