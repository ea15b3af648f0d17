"""Exact linear-arithmetic feasibility (QF_LRA) via Fourier--Motzkin.

Decides satisfiability of conjunctions of affine constraints
``c^T x + d {<=, <, =} 0`` over the rationals, exactly, and produces a
rational model when satisfiable. Equalities are eliminated by exact
Gaussian substitution first; the remaining inequalities go through
Fourier--Motzkin elimination, with strictness tracked so that strict
bounds are honoured. Worst-case exponential, but the formulas this
library generates (region membership, flow-direction conditions on a
switching surface) have few constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .terms import Atom, Relation, poly_is_linear, polynomial_of

__all__ = [
    "LinearConstraint",
    "LinearResult",
    "solve_linear",
    "check_farkas_certificate",
]


@dataclass(frozen=True)
class LinearConstraint:
    """``sum coeffs[v]*v + constant  {<= | < | =}  0``."""

    coeffs: tuple[tuple[str, Fraction], ...]
    constant: Fraction
    relation: Relation

    @classmethod
    def from_atom(cls, atom: Atom) -> "LinearConstraint":
        poly = polynomial_of(atom.lhs)
        if not poly_is_linear(poly):
            raise ValueError(f"non-linear atom: {atom!r}")
        if atom.relation is Relation.NE:
            raise ValueError("disequalities must be case-split before FM")
        coeffs = []
        constant = Fraction(0)
        for mono, coeff in poly.items():
            if mono == ():
                constant = coeff
            else:
                ((var, _exp),) = mono
                coeffs.append((var, coeff))
        return cls(tuple(sorted(coeffs)), constant, atom.relation)

    def coeff_map(self) -> dict[str, Fraction]:
        return dict(self.coeffs)


@dataclass
class LinearResult:
    """Feasibility verdict with evidence.

    Satisfiable: ``model`` is an exact rational solution. Unsatisfiable:
    ``farkas`` maps original-constraint indices to multipliers whose
    combination is the contradiction ``0 <(=) -c`` with ``c >= 0`` —
    check it independently with :func:`check_farkas_certificate`.
    """

    satisfiable: bool
    model: dict[str, Fraction] | None = None
    farkas: dict[int, Fraction] | None = None


def _substitute(
    constraint: "_Row",
    variable: str,
    replacement: dict[str, Fraction],
    const: Fraction,
    eq_combo: dict[int, Fraction],
    eq_pivot: Fraction,
) -> "_Row":
    """Replace ``variable`` by the affine expression ``replacement + const``.

    Provenance: substituting from equality row ``E`` (pivot coefficient
    ``eq_pivot`` on ``variable``) is the combination
    ``row - (row_var / eq_pivot) * E``.
    """
    coeffs = dict(constraint.coeffs)
    factor = coeffs.pop(variable, Fraction(0))
    if factor == 0:
        return constraint
    for var, c in replacement.items():
        coeffs[var] = coeffs.get(var, Fraction(0)) + factor * c
        if coeffs[var] == 0:
            del coeffs[var]
    combo = dict(constraint.combo)
    scale = -factor / eq_pivot
    for index, value in eq_combo.items():
        combo[index] = combo.get(index, Fraction(0)) + scale * value
        if combo[index] == 0:
            del combo[index]
    return _Row(
        coeffs, constraint.constant + factor * const, constraint.strict, combo
    )


@dataclass
class _Row:
    """Internal inequality ``sum coeffs*v + constant (<= or <) 0``.

    ``combo`` tracks provenance: coefficients over the *original*
    constraint list such that this row equals ``sum combo[i] *
    constraint_i`` — the raw material of Farkas infeasibility
    certificates (multipliers must be nonnegative on inequalities, free
    on equalities).
    """

    coeffs: dict[str, Fraction]
    constant: Fraction
    strict: bool
    combo: dict[int, Fraction]


def solve_linear(constraints: Sequence[LinearConstraint]) -> LinearResult:
    """Exact feasibility + model construction for affine constraints."""
    rows = []
    eq_rows = []
    for index, c in enumerate(constraints):
        # Strip explicit zero coefficients: they would later masquerade
        # as live variables during pivot selection and back-substitution.
        coeffs = {v: value for v, value in c.coeff_map().items() if value != 0}
        row = _Row(
            coeffs, c.constant, c.relation is Relation.LT,
            {index: Fraction(1)},
        )
        if c.relation is Relation.EQ:
            eq_rows.append(row)
        else:
            rows.append(row)

    # --- Eliminate equalities by substitution --------------------------
    substitutions: list[tuple[str, dict[str, Fraction], Fraction]] = []
    while eq_rows:
        row = eq_rows.pop()
        if not row.coeffs:
            if row.constant != 0:
                # Certificate: scale so the combined constant is positive.
                sign = 1 if row.constant > 0 else -1
                farkas = {i: sign * v for i, v in row.combo.items()}
                return LinearResult(False, farkas=farkas)
            continue
        variable, pivot = next(iter(row.coeffs.items()))
        assert pivot != 0  # zero entries are stripped at construction
        # variable = -(constant + other coeffs)/pivot
        replacement = {
            v: -c / pivot for v, c in row.coeffs.items() if v != variable
        }
        const = -row.constant / pivot
        substitutions.append((variable, replacement, const))
        eq_rows = [
            _substitute(r, variable, replacement, const, row.combo, pivot)
            for r in eq_rows
        ]
        rows = [
            _substitute(r, variable, replacement, const, row.combo, pivot)
            for r in rows
        ]

    # --- Fourier--Motzkin on the inequalities --------------------------
    variables = sorted({v for r in rows for v in r.coeffs})
    eliminated: list[tuple[str, list[_Row], list[_Row]]] = []
    for variable in variables:
        lowers: list[_Row] = []  # rows giving variable >= bound
        uppers: list[_Row] = []  # rows giving variable <= bound
        others: list[_Row] = []
        for row in rows:
            coeff = row.coeffs.get(variable, Fraction(0))
            if coeff == 0:
                others.append(row)
            elif coeff > 0:
                uppers.append(row)
            else:
                lowers.append(row)
        new_rows = list(others)
        for up in uppers:
            for low in lowers:
                cu = up.coeffs[variable]
                cl = -low.coeffs[variable]
                merged = {
                    v: cl * up.coeffs.get(v, Fraction(0))
                    + cu * low.coeffs.get(v, Fraction(0))
                    for v in set(up.coeffs) | set(low.coeffs)
                    if v != variable
                }
                merged = {v: c for v, c in merged.items() if c != 0}
                provenance = dict()
                for source, scale in ((up, cl), (low, cu)):
                    for i, value in source.combo.items():
                        provenance[i] = (
                            provenance.get(i, Fraction(0)) + scale * value
                        )
                provenance = {i: v for i, v in provenance.items() if v != 0}
                new_rows.append(
                    _Row(
                        merged,
                        cl * up.constant + cu * low.constant,
                        up.strict or low.strict,
                        provenance,
                    )
                )
        eliminated.append((variable, lowers, uppers))
        rows = new_rows

    # --- Constant rows decide feasibility ------------------------------
    for row in rows:
        if row.coeffs:
            raise AssertionError("variable survived elimination")
        if row.constant > 0 or (row.strict and row.constant == 0):
            return LinearResult(False, farkas=dict(row.combo))

    # --- Back-substitute a model ---------------------------------------
    model: dict[str, Fraction] = {}
    for variable, lowers, uppers in reversed(eliminated):
        lo: Fraction | None = None
        lo_strict = False
        hi: Fraction | None = None
        hi_strict = False
        for row in lowers:  # coeff < 0:  variable >= bound
            coeff = row.coeffs[variable]
            bound = (
                row.constant
                + sum(
                    c * model[v]
                    for v, c in row.coeffs.items()
                    if v != variable
                )
            ) / -coeff
            if lo is None or bound > lo or (bound == lo and row.strict):
                lo, lo_strict = bound, row.strict
        for row in uppers:
            coeff = row.coeffs[variable]
            bound = -(
                row.constant
                + sum(
                    c * model[v]
                    for v, c in row.coeffs.items()
                    if v != variable
                )
            ) / coeff
            if hi is None or bound < hi or (bound == hi and row.strict):
                hi, hi_strict = bound, row.strict
        model[variable] = _pick_value(lo, lo_strict, hi, hi_strict)

    for variable, replacement, const in reversed(substitutions):
        model[variable] = (
            sum((c * model.get(v, Fraction(0)) for v, c in replacement.items()), Fraction(0))
            + const
        )
    return LinearResult(True, model)


def _pick_value(
    lo: Fraction | None, lo_strict: bool, hi: Fraction | None, hi_strict: bool
) -> Fraction:
    """A rational point inside the (guaranteed nonempty) interval."""
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1 if hi_strict else hi
    if hi is None:
        return lo + 1 if lo_strict else lo
    if lo == hi:
        return lo  # FM guarantees not both strict here
    return (lo + hi) / 2


def check_farkas_certificate(
    constraints: Sequence[LinearConstraint],
    farkas: dict[int, Fraction],
) -> bool:
    """Independently verify a Farkas infeasibility certificate.

    The certificate is valid when (a) multipliers on inequality
    constraints are nonnegative (equality multipliers are free), (b) the
    weighted combination cancels every variable, and (c) the combined
    constant is strictly positive — or nonnegative while some strict
    inequality carries a positive multiplier (then the combination reads
    ``0 < 0``). Any such combination proves the conjunction empty.
    """
    if not farkas:
        return False
    combined: dict[str, Fraction] = {}
    constant = Fraction(0)
    strict_involved = False
    for index, multiplier in farkas.items():
        if not 0 <= index < len(constraints):
            return False
        constraint = constraints[index]
        if constraint.relation is not Relation.EQ:
            if multiplier < 0:
                return False
            if constraint.relation is Relation.LT and multiplier > 0:
                strict_involved = True
        for var, coeff in constraint.coeffs:
            combined[var] = combined.get(var, Fraction(0)) + multiplier * coeff
        constant += multiplier * constraint.constant
    if any(value != 0 for value in combined.values()):
        return False
    return constant > 0 or (strict_involved and constant == 0)
