"""Farkas certificates of infeasible affine constraint systems.

A conjunction of affine constraints ``c^T x + d {<=, <, =} 0`` over the
rationals is empty exactly when some nonnegative combination of its
inequalities (with free multipliers on its equalities) cancels every
variable and leaves a contradictory constant. :func:`check_farkas_certificate`
checks such a combination exactly, independently of whatever search
produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .terms import Relation

__all__ = ["LinearConstraint", "check_farkas_certificate"]


@dataclass(frozen=True)
class LinearConstraint:
    """``sum coeffs[v]*v + constant  {<= | < | =}  0``."""

    coeffs: tuple[tuple[str, Fraction], ...]
    constant: Fraction
    relation: Relation


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
