"""Witness extraction and exact-point evaluation for refutation results.

The pointwise refuter :func:`repro.lyapunov.cegis.refute_certificate`
runs ICP against a certificate and turns every refutation into two
artifacts:

* an *exact rational point* inside the refuting box, suitable for
  re-evaluation with :mod:`repro.exact` arithmetic, and
* the *exact violation margins* of the refuted atoms at that point, so
  the soundness test suite can assert (without floats) that the witness
  really falsifies the claimed condition.

The CEGIS loop takes its cuts from the exact verifier, not from these
witnesses; the refuter is the test suite's independent oracle against
accepted certificates.

Both live here, next to the solver, because they only depend on the
term/ICP layer: a witness is just a complete rational assignment and an
atom is a polynomial constraint, so exactness is one
:func:`~repro.smt.terms.poly_eval` away.
"""

from __future__ import annotations

from fractions import Fraction

from .icp import IcpResult
from .terms import Atom, Relation, poly_eval, polynomial_of

__all__ = [
    "witness_point",
    "atom_violation",
    "point_satisfies",
]


def witness_point(result: IcpResult) -> dict[str, Fraction] | None:
    """The exact rational witness point of a SAT/delta-SAT result.

    Prefers the solver's own certified witness; falls back to the
    midpoint of the undecided witness box (the dReal-style reading of a
    delta-SAT verdict: *some* point of the box is within delta of
    satisfying). Returns ``None`` when the result carries neither.
    """
    if result.witness is not None:
        return {name: Fraction(v) for name, v in result.witness.items()}
    if result.witness_box is not None:
        return result.witness_box.midpoint()
    return None


def atom_violation(atom: Atom, point: dict[str, Fraction]) -> Fraction:
    """Exact signed violation of ``atom`` at ``point``.

    The atom's polynomial ``p`` is evaluated exactly; the returned
    margin is positive iff the atom is *violated*:

    ========  =================  ==================
    relation  atom satisfied     returned margin
    ========  =================  ==================
    ``< 0``   ``p < 0``          ``p``
    ``<= 0``  ``p <= 0``         ``p``
    ``= 0``   ``p = 0``          ``|p|``
    ========  =================  ==================

    so for the inequality relations a nonpositive return value means
    the atom holds at the point (with ``< 0`` additionally requiring a
    strictly negative value).
    """
    value = poly_eval(polynomial_of(atom.lhs), point)
    if atom.relation is Relation.EQ:
        return abs(value)
    return value


def point_satisfies(atom: Atom, point: dict[str, Fraction]) -> bool:
    """Exact satisfaction of one atom at a complete rational point."""
    value = poly_eval(polynomial_of(atom.lhs), point)
    if atom.relation is Relation.EQ:
        return value == 0
    if atom.relation is Relation.LT:
        return value < 0
    if atom.relation is Relation.NE:
        return value != 0
    return value <= 0
