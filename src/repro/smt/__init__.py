"""A small SMT layer for quantifier-free polynomial real arithmetic.

Built from scratch for this reproduction (the paper used Z3, CVC5 and
Mathematica, which are unavailable offline): a term/atom AST, sound
floating-point interval arithmetic, an ICP branch-and-prune refuter
(delta-complete, dReal-style), an exact checker of Farkas certificates
for infeasible affine constraint systems, and the definiteness
encodings used to validate Lyapunov candidates.
"""

from .boxes import BoxArray, classify_boxes
from .encodings import SphereCheckOutcome, check_positive_definite_icp
from .icp import (
    ICP_BACKENDS,
    Box,
    IcpResult,
    IcpSolver,
    IcpStatus,
    eval_poly_interval,
    resolve_icp_backend,
    split_linear,
)
from .interval import Interval
from .linear import LinearConstraint, check_farkas_certificate
from .terms import (
    Add,
    Atom,
    Const,
    Mul,
    Pow,
    Relation,
    Term,
    Var,
    affine_term,
    poly_eval,
    polynomial_of,
    quadratic_form_term,
)
from .witness import atom_violation, point_satisfies, witness_point

__all__ = [
    "Term",
    "Var",
    "Const",
    "Add",
    "Mul",
    "Pow",
    "Atom",
    "Relation",
    "polynomial_of",
    "poly_eval",
    "quadratic_form_term",
    "affine_term",
    "Interval",
    "Box",
    "BoxArray",
    "ICP_BACKENDS",
    "IcpSolver",
    "IcpResult",
    "IcpStatus",
    "classify_boxes",
    "eval_poly_interval",
    "resolve_icp_backend",
    "split_linear",
    "LinearConstraint",
    "check_farkas_certificate",
    "SphereCheckOutcome",
    "check_positive_definite_icp",
    "witness_point",
    "atom_violation",
    "point_satisfies",
]
