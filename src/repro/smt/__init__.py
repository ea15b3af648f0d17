"""A small SMT layer for quantifier-free polynomial real arithmetic.

Built from scratch for this reproduction (the paper used Z3, CVC5 and
Mathematica, which are unavailable offline): a term/formula AST,
sound floating-point interval arithmetic, an ICP branch-and-prune
refuter (delta-complete, dReal-style), exact Fourier--Motzkin linear
feasibility, and the definiteness encodings used to validate Lyapunov
candidates.
"""

from .boxes import BoxArray, classify_boxes
from .dpll import DpllSolver, tseitin_cnf
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
from .linear import LinearConstraint, LinearResult, check_atoms_linear, solve_linear
from .parser import ParsedScript, SmtLibParseError, parse_formula, parse_script
from .smtlib import formula_to_smtlib, script_for_refutation, term_to_smtlib
from .solver import SmtResult, SmtSolver, SmtStatus
from .terms import (
    FALSE,
    TRUE,
    Add,
    And,
    Atom,
    Const,
    Formula,
    Mul,
    Not,
    Or,
    Pow,
    Relation,
    Term,
    Var,
    affine_term,
    poly_degree,
    poly_eval,
    poly_free_vars,
    poly_is_linear,
    polynomial_of,
    quadratic_form_term,
    to_dnf,
    to_nnf,
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
    "Formula",
    "And",
    "Or",
    "Not",
    "TRUE",
    "FALSE",
    "polynomial_of",
    "poly_degree",
    "poly_is_linear",
    "poly_eval",
    "poly_free_vars",
    "quadratic_form_term",
    "affine_term",
    "to_nnf",
    "to_dnf",
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
    "LinearResult",
    "solve_linear",
    "check_atoms_linear",
    "SmtSolver",
    "SmtResult",
    "SmtStatus",
    "SphereCheckOutcome",
    "check_positive_definite_icp",
    "witness_point",
    "atom_violation",
    "point_satisfies",
    "term_to_smtlib",
    "formula_to_smtlib",
    "script_for_refutation",
    "parse_formula",
    "parse_script",
    "ParsedScript",
    "SmtLibParseError",
    "DpllSolver",
    "tseitin_cnf",
]
