"""Exact rational linear algebra (the proof substrate).

Everything downstream that claims a *verdict* — a Lyapunov candidate is
valid, a matrix is Hurwitz, a robust-region level is optimal — routes
through this package, with no floating point anywhere. Hot paths run on
the integer/multimodular kernel layer (:mod:`repro.exact.kernels`,
selected per call via ``backend="auto"|"fraction"|"int"|"modular"``);
the historical entry-by-entry :class:`fractions.Fraction` algorithms
remain available as the ``"fraction"`` differential-testing oracle.
"""

from .kernels import (
    KERNEL_BACKENDS,
    KERNEL_FALLBACKS,
    clear_denominators,
    clear_kernel_cache,
    fallback_backend,
    hadamard_bound,
    kernel_cache_info,
    resolve_backend,
)
from .definiteness import (
    definiteness_counterexample,
    gauss_positive_definite,
    ldl_positive_definite,
    sylvester_positive_definite,
)
from .factor import (
    bareiss_determinant,
    determinant,
    gauss_pivots,
    inverse,
    iter_leading_principal_minors,
    ldl,
    leading_principal_minors,
    solve,
    solve_vector,
)
from .matrix import RationalMatrix
from .poly import charpoly, is_hurwitz_matrix, is_hurwitz_polynomial, poly_eval, routh_table
from .rational import (
    Number,
    fraction_to_float,
    round_sigfigs,
    to_fraction,
)

__all__ = [
    "RationalMatrix",
    "KERNEL_BACKENDS",
    "KERNEL_FALLBACKS",
    "fallback_backend",
    "clear_denominators",
    "clear_kernel_cache",
    "hadamard_bound",
    "kernel_cache_info",
    "resolve_backend",
    "Number",
    "to_fraction",
    "round_sigfigs",
    "fraction_to_float",
    "bareiss_determinant",
    "determinant",
    "leading_principal_minors",
    "iter_leading_principal_minors",
    "gauss_pivots",
    "solve",
    "solve_vector",
    "inverse",
    "ldl",
    "charpoly",
    "poly_eval",
    "routh_table",
    "is_hurwitz_polynomial",
    "is_hurwitz_matrix",
    "sylvester_positive_definite",
    "gauss_positive_definite",
    "ldl_positive_definite",
    "definiteness_counterexample",
]
