"""Exact characteristic polynomials and Routh--Hurwitz stability.

The characteristic polynomial is computed with the Faddeev--LeVerrier
recurrence (exact over the rationals), and Hurwitz stability of a matrix
is decided with the Routh array, including the classic epsilon-free
handling of zero first-column entries: a zero anywhere in the first
column of the Routh array already refutes *strict* Hurwitz stability,
which is the only question this library asks.

Both :func:`charpoly` and :func:`routh_table` dispatch over the kernel
layer (:mod:`repro.exact.kernels`): the ``"int"`` path clears
denominators once and runs the identical recurrences over plain
integers — Faddeev--LeVerrier divisions by ``k`` are exact for integer
matrices, and the Routh recurrence is tracked fraction-free with one
per-row scale, dividing back to exact rationals only when emitting the
table. ``"fraction"`` is the historical oracle; values are identical.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import kernels
from .matrix import RationalMatrix
from .rational import Number, to_fraction

__all__ = [
    "charpoly",
    "poly_eval",
    "routh_table",
    "is_hurwitz_polynomial",
    "is_hurwitz_matrix",
]


def charpoly(matrix: RationalMatrix, backend: str = "auto") -> list[Fraction]:
    """Coefficients of ``det(sI - M)``, highest degree first (monic).

    Uses Faddeev--LeVerrier: ``c_0 = 1``, ``M_1 = M``,
    ``c_k = -tr(M_k)/k``, ``M_{k+1} = M (M_k + c_k I)``.

    The integer kernel computes the charpoly of the cleared matrix
    ``N = den * M`` (all intermediates integral, all divisions exact)
    and rescales: ``det(sI - M)`` has coefficient ``c_k / den^k`` at
    degree ``n - k``.
    """
    if not matrix.is_square():
        raise ValueError("charpoly of a non-square matrix")
    mode = kernels.resolve_backend(backend, matrix.rows, op="charpoly")
    if mode != "fraction":
        rows, den = kernels.normalized(matrix)
        ints = kernels.int_charpoly(rows)
        scale = 1
        coeffs = []
        for c in ints:
            coeffs.append(Fraction(c, scale))
            scale *= den
        return coeffs
    n = matrix.rows
    coeffs = [Fraction(1)]
    mk = matrix
    identity = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        ck = -mk.trace() / k
        coeffs.append(ck)
        if k < n:
            mk = matrix @ (mk + identity.scale(ck))
    return coeffs


def poly_eval(coeffs: Sequence[Number], x: Number) -> Fraction:
    """Horner evaluation of a polynomial given highest-degree-first coefficients."""
    x = to_fraction(x)
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + to_fraction(c)
    return acc


def routh_table(
    coeffs: Sequence[Number], backend: str = "auto"
) -> list[list[Fraction]]:
    """Build the Routh array for a polynomial (highest degree first).

    Raises :class:`ZeroDivisionError`-free: when a first-column zero
    appears mid-table the construction stops early and the partial table
    is returned — callers interpret a zero first-column entry as
    "not strictly Hurwitz", which is sound (strict Hurwitz requires all
    first-column entries nonzero and of equal sign).

    The integer kernel clears the coefficient denominators once and
    runs the recurrence fraction-free — each working row is the true
    row times a tracked scalar (``new_int_j = B_0 A_{j+1} - A_0
    B_{j+1}`` with scale ``s_new = s_above * B_0``) — then divides back
    to exact Fractions only when emitting the table.
    """
    c = [to_fraction(v) for v in coeffs]
    if not c or c[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    degree = len(c) - 1
    if degree == 0:
        return [[c[0]]]
    mode = kernels.resolve_backend(backend, len(c), op="routh")
    if mode != "fraction":
        return _int_routh_table(c)
    row0 = c[0::2]
    row1 = c[1::2]
    width = len(row0)
    row1 += [Fraction(0)] * (width - len(row1))
    table = [row0, row1]
    for _ in range(degree - 1):
        above = table[-2]
        pivot_row = table[-1]
        pivot = pivot_row[0]
        if pivot == 0:
            break
        new_row = []
        for j in range(width - 1):
            a = above[j + 1] if j + 1 < len(above) else Fraction(0)
            b = pivot_row[j + 1] if j + 1 < len(pivot_row) else Fraction(0)
            new_row.append((pivot * a - above[0] * b) / pivot)
        new_row.append(Fraction(0))
        table.append(new_row)
    return table


def _int_routh_table(c: list[Fraction]) -> list[list[Fraction]]:
    """Fraction-free Routh construction (identical values to the oracle).

    Works on integer rows with one scalar per row: ``int_row == s *
    true_row`` with ``s`` a nonzero integer (possibly negative — the
    final division restores signs exactly).
    """
    degree = len(c) - 1
    den = 1
    for x in c:
        d = x.denominator
        den = den * (d // math.gcd(den, d))
    ints = [x.numerator * (den // x.denominator) for x in c]
    row0 = ints[0::2]
    row1 = ints[1::2]
    width = len(row0)
    row1 += [0] * (width - len(row1))
    int_rows = [row0, row1]
    scales = [den, den]
    for _ in range(degree - 1):
        above = int_rows[-2]
        pivot_row = int_rows[-1]
        pivot = pivot_row[0]
        if pivot == 0:
            break
        new_row = []
        for j in range(width - 1):
            a = above[j + 1] if j + 1 < len(above) else 0
            b = pivot_row[j + 1] if j + 1 < len(pivot_row) else 0
            new_row.append(pivot * a - above[0] * b)
        new_row.append(0)
        new_scale = scales[-2] * pivot
        # Curb entry growth: strip the content of the row (the scale
        # absorbs it; gcd is cheap on machine-sized ints, and the final
        # division is exact either way).
        g = 0
        for value in new_row:
            g = math.gcd(g, value)
        if g > 1 and new_scale % g == 0:
            new_row = [value // g for value in new_row]
            new_scale //= g
        int_rows.append(new_row)
        scales.append(new_scale)
    return [
        [Fraction(value, scale) for value in row]
        for row, scale in zip(int_rows, scales)
    ]


def is_hurwitz_polynomial(
    coeffs: Sequence[Number], backend: str = "auto"
) -> bool:
    """Decide whether all roots have strictly negative real part.

    Normalizes the sign of the leading coefficient, then requires every
    first-column Routh entry to be strictly positive. Exact, hence a
    proof for rational coefficients.
    """
    c = [to_fraction(v) for v in coeffs]
    if not c:
        raise ValueError("empty polynomial")
    if c[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    if c[0] < 0:
        c = [-v for v in c]
    # A strictly Hurwitz polynomial has all coefficients positive.
    if any(v <= 0 for v in c):
        return False
    table = routh_table(c, backend=backend)
    if len(table) < len(c):  # construction aborted on a zero pivot
        return False
    return all(row[0] > 0 for row in table)


def is_hurwitz_matrix(matrix: RationalMatrix, backend: str = "auto") -> bool:
    """Exact proof that every eigenvalue of ``matrix`` has negative real part."""
    return is_hurwitz_polynomial(
        charpoly(matrix, backend=backend), backend=backend
    )
