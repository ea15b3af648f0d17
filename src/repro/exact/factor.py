"""Exact factorizations and elimination over the rationals.

Provides the determinant (Bareiss fraction-free algorithm), all leading
principal minors in a single fraction-free pass, exact Gaussian
elimination with partial pivoting (solve / inverse),
fraction-free elimination pivots (the SymPy-style definiteness check),
and an LDL^T factorization for symmetric matrices.

Every public entry point dispatches over the kernel layer
(:mod:`repro.exact.kernels`) via
``backend="auto"|"fraction"|"int"|"modular"``: the historical
entry-by-entry Fraction algorithms are kept verbatim as the
``"fraction"`` differential-testing oracle,
while the integer and multimodular kernels do the same work 10-100x
faster by clearing denominators once and eliminating over plain Python
ints (or over ``Z/p`` with CRT reconstruction
certified against the Hadamard bound). Results are bit-identical
across backends.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import kernels
from .matrix import RationalMatrix
from .rational import Number, to_fraction

__all__ = [
    "bareiss_determinant",
    "determinant",
    "leading_principal_minors",
    "iter_leading_principal_minors",
    "gauss_pivots",
    "solve",
    "inverse",
    "ldl",
]


def bareiss_determinant(
    matrix: RationalMatrix, backend: str = "auto"
) -> Fraction:
    """Exact determinant via fraction-free elimination.

    Bareiss keeps intermediate entries as (rational multiples of)
    subdeterminants, which bounds coefficient growth much better than
    naive elimination; on integer matrices all intermediates stay
    integral. Row swaps flip the sign.

    ``backend`` selects the kernel: ``"fraction"`` is the historical
    Fraction-by-Fraction pass, ``"int"`` clears denominators once and
    runs integer Bareiss, ``"modular"`` reconstructs the integer
    determinant from word-sized primes under the Hadamard bound, and
    ``"auto"`` picks between the latter two by size.
    """
    if not matrix.is_square():
        raise ValueError("determinant of a non-square matrix")
    mode = kernels.resolve_backend(backend, matrix.rows, op="det")
    if mode == "fraction":
        return _fraction_bareiss_determinant(matrix)
    rows, den = kernels.normalized(matrix)
    if mode == "int":
        det_int = kernels.int_bareiss_determinant(rows)
    else:
        det_int = kernels.modular_determinant(rows)
    return Fraction(det_int, den ** matrix.rows)


def _fraction_bareiss_determinant(matrix: RationalMatrix) -> Fraction:
    """The historical Fraction-arithmetic Bareiss pass (the oracle)."""
    n = matrix.rows
    m = [row[:] for row in matrix.tolist()]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = pivot
    return sign * m[n - 1][n - 1]


def determinant(matrix: RationalMatrix, backend: str = "auto") -> Fraction:
    """Alias for :func:`bareiss_determinant` (the library's default)."""
    return bareiss_determinant(matrix, backend=backend)


def iter_leading_principal_minors(
    matrix: RationalMatrix, backend: str = "auto"
) -> Iterator[Fraction]:
    """Yield all ``n`` leading principal minors, smallest first, from one
    fraction-free elimination pass.

    In fraction-free Bareiss elimination *without row exchanges*, the
    diagonal entry at position ``k`` right before stage ``k`` equals the
    determinant of the leading ``(k+1) x (k+1)`` submatrix, so one
    elimination yields every minor as a by-product — Θ(n³) total versus
    Θ(n⁴) for ``n`` independent determinants. Consumers that stop early
    (Sylvester's criterion on the first non-positive minor) pay only for
    the stages they consume. Symmetric input keeps the working matrix
    symmetric, so only the lower triangle is eliminated and mirrored.

    A zero minor stalls the fraction-free recurrence (no pivoting is
    allowed — row swaps would change *which* minors appear); the
    remaining minors are then produced by independent per-``k``
    determinants, preserving exactness on singular leading blocks.

    ``backend="int"`` (the ``"auto"`` choice — it streams and can
    short-circuit) clears denominators once and runs the identical
    recurrence over integers; ``"modular"`` CRT-reconstructs all minors
    from per-prime passes under the Hadamard bound.
    """
    if not matrix.is_square():
        raise ValueError("leading principal minors of a non-square matrix")
    mode = kernels.resolve_backend(backend, matrix.rows, op="minors")
    if mode == "fraction":
        yield from _fraction_iter_minors(matrix)
        return
    rows, den = kernels.normalized(matrix)
    if mode == "int":
        stream: Iterator[int] = kernels.iter_int_leading_principal_minors(rows)
    else:
        stream = iter(kernels.modular_leading_principal_minors(rows))
    scale = 1
    for minor_int in stream:
        scale *= den
        yield Fraction(minor_int, scale)


def _fraction_iter_minors(matrix: RationalMatrix) -> Iterator[Fraction]:
    """The historical Fraction-arithmetic minor stream (the oracle)."""
    n = matrix.rows
    m = [row[:] for row in matrix.tolist()]
    symmetric = matrix.is_symmetric()
    prev = Fraction(1)
    for k in range(n):
        pivot = m[k][k]
        yield pivot
        if k == n - 1:
            return
        if pivot == 0:
            for j in range(k + 2, n + 1):
                yield _fraction_bareiss_determinant(matrix.leading_principal(j))
            return
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            m_ik = row_i[k]
            stop = (i + 1) if symmetric else n
            for j in range(k + 1, stop):
                row_i[j] = (row_i[j] * pivot - m_ik * row_k[j]) / prev
            row_i[k] = Fraction(0)
        if symmetric:
            for i in range(k + 1, n):
                row_i = m[i]
                for j in range(i + 1, n):
                    row_i[j] = m[j][i]
        prev = pivot


def leading_principal_minors(
    matrix: RationalMatrix, backend: str = "auto"
) -> list[Fraction]:
    """All ``n`` leading principal minors of a square matrix.

    Single-pass Bareiss (see :func:`iter_leading_principal_minors`);
    ``leading_principal_minors(m)[k - 1] ==
    bareiss_determinant(m.leading_principal(k))`` for every ``k``.
    """
    return list(iter_leading_principal_minors(matrix, backend=backend))


def gauss_pivots(matrix: RationalMatrix) -> Optional[list[Fraction]]:
    """Diagonal pivots after Gaussian elimination *without row exchanges*.

    This mirrors SymPy's ``is_positive_definite`` fast path: eliminate
    below the diagonal without renormalizing rows and report the diagonal
    entries. Returns ``None`` when a zero pivot is hit (the method is then
    inconclusive — for a symmetric matrix that already refutes *definite*,
    but callers decide). For a symmetric matrix the pivots are all
    positive iff the matrix is positive definite.
    """
    if not matrix.is_square():
        raise ValueError("gauss_pivots requires a square matrix")
    n = matrix.rows
    m = [row[:] for row in matrix.tolist()]
    pivots: list[Fraction] = []
    for k in range(n):
        pivot = m[k][k]
        if pivot == 0:
            return None
        pivots.append(pivot)
        for i in range(k + 1, n):
            factor = m[i][k] / pivot
            if factor == 0:
                continue
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return pivots


def _eliminate(aug: list[list[Fraction]], rows: int, cols: int) -> tuple[int, int]:
    """In-place row echelon with partial (max-|entry|) pivoting.

    Returns ``(rank, sign)`` where ``sign`` tracks row swaps.
    """
    sign = 1
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        best = max(
            range(pivot_row, rows), key=lambda r: abs(aug[r][col])
        )
        if aug[best][col] == 0:
            continue
        if best != pivot_row:
            aug[pivot_row], aug[best] = aug[best], aug[pivot_row]
            sign = -sign
        pivot = aug[pivot_row][col]
        for r in range(pivot_row + 1, rows):
            factor = aug[r][col] / pivot
            if factor == 0:
                continue
            for c in range(col, len(aug[r])):
                aug[r][c] -= factor * aug[pivot_row][c]
        pivot_row += 1
    return pivot_row, sign


def solve(
    matrix: RationalMatrix, rhs: RationalMatrix, backend: str = "auto"
) -> RationalMatrix:
    """Solve ``matrix @ X = rhs`` exactly (matrix must be invertible).

    The integer path clears denominators of both sides once, runs
    fraction-free Bareiss forward elimination over ints (the Θ(n³)
    phase), and reconstructs rationals only during back-substitution.
    """
    if not matrix.is_square():
        raise ValueError("solve requires a square matrix")
    if matrix.rows != rhs.rows:
        raise ValueError("solve: right-hand side row mismatch")
    mode = kernels.resolve_backend(backend, matrix.rows, op="solve")
    if mode != "fraction":
        a_rows, a_den = kernels.normalized(matrix)
        b_rows, b_den = kernels.normalized(rhs)
        x = kernels.int_solve_columns(a_rows, b_rows)
        # (N_A / a_den) X = N_B / b_den  =>  X = (a_den / b_den) * X_int.
        rescale = Fraction(a_den, b_den)
        if rescale != 1:
            x = [[value * rescale for value in row] for row in x]
        return RationalMatrix(x)
    n = matrix.rows
    width = rhs.cols
    aug = [matrix.row(i) + rhs.row(i) for i in range(n)]
    rank_, _sign = _eliminate(aug, n, n)
    if rank_ < n:
        raise ValueError("matrix is singular")
    # Back substitution.
    x = [[Fraction(0)] * width for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for b in range(width):
            acc = aug[i][n + b]
            for j in range(i + 1, n):
                acc -= aug[i][j] * x[j][b]
            x[i][b] = acc / aug[i][i]
    return RationalMatrix(x)


def solve_vector(
    matrix: RationalMatrix, rhs: Sequence[Number], backend: str = "auto"
) -> list[Fraction]:
    """Solve ``matrix @ x = rhs`` for a plain vector right-hand side."""
    col = RationalMatrix.column([to_fraction(v) for v in rhs])
    return [row[0] for row in solve(matrix, col, backend=backend).tolist()]


def inverse(matrix: RationalMatrix, backend: str = "auto") -> RationalMatrix:
    """Exact inverse via augmented elimination."""
    return solve(matrix, RationalMatrix.identity(matrix.rows), backend=backend)


def ldl(
    matrix: RationalMatrix, backend: str = "auto"
) -> Optional[tuple[RationalMatrix, list[Fraction]]]:
    """LDL^T factorization of a symmetric matrix, if it exists pivot-free.

    Returns ``(L, d)`` with ``L`` unit lower triangular and ``d`` the
    diagonal of ``D`` such that ``matrix == L D L^T``; ``None`` when a
    zero pivot occurs (no pivoting is performed — the factorization is
    used for definiteness certificates, where encountering a zero pivot
    already settles the strict question for symmetric inputs).

    Non-fraction backends run the elimination fraction-free over
    integers (:func:`repro.exact.kernels.int_ldlt`) and reconstruct the
    rational ``L`` and ``d`` only at the end.
    """
    if not matrix.is_symmetric():
        raise ValueError("ldl requires a symmetric matrix")
    mode = kernels.resolve_backend(backend, matrix.rows, op="ldl")
    if mode != "fraction":
        rows, den = kernels.normalized(matrix)
        data = kernels.int_ldlt(rows)
        if data is None:
            return None
        columns, minors = data
        n = matrix.rows
        lower = [
            [Fraction(int(i == j)) for j in range(n)] for i in range(n)
        ]
        for k in range(n):
            pivot = minors[k]
            for offset, value in enumerate(columns[k]):
                lower[k + 1 + offset][k] = Fraction(value, pivot)
        diag = [
            Fraction(minors[k], den * (minors[k - 1] if k else 1))
            for k in range(n)
        ]
        return RationalMatrix(lower), diag
    n = matrix.rows
    a = [row[:] for row in matrix.tolist()]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag: list[Fraction] = []
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            return None
        diag.append(pivot)
        for i in range(k + 1, n):
            lower[i][k] = a[i][k] / pivot
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):
                a[i][j] -= lower[i][k] * pivot * lower[j][k]
                a[j][i] = a[i][j]
    return RationalMatrix(lower), diag
