"""Dense matrices over exact rational numbers.

:class:`RationalMatrix` is a small, dependency-free dense matrix type.
It exists because every *verdict* in this library (positive
definiteness, Hurwitz stability, robust-region optimality) must be an
exact proof; numpy arrays feed the numerical synthesis side, and are
converted here (exactly) for validation.

Entries are canonical :class:`fractions.Fraction` objects, but the
arithmetic (``@``, ``+``, ``-``, :meth:`~RationalMatrix.scale`,
:meth:`~RationalMatrix.symmetrize`) runs on the *integer normal form*
``M = N / den``: one positive common denominator ``den`` (the LCM of
the entry denominators) over a plain integer matrix ``N``
(:meth:`RationalMatrix.normal_form`). A product is then ``n^3`` Python
int multiply-adds over one denominator ``den_A * den_B``, and each
result entry is normalized once by ``Fraction(num, den)``
(:meth:`RationalMatrix.from_normal_form`) instead of paying a
``Fraction`` operation and a GCD per scalar step. The exact kernels
(:mod:`repro.exact.kernels`) eliminate on the same normal form.

The class is immutable by convention: operations return new matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .rational import Number, fraction_to_float, round_sigfigs, to_fraction

__all__ = ["RationalMatrix", "int_matmul"]


def int_matmul(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The product of two integer matrices given as row lists."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


class RationalMatrix:
    """A dense ``rows x cols`` matrix of :class:`Fraction` entries."""

    __slots__ = ("_data", "rows", "cols")

    def __init__(self, data: Sequence[Sequence[Number]]):
        rows = [[to_fraction(x) for x in row] for row in data]
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows in matrix literal")
        self._data = rows
        self.rows = len(rows)
        self.cols = width

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Number]]) -> "RationalMatrix":
        """Build from a sequence of rows (alias of the constructor)."""
        return cls(rows)

    @classmethod
    def from_numpy(cls, array) -> "RationalMatrix":
        """Exact conversion of a 1-D or 2-D numpy array (floats kept exactly)."""
        if getattr(array, "ndim", None) == 1:
            return cls([[x] for x in array.tolist()])
        return cls([list(row) for row in array.tolist()])

    @classmethod
    def from_normal_form(
        cls, rows: Sequence[Sequence[int]], den: int
    ) -> "RationalMatrix":
        """The matrix ``rows / den`` for integer ``rows`` and ``den > 0``.

        Each entry is normalized once with ``Fraction(num, den)``; in a
        square matrix, an entry whose mirror across the diagonal has the
        same numerator reuses the mirror's ``Fraction``, so a symmetric
        result builds only its upper triangle.
        """
        square = len(rows) == len(rows[0])
        data: list[list[Fraction]] = []
        for i, row in enumerate(rows):
            data.append(
                [
                    data[j][i]
                    if square and j < i and x == rows[j][i]
                    else Fraction(x, den)
                    for j, x in enumerate(row)
                ]
            )
        return cls._of(data)

    @classmethod
    def _of(cls, data: list[list[Fraction]]) -> "RationalMatrix":
        """Wrap rows of canonical Fractions without re-converting them."""
        matrix = object.__new__(cls)
        matrix._data = data
        matrix.rows = len(data)
        matrix.cols = len(data[0])
        return matrix

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        """The n x n identity matrix."""
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        """An all-zero matrix of the given shape."""
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def column(cls, entries: Sequence[Number]) -> "RationalMatrix":
        """A single-column matrix from a vector."""
        return cls([[x] for x in entries])

    @classmethod
    def diagonal(cls, entries: Sequence[Number]) -> "RationalMatrix":
        """A diagonal matrix with the given entries."""
        n = len(entries)
        out = [[Fraction(0)] * n for _ in range(n)]
        for i, x in enumerate(entries):
            out[i][i] = to_fraction(x)
        return cls(out)

    # ------------------------------------------------------------------
    # Element access
    # ------------------------------------------------------------------
    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> list[Fraction]:
        """Row ``i`` as a list of Fractions (a copy)."""
        return list(self._data[i])

    def col(self, j: int) -> list[Fraction]:
        """Column ``j`` as a list of Fractions."""
        return [self._data[i][j] for i in range(self.rows)]

    def iter_entries(self) -> Iterator[Fraction]:
        """Iterate over all entries, row-major."""
        for row in self._data:
            yield from row

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, cols)``."""
        return (self.rows, self.cols)

    def tolist(self) -> list[list[Fraction]]:
        """Nested lists of Fractions (copies)."""
        return [list(row) for row in self._data]

    def to_float(self) -> list[list[float]]:
        """Nested lists of nearest binary doubles (lossy)."""
        return [[fraction_to_float(x) for x in row] for row in self._data]

    def normal_form(self) -> tuple[list[list[int]], int]:
        """The integer normal form ``(N, den)``: ``self[i, j] == N[i][j] / den``.

        ``den`` is the LCM of the entry denominators, so it is positive
        and 1 for an integer matrix. ``N`` is a fresh list of lists.
        """
        ratios = [[x.as_integer_ratio() for x in row] for row in self._data]
        dens = {d for row in ratios for _, d in row}
        den = math.lcm(*dens)
        factors = {d: den // d for d in dens}
        return [[num * factors[d] for num, d in row] for row in ratios], den

    def to_numpy(self):
        """Dense float ndarray (lossy)."""
        import numpy as np

        return np.array(self.to_float(), dtype=float)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def transpose(self) -> "RationalMatrix":
        """The transposed matrix."""
        return RationalMatrix(
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    @property
    def T(self) -> "RationalMatrix":
        """Transpose (property shorthand)."""
        return self.transpose()

    def submatrix(self, rows: Iterable[int], cols: Iterable[int]) -> "RationalMatrix":
        """The submatrix with the given row/column indices."""
        rows = list(rows)
        cols = list(cols)
        return RationalMatrix([[self._data[i][j] for j in cols] for i in rows])

    def permute(self, perm: Sequence[int]) -> "RationalMatrix":
        """Symmetric row/column permutation ``M[perm][:, perm]``.

        For a square matrix this is the exact similarity (and congruence)
        transform by the permutation matrix of ``perm`` — the verdict-
        preserving reshaping the metamorphic test layer exercises.
        """
        perm = list(perm)
        if sorted(perm) != list(range(self.rows)) or self.rows != self.cols:
            raise ValueError("perm must permute the rows of a square matrix")
        return self.submatrix(perm, perm)

    def leading_principal(self, k: int) -> "RationalMatrix":
        """Top-left ``k x k`` block (the ``k``-th leading principal submatrix)."""
        if not 1 <= k <= min(self.rows, self.cols):
            raise ValueError(f"k={k} out of range")
        idx = range(k)
        return self.submatrix(idx, idx)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        """Concatenate columns (``[self | other]``)."""
        if self.rows != other.rows:
            raise ValueError("hstack: row mismatch")
        return RationalMatrix(
            [self._data[i] + other._data[i] for i in range(self.rows)]
        )

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        """Concatenate rows (``[self; other]``)."""
        if self.cols != other.cols:
            raise ValueError("vstack: column mismatch")
        return RationalMatrix(self._data + other._data)

    def map(self, fn: Callable[[Fraction], Number]) -> "RationalMatrix":
        """Apply ``fn`` entrywise, returning a new matrix."""
        return RationalMatrix([[fn(x) for x in row] for row in self._data])

    def round_sigfigs(self, sigfigs: int) -> "RationalMatrix":
        """Entrywise significant-figure rounding (the validation pipeline's knob)."""
        return RationalMatrix._of(
            [[round_sigfigs(x, sigfigs) for x in row] for row in self._data]
        )

    def symmetrize(self) -> "RationalMatrix":
        """Return ``(M + M^T) / 2`` (a copy of ``M`` when it is symmetric)."""
        if self.rows != self.cols:
            raise ValueError("symmetrize requires a square matrix")
        rows, den = self.normal_form()
        cols = list(zip(*rows))
        if all(row == list(col) for row, col in zip(rows, cols)):
            return RationalMatrix._of([list(row) for row in self._data])
        return RationalMatrix.from_normal_form(
            [[x + y for x, y in zip(row, col)] for row, col in zip(rows, cols)],
            2 * den,
        )

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def is_square(self) -> bool:
        """True when rows == cols."""
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        """Exact symmetry test (square and M[i,j] == M[j,i])."""
        if not self.is_square():
            return False
        data = self._data
        return all(
            data[i][j] is data[j][i] or data[i][j] == data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_zero(self) -> bool:
        """True when every entry is exactly zero."""
        return all(x == 0 for x in self.iter_entries())

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _check_same_shape(self, other: "RationalMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def _combine(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        """``self + sign * other`` over the LCM of the two denominators."""
        self._check_same_shape(other)
        a, a_den = self.normal_form()
        b, b_den = other.normal_form()
        den = math.lcm(a_den, b_den)
        fa, fb = den // a_den, sign * (den // b_den)
        return RationalMatrix.from_normal_form(
            [[x * fa + y * fb for x, y in zip(ra, rb)] for ra, rb in zip(a, b)],
            den,
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "RationalMatrix":
        return self.map(lambda x: -x)

    def scale(self, k: Number) -> "RationalMatrix":
        """Multiply every entry by the scalar ``k``."""
        k_num, k_den = to_fraction(k).as_integer_ratio()
        rows, den = self.normal_form()
        return RationalMatrix.from_normal_form(
            [[x * k_num for x in row] for row in rows], den * k_den
        )

    def __mul__(self, k: Number) -> "RationalMatrix":
        return self.scale(k)

    def __rmul__(self, k: Number) -> "RationalMatrix":
        return self.scale(k)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"matmul mismatch: {self.shape} @ {other.shape}")
        a, a_den = self.normal_form()
        b, b_den = other.normal_form()
        return RationalMatrix.from_normal_form(int_matmul(a, b), a_den * b_den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.shape == other.shape and self._data == other._data

    def __hash__(self) -> int:
        return hash(tuple(tuple(row) for row in self._data))

    def trace(self) -> Fraction:
        """Sum of diagonal entries (exact)."""
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum((self._data[i][i] for i in range(self.rows)), Fraction(0))

    def quadratic_form(self, vector: Sequence[Number]) -> Fraction:
        """Evaluate ``v^T M v`` exactly."""
        v = [to_fraction(x) for x in vector]
        if len(v) != self.rows or not self.is_square():
            raise ValueError("quadratic_form dimension mismatch")
        total = Fraction(0)
        for i, row in enumerate(self._data):
            total += v[i] * sum(a * b for a, b in zip(row, v))
        return total

    def dot(self, vector: Sequence[Number]) -> list[Fraction]:
        """Matrix-vector product as a plain list."""
        v = [to_fraction(x) for x in vector]
        if len(v) != self.cols:
            raise ValueError("dot dimension mismatch")
        return [sum(a * b for a, b in zip(row, v)) for row in self._data]

    def max_abs(self) -> Fraction:
        """Largest absolute entry (exact)."""
        return max(abs(x) for x in self.iter_entries())

    def __repr__(self) -> str:
        if self.rows * self.cols <= 36:
            body = "; ".join(
                " ".join(str(x) for x in row) for row in self._data
            )
            return f"RationalMatrix({self.rows}x{self.cols}: {body})"
        return f"RationalMatrix({self.rows}x{self.cols})"
