"""Exact rational scalar utilities.

Everything in :mod:`repro.exact` computes over :class:`fractions.Fraction`
so that validation verdicts are *proofs*, not floating-point estimates.
This module holds the scalar-level helpers: conversions from ambient
numeric types (including binary floats, converted exactly) and the
significant-figure rounding used by the paper's validation pipeline
(candidates synthesized numerically are rounded at the 10th -- and, for
the robustness study, the 6th and 4th -- significant figure before the
symbolic checks run).
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral, Rational
from typing import Union

Number = Union[int, float, str, Fraction]

__all__ = [
    "Number",
    "to_fraction",
    "round_sigfigs",
    "fraction_to_float",
]


def to_fraction(value: Number) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Binary floats are converted *exactly* (``Fraction(0.1)`` is the true
    binary value of ``0.1``, not ``1/10``); pass a string such as
    ``"0.1"`` to get the decimal reading. NumPy scalar types are accepted
    through their ``item()`` coercion.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Integral):
        return Fraction(int(value))
    if isinstance(value, Rational):
        return Fraction(value.numerator, value.denominator)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    item = getattr(value, "item", None)
    if item is not None:
        return to_fraction(item())
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


#: ``log10(2)``: a bit length times this estimates a decimal exponent.
_LOG10_2 = math.log10(2)


def _truncate(num: int, den: int, sigfigs: int) -> tuple[int, int, int, int]:
    """``num / den`` (positive ints) cut to ``sigfigs`` significant digits.

    Returns ``(digits, remainder, unit, shift)`` with ``num / den *
    10**shift == digits + remainder / unit``, ``0 <= remainder < unit``
    and ``10**(sigfigs-1) <= digits < 10**sigfigs``. The bit lengths
    put ``num / den`` within a factor of two of ``2**(bits(num) -
    bits(den))``, so the first ``shift`` is off by at most one and the
    loop settles it exactly. No decimal string is ever built, so
    integers of any size are fine.
    """
    low = 10 ** (sigfigs - 1)
    estimate = math.floor((num.bit_length() - den.bit_length()) * _LOG10_2)
    shift = sigfigs - 1 - estimate
    while True:
        if shift >= 0:
            unit = den
            digits, remainder = divmod(num * 10**shift, unit)
        else:
            unit = den * 10**-shift
            digits, remainder = divmod(num, unit)
        if digits < low:
            shift += 1
        elif digits >= 10 * low:
            shift -= 1
        else:
            return digits, remainder, unit, shift


def round_sigfigs(q: Fraction, sigfigs: int) -> Fraction:
    """Round ``q`` to ``sigfigs`` significant decimal figures, exactly.

    This mirrors the paper's Section VI-B: numerically synthesized
    Lyapunov matrices are rounded at the 10th (and, to probe robustness,
    6th and 4th) significant figure before exact validation. Rounding is
    round-half-to-even, matching IEEE/Python semantics. The work is one
    integer ``divmod`` on ``|q|`` scaled by a power of ten; the sign is
    restored afterwards (half-even rounding is symmetric).
    """
    if sigfigs < 1:
        raise ValueError("sigfigs must be >= 1")
    num, den = q.numerator, q.denominator
    if num == 0:
        return Fraction(0)
    digits, remainder, unit, shift = _truncate(abs(num), den, sigfigs)
    twice = 2 * remainder
    if twice > unit or (twice == unit and digits & 1):
        digits += 1
    if num < 0:
        digits = -digits
    if shift >= 0:
        return Fraction(digits, 10**shift)
    return Fraction(digits * 10**-shift)


def fraction_to_float(q: Fraction) -> float:
    """Nearest binary double to ``q`` (the only lossy direction)."""
    return q.numerator / q.denominator
