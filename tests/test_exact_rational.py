"""Tests for exact scalar utilities (repro.exact.rational)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import case_by_name
from repro.exact import (
    RationalMatrix,
    fraction_to_float,
    round_sigfigs,
    to_fraction,
)
from repro.lyapunov import synthesize

nonzero_fractions = st.fractions(
    min_value=Fraction(-10**9), max_value=Fraction(10**9), max_denominator=10**6
).filter(lambda q: q != 0)


class TestToFraction:
    def test_int(self):
        assert to_fraction(7) == Fraction(7)

    def test_fraction_passthrough(self):
        q = Fraction(3, 7)
        assert to_fraction(q) is q

    def test_float_is_exact_binary(self):
        assert to_fraction(0.5) == Fraction(1, 2)
        assert to_fraction(0.1) != Fraction(1, 10)  # binary 0.1 is not 1/10

    def test_string_is_decimal(self):
        assert to_fraction("0.1") == Fraction(1, 10)
        assert to_fraction("-3/4") == Fraction(-3, 4)

    def test_numpy_scalar(self):
        import numpy as np

        assert to_fraction(np.float64(0.25)) == Fraction(1, 4)
        assert to_fraction(np.int64(-3)) == Fraction(-3)

    def test_rejects_complex(self):
        with pytest.raises(TypeError):
            to_fraction(1 + 2j)


class TestRoundSigfigs:
    def test_exact_cases(self):
        assert round_sigfigs(Fraction(12345), 2) == Fraction(12000)
        assert round_sigfigs(Fraction(12345), 3) == Fraction(12300)
        assert round_sigfigs(Fraction("0.0012349"), 3) == Fraction("0.00123")

    def test_zero(self):
        assert round_sigfigs(Fraction(0), 4) == 0

    def test_negative(self):
        assert round_sigfigs(Fraction(-987654), 2) == Fraction(-990000)

    def test_half_even(self):
        assert round_sigfigs(Fraction(125), 2) == Fraction(120)
        assert round_sigfigs(Fraction(135), 2) == Fraction(140)

    def test_invalid_sigfigs(self):
        with pytest.raises(ValueError):
            round_sigfigs(Fraction(1), 0)

    @given(nonzero_fractions, st.integers(min_value=1, max_value=12))
    def test_relative_error_bound(self, q, n):
        rounded = round_sigfigs(q, n)
        assert abs(rounded - q) <= abs(q) * Fraction(1, 10 ** (n - 1))

    @given(nonzero_fractions, st.integers(min_value=1, max_value=10))
    def test_idempotent(self, q, n):
        once = round_sigfigs(q, n)
        if once != 0:
            assert round_sigfigs(once, n) == once


class TestSmallHelpers:
    def test_fraction_to_float(self):
        assert fraction_to_float(Fraction(1, 4)) == 0.25


# ----------------------------------------------------------------------
# The integer rounding against the historical Fraction formula, kept
# here as the oracle: digit counts from decimal strings, then
# ``round(q * 10**k) / 10**k`` in Fraction arithmetic.
# ----------------------------------------------------------------------

def _oracle_pow10(e):
    return Fraction(10**e) if e >= 0 else Fraction(1, 10**-e)


def oracle_decimal_exponent(q):
    q = abs(q)
    e = len(str(q.numerator)) - len(str(q.denominator))
    while _oracle_pow10(e) > q:
        e -= 1
    while _oracle_pow10(e + 1) <= q:
        e += 1
    return e


def oracle_round_sigfigs(q, sigfigs):
    if q == 0:
        return Fraction(0)
    scale = _oracle_pow10(sigfigs - 1 - oracle_decimal_exponent(q))
    return Fraction(round(q * scale)) / scale


def assert_same_rounding(q, sigfigs):
    got = round_sigfigs(q, sigfigs)
    want = oracle_round_sigfigs(q, sigfigs)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (
        want.numerator, want.denominator
    ), (q, sigfigs)


sigfig_range = st.integers(min_value=1, max_value=17)


@st.composite
def wide_rationals(draw):
    """Nonzero rationals with decimal exponents from about -320 to +320."""
    num = draw(st.integers(min_value=1, max_value=10**20))
    den = draw(st.integers(min_value=1, max_value=10**20))
    sign = draw(st.sampled_from((1, -1)))
    q = Fraction(sign * num, den) * Fraction(10) ** draw(
        st.integers(min_value=-300, max_value=300)
    )
    return q


class TestRoundSigfigsOracle:
    @settings(max_examples=400, deadline=None)
    @given(wide_rationals(), sigfig_range)
    def test_wide_rationals(self, q, sigfigs):
        assert_same_rounding(q, sigfigs)

    @settings(max_examples=200, deadline=None)
    @given(
        sigfig_range,
        st.integers(min_value=0, max_value=10**17),
        st.integers(min_value=-40, max_value=40),
        st.sampled_from((1, -1)),
    )
    def test_exact_ties(self, sigfigs, seed, exponent, sign):
        """``d.5`` at the last kept digit: half-even for either parity."""
        low = 10 ** (sigfigs - 1)
        digits = low + seed % (9 * low)
        q = sign * Fraction(2 * digits + 1, 2) * Fraction(10) ** exponent
        assert_same_rounding(q, sigfigs)

    @pytest.mark.parametrize("digits", [12, 13, 99, 10, 11])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_explicit_ties_both_parities(self, digits, sign):
        q = sign * Fraction(2 * digits + 1, 20)  # e.g. 1.25, 1.35, 9.95
        assert_same_rounding(q, 2)
        expected = digits + (digits & 1)
        assert round_sigfigs(q, 2) == sign * Fraction(expected, 10)

    @pytest.mark.parametrize("k", [0, 1, 2, 9, 10, 17, 22, 100, 320])
    def test_powers_of_ten_and_neighbours(self, k):
        """Where the digit-length estimate is off by one."""
        values = [Fraction(10**k), Fraction(1, 10**k)]
        for delta in (-1, 1):
            if 10**k + delta:
                values += [
                    Fraction(10**k + delta),
                    Fraction(1, 10**k + delta),
                    Fraction(10**k + delta, 10**k),
                    Fraction(10**k, 10**k + delta),
                ]
        for q in values:
            for sign in (1, -1):
                for sigfigs in range(1, 18):
                    assert_same_rounding(sign * q, sigfigs)

    def test_every_entry_of_a_size18_candidate(self):
        a = case_by_name("size18").mode_matrix(0)
        p = RationalMatrix.from_numpy(synthesize("eq-num", a).p)
        for x in p.iter_entries():
            for sigfigs in (10, 6, 4):
                assert_same_rounding(x, sigfigs)


class TestBigRationals:
    """``round_sigfigs`` once counted digits with ``str()``, which
    CPython 3.11+ refuses beyond 4300 digits."""

    def test_round_sigfigs_beyond_str_limit(self):
        q = Fraction(10**5000 + 1, 3)
        assert round_sigfigs(q, 4) == Fraction(3333 * 10**4996)
