import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from llltool.errors import InvalidParameterError
from llltool.exact import (
    binomial_sigma,
    certified_less,
    e_interval,
    e_power_interval,
    float_of,
    format_rational,
    parse_rational,
    pow_compare,
    rational_pow_leq,
)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational(7) == Fraction(7)
    assert parse_rational(Fraction(2, 3)) == Fraction(2, 3)


def test_parse_rational_rejects_junk():
    with pytest.raises(InvalidParameterError):
        parse_rational("three quarters")
    with pytest.raises(InvalidParameterError):
        parse_rational("1/0")


@given(st.fractions())
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_e_interval_brackets_e():
    lo, hi = e_interval(12)
    assert lo < hi
    assert float(lo) < math.e < float(hi)
    # tail bound: 12 terms pin e down far beyond float precision
    assert hi - lo < Fraction(1, 10**7)


def test_e_interval_nested():
    lo1, hi1 = e_interval(8)
    lo2, hi2 = e_interval(16)
    assert lo1 <= lo2 < hi2 <= hi1


def test_e_power_interval_squares():
    # 8 terms leave the enclosure wide enough to see float(e)**2 inside;
    # the default 24-term one is tighter than float rounding error.
    lo, hi = e_power_interval(2, terms=8)
    assert float(lo) < math.e**2 < float(hi)
    lo24, hi24 = e_power_interval(2)
    assert lo <= lo24 < hi24 <= hi


def test_e_power_interval_negative_exponent():
    lo, hi = e_power_interval(-1, terms=8)
    assert float(lo) < 1 / math.e < float(hi)


def test_certified_less_classic_cases():
    # e * (1/16) * 5 < 1 but e * (1/4) * 3 > 1
    assert certified_less(Fraction(5, 16), 1, Fraction(1))
    assert not certified_less(Fraction(3, 4), 1, Fraction(1))


def test_certified_less_negative_exponent():
    assert certified_less(Fraction(1), -1, Fraction(1))      # 1/e < 1
    assert not certified_less(Fraction(3), -1, Fraction(1))  # 3/e > 1


@given(
    st.fractions(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=0, max_value=100),
)
def test_certified_less_sound_against_float(coeff, a, threshold):
    # A certified verdict must agree with the float comparison whenever
    # the float gap is far larger than the enclosure width.
    value = float(coeff) * math.e**a
    if abs(value - float(threshold)) > 1e-9:
        assert certified_less(coeff, a, threshold) == (value < float(threshold))


@given(
    st.fractions(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.fractions(min_value=Fraction(1, 100), max_value=2),
)
def test_rational_pow_leq_matches_integer_powers(base, num, den, rhs):
    # base^(num/den) <= rhs iff base^num <= rhs^den for nonneg base, rhs
    assert rational_pow_leq(base, Fraction(num, den), rhs) == (
        base**num <= rhs**den
    )


def test_pow_compare_orders_growth_rates():
    # g1^(1/r1) vs g2^(1/r2) as g1^r2 vs g2^r1: 2^3 = 8 < 9 = 9^1
    assert pow_compare(2, 3, 9, 1) == -1
    assert pow_compare(9, 1, 2, 3) == 1
    assert pow_compare(4, 1, 2, 2) == 0


def sign(u, v):
    return (u > v) - (u < v)


small_rationals = st.fractions(min_value=0, max_value=5, max_denominator=40)


@given(small_rationals, st.integers(1, 60), small_rationals, st.integers(1, 60))
def test_pow_compare_matches_exact_powers(x, a, y, b):
    assert pow_compare(x, a, y, b) == sign(x**a, y**b)


@given(
    st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
    st.integers(1, 7),
    st.integers(1, 7),
    st.integers(2, 6),
)
def test_pow_compare_finds_forced_ties(t, a, b, g):
    # x = t**b, y = t**a give x**(a*g) == y**(b*g) with gcd(a*g, b*g) >= g
    x, y = t**b, t**a
    assert pow_compare(x, a * g, y, b * g) == 0
    # a nudge either way breaks the tie; it is too small for 64-bit
    # brackets to see, so they must widen
    nudge = Fraction(1, x.denominator * 2**100)
    assert pow_compare(x + nudge, a * g, y, b * g) == 1
    assert pow_compare(x - nudge, a * g, y, b * g) == -1


def test_pow_compare_decides_giant_exponents_without_the_powers():
    # The exact sides would have billions of bits. Scaling both exponents
    # by 10**4 keeps the sign of x**a - y**b, so the small case, decided
    # by exact powers, gives the answer.
    x, y = Fraction(1, 64), Fraction(7, 9)
    a, b = 95969, 837093
    expected = sign(x**a, y**b)
    assert expected == -1
    assert pow_compare(x, a * 10**4, y, b * 10**4) == expected
    assert pow_compare(y, b * 10**4, x, a * 10**4) == -expected


def test_float_of_is_true_division():
    assert float_of(Fraction(1, 3)) == 1 / 3


def test_binomial_sigma_quarter():
    # sqrt(p(1-p)/n) at p=1/4, n=100 is sqrt(3)/40
    assert binomial_sigma(Fraction(1, 4), 100) == pytest.approx(
        math.sqrt(3) / 40
    )
