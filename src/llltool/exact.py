"""Exact rational arithmetic helpers and certified comparisons against e.

Everything solver-relevant is a fractions.Fraction. The only irrational that
ever enters a decision is e (and integer powers of it); those comparisons are
made through rational interval enclosures whose width shrinks on demand, so
every verdict is certified.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalInvariantError, InvalidParameterError


def parse_rational(value) -> Fraction:
    """Parse "a/b", "a", int, or Fraction into an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParameterError(f"not a rational: {value!r}") from exc
    raise InvalidParameterError(f"not a rational: {value!r}")


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def e_interval(terms: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of e from the series sum(1/k!).

    The truncation after the 1/terms! term undershoots by less than
    1/(terms! * terms), which gives the upper endpoint.
    """
    if terms < 2:
        raise InvalidParameterError("terms must be >= 2")
    total = Fraction(0)
    fact = 1
    for k in range(terms + 1):
        if k > 0:
            fact *= k
        total += Fraction(1, fact)
    return total, total + Fraction(1, fact * terms)


def e_power_interval(a: int, terms: int = 24) -> tuple[Fraction, Fraction]:
    """Enclosure of e**a for integer a (negative a inverts the endpoints)."""
    lo, hi = e_interval(terms)
    if a == 0:
        return Fraction(1), Fraction(1)
    if a > 0:
        return lo**a, hi**a
    return hi**a, lo**a


def certified_less(coeff: Fraction, a: int, threshold: Fraction) -> bool:
    """Decide coeff * e**a < threshold exactly, widening precision as needed.

    coeff and threshold are rationals, a an integer. For a != 0 and coeff != 0
    the two sides are never equal (e**a is irrational), so the loop terminates.
    """
    if coeff == 0 or a == 0:
        return coeff < threshold
    terms = 12
    while terms <= 6000:
        lo, hi = e_power_interval(a, terms)
        if coeff > 0:
            if coeff * hi < threshold:
                return True
            if coeff * lo >= threshold:
                return False
        else:
            if coeff * lo < threshold:
                return True
            if coeff * hi >= threshold:
                return False
        terms *= 2
    raise InternalInvariantError(
        "e-power comparison did not resolve; sides may be equal, "
        "which is impossible for rational coeff and integer a != 0"
    )


def rational_pow_leq(base: Fraction, exponent: Fraction, rhs: Fraction) -> bool:
    """Decide base**exponent <= rhs exactly for base >= 0, rhs > 0, exponent > 0.

    Clearing the denominator b of the exponent a/b turns the comparison into
    the integer-power test base**a <= rhs**b (x -> x**b is monotone on
    positives).
    """
    if base < 0 or rhs <= 0 or exponent <= 0:
        raise InvalidParameterError("need base >= 0, rhs > 0, exponent > 0")
    a = exponent.numerator
    b = exponent.denominator
    return base**a <= rhs**b


def root_compare(g1: int, r1: int, g2: int, r2: int) -> int:
    """Sign of g1**(1/r1) - g2**(1/r2) for positive integers, computed exactly."""
    lhs = g1**r2
    rhs = g2**r1
    return (lhs > rhs) - (lhs < rhs)


def float_of(x: Fraction) -> float:
    """Lossy float view for report fields; never used in decisions."""
    return x.numerator / x.denominator


def binomial_sigma(p: Fraction, trials: int) -> float:
    """Standard deviation of a Bernoulli(p) frequency over `trials` samples."""
    q = min(max(float_of(p), 0.0), 1.0)
    return math.sqrt(q * (1.0 - q) / trials) if trials > 0 else 0.0
