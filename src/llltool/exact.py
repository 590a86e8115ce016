"""Exact rational arithmetic helpers and certified comparisons.

Everything solver-relevant is a fractions.Fraction. The only irrational that
ever enters a decision is e (and integer powers of it); those comparisons are
made through rational interval enclosures whose width shrinks on demand, so
every verdict is certified. Powers with exponents in the millions, as in
p**(1-eps-1/s), are compared the same way by pow_compare: through integer
enclosures that widen on demand, never by building the powers.
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


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for integers n >= 0, k >= 1."""
    if k == 1 or n < 2:
        return n
    bits = n.bit_length()
    if k >= bits:
        return 1
    width = -(-bits // k)  # the root is below 2**width
    # Newton converges fast from above once the start is within a factor
    # 1 + 1/k**2 of the root, so the root of the top bits must carry both
    # half the width and about 2 log2(k) bits.
    keep = max((width + 1) // 2, 2 * k.bit_length())
    if width <= keep:
        root = 0
        for i in reversed(range(width)):
            if (root | 1 << i) ** k <= n:
                root |= 1 << i
        return root
    shift = width - keep
    x = (_iroot(n >> (k * shift), k) + 1) << shift
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _round(m: int, e: int, bits: int, up: bool) -> tuple[int, int]:
    """m * 2**e rounded down (or up) to a mantissa of at most `bits` bits.

    Rounding up may carry into one bit more, which does no harm.
    """
    drop = m.bit_length() - bits
    if drop <= 0:
        return m, e
    q = m >> drop
    if up and q << drop != m:
        q += 1
    return q, e + drop


def _pow_bracket(n: int, a: int, bits: int, up: bool) -> tuple[int, int]:
    """(m, e) with m * 2**e <= n**a (>= when `up`), for n >= 1, a >= 1.

    Square and multiply, rounding every product the same way, so the
    result stays on one side of the exact power.
    """
    rm, re = 1, 0
    bm, be = _round(n, 0, bits, up)
    while True:
        if a & 1:
            rm, re = _round(rm * bm, re + be, bits, up)
        a >>= 1
        if not a:
            return rm, re
        bm, be = _round(bm * bm, 2 * be, bits, up)


def _product_bracket(n1, a1, n2, a2, bits: int, up: bool) -> tuple[int, int]:
    """(m, e) on one side of n1**a1 * n2**a2, as in _pow_bracket."""
    (m1, e1), (m2, e2) = (_pow_bracket(n1, a1, bits, up),
                          _pow_bracket(n2, a2, bits, up))
    return m1 * m2, e1 + e2


def _compare_scaled(x: tuple[int, int], y: tuple[int, int]) -> int:
    """Sign of x[0] * 2**x[1] - y[0] * 2**y[1] for positive mantissas.

    The top-bit positions decide unless they agree; only then are the
    mantissas aligned, by a shift no longer than a mantissa. Exponents of
    billions are never shifted into integers.
    """
    (m1, e1), (m2, e2) = x, y
    t1, t2 = m1.bit_length() + e1, m2.bit_length() + e2
    if t1 != t2:
        return 1 if t1 > t2 else -1
    if e1 > e2:
        m1 <<= e1 - e2
    else:
        m2 <<= e2 - e1
    return (m1 > m2) - (m1 < m2)


def _pow_tie(x: Fraction, a: int, y: Fraction, b: int) -> bool:
    """x**a == y**b for positive rationals x, y.

    With g = gcd(a, b), equality holds exactly when x = t**(b/g) and
    y = t**(a/g) for one rational t. Both fractions are in lowest terms,
    so their parts are compared root by root. An integer >= 2 has no k-th
    root once k reaches its bit length, so giant exponents cost nothing.
    """
    g = math.gcd(a, b)
    parts = ((x.numerator, b // g), (x.denominator, b // g),
             (y.numerator, a // g), (y.denominator, a // g))
    roots = [_iroot(n, k) for n, k in parts]
    return roots[:2] == roots[2:] and all(
        t**k == n for t, (n, k) in zip(roots, parts)
    )


def pow_compare(x, a: int, y, b: int) -> int:
    """Sign of x**a - y**b for rationals x, y >= 0 and integers a, b >= 1.

    Exact, without building the powers. With x = P/Q and y = R/S the
    question is P**a * S**b against R**b * Q**a. Each of the four powers
    is enclosed between two numbers m * 2**e with `bits`-bit mantissas,
    starting at 64 bits and doubling until the enclosures of the two
    sides separate. They must separate unless the sides are equal: once
    the mantissas hold every bit nothing is rounded. Equality is tested
    exactly, by roots, the first time the enclosures do not separate.
    """
    x, y = Fraction(x), Fraction(y)
    if x < 0 or y < 0 or a < 1 or b < 1:
        raise InvalidParameterError("need x, y >= 0 and a, b >= 1")
    if x == 0 or y == 0:
        return (x > 0) - (y > 0)
    p, q, r, s = x.numerator, x.denominator, y.numerator, y.denominator
    bits = 64
    while True:
        lhs_lo, lhs_hi = (_product_bracket(p, a, s, b, bits, up)
                          for up in (False, True))
        rhs_lo, rhs_hi = (_product_bracket(r, b, q, a, bits, up)
                          for up in (False, True))
        if _compare_scaled(lhs_lo, rhs_hi) > 0:
            return 1
        if _compare_scaled(lhs_hi, rhs_lo) < 0:
            return -1
        if bits == 64 and _pow_tie(x, a, y, b):
            return 0
        bits *= 2


def rational_pow_leq(base: Fraction, exponent: Fraction, rhs: Fraction) -> bool:
    """Decide base**exponent <= rhs exactly for base >= 0, rhs > 0, exponent > 0.

    Clearing the denominator b of the exponent a/b turns the comparison into
    the integer-power test base**a <= rhs**b (x -> x**b is monotone on
    positives), which pow_compare decides without building either power.
    """
    if base < 0 or rhs <= 0 or exponent <= 0:
        raise InvalidParameterError("need base >= 0, rhs > 0, exponent > 0")
    return pow_compare(base, exponent.numerator, rhs, exponent.denominator) <= 0


def float_of(x: Fraction) -> float:
    """Lossy float view for report fields; never used in decisions."""
    return x.numerator / x.denominator


def binomial_sigma(p: Fraction, trials: int) -> float:
    """Standard deviation of a Bernoulli(p) frequency over `trials` samples."""
    q = min(max(float_of(p), 0.0), 1.0)
    return math.sqrt(q * (1.0 - q) / trials) if trials > 0 else 0.0
