import copy
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from llltool.csp import load_problem
from llltool.derand import params_from_json
from llltool import exact
from llltool.errors import InvalidInputError, InvalidParameterError
from llltool.exact import (
    _iroot,
    binomial_sigma,
    certified_less,
    e_interval,
    e_power_less,
    float_of,
    format_rational,
    hoeffding_side,
    parse_rational,
    pow_compare,
    rational_pow_leq,
)
from llltool.generators import hypergraph_from_obj
from llltool.graphs import load_graph_json
from llltool.tables import table_from_json
from llltool.witness import witness_from_json


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


# Each JSON reader with a well-formed input and the paths of its integers.
INTEGER_READERS = {
    "load_problem": (
        lambda obj: load_problem(json.dumps(obj)),
        {"variables": 3, "labels": {"count": 3},
         "constraints": [{"id": 0, "domain": [0, 2], "bad": [[0, 1]]}]},
        [("variables",), ("labels", "count"), ("constraints", 0, "id"),
         ("constraints", 0, "domain", 1), ("constraints", 0, "bad", 0, 1)],
    ),
    "table_from_json": (
        table_from_json,
        {"depth": 2, "variables": [0, 1], "rows": [[0, 1], [1, 0]]},
        [("depth",), ("variables", 1), ("rows", 0, 1)],
    ),
    "witness_from_json": (
        witness_from_json,
        {"vertices": [{"id": 0, "constraint": 1}, {"id": 1, "constraint": 0}],
         "edges": [[0, 1]]},
        [("vertices", 0, "id"), ("vertices", 0, "constraint"), ("edges", 0, 1)],
    ),
    "load_graph_json": (
        lambda obj: load_graph_json(json.dumps(obj)),
        {"n": 3, "edges": [[0, 1], [1, 2]]},
        [("n",), ("edges", 1, 0)],
    ),
    "hypergraph_from_obj": (
        hypergraph_from_obj,
        {"n": 3, "edges": [[0, 1, 2]]},
        [("n",), ("edges", 0, 1)],
    ),
    "params_from_json": (
        params_from_json,
        {"eps": "1/2", "eta": "1/64", "R": 1, "N": 2, "depth": 3},
        [("R",), ("N",), ("depth",)],
    ),
}


def reshaped(good, path, shape):
    """A deep copy of `good` with the value at `path` passed through `shape`."""
    obj = copy.deepcopy(good)
    *parents, key = path
    container = obj
    for step in parents:
        container = container[step]
    container[key] = shape(container[key])
    return obj


@pytest.mark.parametrize("reader", sorted(INTEGER_READERS))
def test_json_readers_refuse_integers_given_as_floats_strings_or_bools(reader):
    read, good, paths = INTEGER_READERS[reader]
    read(good)
    for path in paths:
        for shape in (lambda x: x + 0.5, float, str, bool):
            with pytest.raises(InvalidInputError):
                read(reshaped(good, path, shape))


# Each rational field of a JSON reader, in a well-formed input.
PROBLEM = {"variables": 1, "labels": {"count": 1, "weights": [1]},
           "constraints": [{"id": 0, "domain": [0], "bad": []}]}
PARAMS = {"eps": "1/2", "eta": "1/64", "R": 1, "N": 2, "depth": 3}
RATIONAL_FIELDS = {
    "weights": (lambda obj: load_problem(json.dumps(obj)), PROBLEM,
                ("labels", "weights", 0)),
    **{key: (params_from_json, PARAMS, (key,)) for key in ("eps", "eta")},
}


@pytest.mark.parametrize("field", sorted(RATIONAL_FIELDS))
def test_json_readers_refuse_rationals_given_as_bools(field):
    read, good, path = RATIONAL_FIELDS[field]
    read(good)
    for flag in (True, False):
        with pytest.raises(InvalidParameterError, match="not a rational"):
            read(reshaped(good, path, lambda _: flag))


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


def test_e_power_less_widens_past_its_first_enclosure(monkeypatch):
    # Both ends of e_interval(40) lie inside the enclosures of 12 and 24
    # terms, so each comparison is decided only at 48.
    lo, hi = e_interval(40)
    widths = []

    def recording(terms):
        widths.append(terms)
        return e_interval(terms)

    monkeypatch.setattr(exact, "e_interval", recording)
    for y, expected in ((lo, False), (hi, True)):
        widths.clear()
        assert e_power_less(Fraction(1), 1, y, 1) is expected
        assert widths == [12, 24, 48]


def test_iroot_of_a_degree_at_least_the_bit_length_is_one():
    for n, k in ((5, 10), (5, 3), (7, 3), (2, 2), (2**20 - 1, 20)):
        assert n.bit_length() <= k
        assert _iroot(n, k) == 1


def test_certified_less_classic_cases():
    # e * (1/16) * 5 < 1 but e * (1/4) * 3 > 1
    assert certified_less(Fraction(5, 16), 1, Fraction(1))
    assert not certified_less(Fraction(3, 4), 1, Fraction(1))


def test_certified_less_negative_exponent():
    assert certified_less(Fraction(1), -1, Fraction(1))      # 1/e < 1
    assert not certified_less(Fraction(3), -1, Fraction(1))  # 3/e > 1


@given(
    st.fractions(min_value=-4, max_value=4),
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-100, max_value=100),
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


def test_float_of_reads_past_the_range_as_the_largest_float():
    top = sys.float_info.max
    assert float_of(Fraction(10**400, 3)) == top
    assert float_of(Fraction(-(10**400), 3)) == -top
    # inside the range, down to underflow, the view is true division
    assert float_of(Fraction(10**308, 1)) == 1e308
    assert float_of(Fraction(1, 10**400)) == 0.0


def test_format_rational_writes_every_digit():
    # str() of an int stops at 4,300 digits; the formatter does not
    q = Fraction(-(10**5000) - 7, 3**9000)
    top, bottom = format_rational(q).split("/")
    assert top == "-1" + "0" * 4999 + "7"
    assert int(Decimal(bottom)) == 3**9000
    assert format_rational(Fraction(10**5000)) == "1" + "0" * 5000
    assert format_rational(Fraction(-3, 4)) == "-3/4"


def test_hoeffding_band_at_a_hundred_draws_of_mean_one_half():
    # 100 * 1/2 = 50 and 2 * sqrt(100) = 20: the band is 30 < count < 70.
    side = {count: hoeffding_side(count, 100, Fraction(1, 2)) for count in range(101)}
    assert [count for count, s in side.items() if s == 0] == list(range(31, 70))
    assert [count for count, s in side.items() if s <= 0] == list(range(70))
    assert side[30] == -1 and side[70] == 1


def test_binomial_sigma_quarter():
    # sqrt(p(1-p)/n) at p=1/4, n=100 is sqrt(3)/40
    assert binomial_sigma(Fraction(1, 4), 100) == pytest.approx(
        math.sqrt(3) / 40
    )
