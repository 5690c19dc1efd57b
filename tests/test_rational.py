from __future__ import annotations

import math
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from viprcert.rational import (
    DecimalNotationError,
    MalformedNumberError,
    Rational,
    ZeroDenominatorError,
    format_rational,
    parse_rational,
    unlimited_int_digits,
)

nonzero_ints = st.integers(min_value=-10**12, max_value=10**12)
denominators = st.integers(min_value=1, max_value=10**9)
rationals = st.builds(Rational, nonzero_ints, denominators)


def reference_add(a: Rational, b: Rational) -> tuple[int, int]:
    # independent big-rational route: plain integer arithmetic + gcd
    p = a.numerator * b.denominator + b.numerator * a.denominator
    q = a.denominator * b.denominator
    g = math.gcd(abs(p), q)
    return (p // g, q // g) if g else (0, 1)


def reference_mul(a: Rational, b: Rational) -> tuple[int, int]:
    p = a.numerator * b.numerator
    q = a.denominator * b.denominator
    g = math.gcd(abs(p), q)
    return (p // g, q // g) if g else (0, 1)


def test_addition_examples():
    assert Rational(1, 3) + Rational(1, 6) == Rational(1, 2)
    x = Rational(7, 11)
    assert x + 0 == x
    # cross-checked by the integer-arithmetic route above
    assert reference_add(Rational(-1, 4), Rational(3, 4)) == (1, 2)
    assert Rational(-1, 4) + Rational(3, 4) == Rational(1, 2)


def test_multiplication_and_comparison_examples():
    assert Rational(2, 3) * Rational(3, 2) == 1
    assert Rational(1, 3) < Rational(1, 2)
    assert -Rational(0) == 0


def test_floor_ceil_examples():
    assert math.ceil(Rational(1, 4)) == 1
    assert math.floor(Rational(-1, 4)) == -1
    assert Rational(14, 3).denominator != 1
    assert Rational(6, 3).denominator == 1


@pytest.mark.parametrize(
    "token, expected",
    [
        ("14/3", Rational(14, 3)),
        ("-1", Rational(-1)),
        ("+2/4", Rational(1, 2)),
        ("7", Rational(7)),
        ("-6/4", Rational(-3, 2)),
        ("1/-2", Rational(-1, 2)),
    ],
)
def test_parse_accepts(token, expected):
    assert parse_rational(token) == expected


def test_parse_rejects_decimal_notation():
    with pytest.raises(DecimalNotationError):
        parse_rational("0.5")
    with pytest.raises(DecimalNotationError):
        parse_rational("1.")


def test_parse_rejects_malformed():
    for token in ("-inf", "", "1/2/3", "x", "1e3", "0x10", "/2"):
        with pytest.raises(MalformedNumberError):
            parse_rational(token)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        parse_rational("1/0")
    with pytest.raises(ZeroDenominatorError):
        parse_rational("-3/0")


def test_format_is_canonical():
    assert format_rational(Rational(1, 2)) == "1/2"
    assert format_rational(Rational(-4, 8)) == "-1/2"
    assert format_rational(Rational(8, 4)) == "2"
    assert format_rational(Rational(0)) == "0"


@given(rationals)
def test_parse_format_round_trip(x):
    assert parse_rational(format_rational(x)) == x


@given(rationals, rationals)
def test_addition_matches_reference_and_is_canonical(a, b):
    result = a + b
    assert (result.numerator, result.denominator) == reference_add(a, b)
    assert result.denominator > 0
    assert math.gcd(abs(result.numerator), result.denominator) in (0, 1)


@given(rationals, rationals)
def test_multiplication_matches_reference(a, b):
    result = a * b
    assert (result.numerator, result.denominator) == reference_mul(a, b)


@given(rationals, rationals, rationals)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


def test_digit_limit_stays_lifted_until_the_last_overlapping_block_leaves():
    """Thread A enters, then thread B, then A leaves: B still converts a
    5000-digit integer, and once both have left the interpreter's limit
    is what it was, also after a nested entry."""
    huge = "7" * 5000
    a_entered, b_entered, a_left = threading.Event(), threading.Event(), threading.Event()
    converted = []

    def thread_a():
        with unlimited_int_digits():
            a_entered.set()
            b_entered.wait(30)
        a_left.set()

    def thread_b():
        a_entered.wait(30)
        with unlimited_int_digits():
            b_entered.set()
            a_left.wait(30)
            try:
                converted.append(len(str(int(huge))))
            except ValueError as exc:
                converted.append(exc)

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert converted == [5000]
        assert sys.get_int_max_str_digits() == 4300
        with unlimited_int_digits():
            with unlimited_int_digits():
                pass
            assert len(str(int(huge))) == 5000
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
