from __future__ import annotations

import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import LOWEST_DIGIT_LIMIT, int_digit_limit
from viprcert import rational
from viprcert.rational import (
    DecimalNotationError,
    MalformedNumberError,
    Rational,
    ZeroDenominatorError,
    format_rational,
    parse_rational,
    read_int,
    write_int,
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


# --- integer literals of any length, against `int` and `str` -----------------

# at and around every split point: `int`'s piece, two pieces, the default
# digit limit, and one length that is no power of two
LITERAL_LENGTHS = [1, 2, 511, 512, 513, 1023, 1024, 1025, 4299, 4300, 4301, 12345]
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _digits(length: int, seed: int) -> str:
    rng = random.Random(seed)
    return str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=length - 1))


@pytest.mark.parametrize("length", LITERAL_LENGTHS)
@pytest.mark.parametrize("sign", ["", "-", "+"])
def test_read_int_of_huge_and_short_literals_is_int_of_them(sign, length):
    texts = [sign + _digits(length, length), sign + "0" * (length - 1) + "7"]
    texts.append(texts[0].translate(ARABIC_INDIC))
    with int_digit_limit(LOWEST_DIGIT_LIMIT):
        values = [read_int(text) for text in texts]
        assert sys.get_int_max_str_digits() == LOWEST_DIGIT_LIMIT
    with int_digit_limit(0):
        assert values == [int(text) for text in texts]
    assert values[2] == values[0]


@pytest.mark.parametrize(
    "text",
    ["1" * 600 + "x", "1_0" * 300, "--" + "1" * 600, "1" * 300 + " " + "1" * 300]
    + ["", "-", "1_0", " 5", "5 ", "+-5", "0x10", "1.5"],
)
def test_read_int_refuses_a_text_that_is_no_literal_at_any_length(text):
    with pytest.raises(ValueError):
        read_int(text)


def _write_values():
    """Values around the bit length where `write_int` leaves `str`, and
    around the lengths of `LITERAL_LENGTHS` in digits."""
    bits = rational._WRITE_BITS
    for width in (bits - 1, bits, bits + 1, 2 * bits, 2 * bits + 1, 40_000):
        yield 2**width - 1
        yield 2**width
        yield 2**width + 1
        yield random.Random(width).getrandbits(width)
    for length in LITERAL_LENGTHS:
        yield 10**length - 1
        yield 10**length
        yield random.Random(length).randrange(10 ** (length - 1), 10**length)
    yield 0


@pytest.mark.parametrize("value", list(_write_values()), ids=lambda v: f"{v.bit_length()}bits")
def test_write_int_of_huge_and_small_values_is_str_of_them(value):
    with int_digit_limit(LOWEST_DIGIT_LIMIT):
        texts = [write_int(value), write_int(-value)]
        assert sys.get_int_max_str_digits() == LOWEST_DIGIT_LIMIT
    with int_digit_limit(0):
        assert texts == [str(value), str(-value)]


def test_huge_rationals_parse_and_format_under_the_lowest_digit_limit():
    huge = _digits(5000, 5000)
    with int_digit_limit(LOWEST_DIGIT_LIMIT):
        value = parse_rational(f"-{huge}/{huge}1")
        text = format_rational(value)
    with int_digit_limit(0):
        assert value == Rational(-int(huge), int(huge + "1"))
        assert text == f"{value.numerator}/{value.denominator}"
