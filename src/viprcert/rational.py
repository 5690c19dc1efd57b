"""Exact rational numbers: the certificate format's text syntax.

A single number that carries meaning on its own, a bound of the relation
to prove or an objective value, is a `Rational`: the stdlib
`fractions.Fraction`, arbitrary precision and always in lowest terms
with a positive denominator, so equality is structural.  Every list of
numbers (a constraint, the objective, a solution point, a `lin`/`rnd`
multiplier list) is an integer row instead; see `model.Row`.  This
module adds the strict text syntax (`p` or `p/q`, never decimals) used
by the certificate format, and integer literals of any length.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction

__all__ = [
    "Rational",
    "RationalSyntaxError",
    "DecimalNotationError",
    "MalformedNumberError",
    "ZeroDenominatorError",
    "is_integer_literal",
    "parse_rational",
    "format_ratio",
    "format_rational",
    "excerpt",
    "read_int",
    "write_int",
]


class RationalSyntaxError(ValueError):
    """A token does not denote a rational in the accepted syntax."""


class DecimalNotationError(RationalSyntaxError):
    """Decimal notation is rejected outright, never converted."""


class MalformedNumberError(RationalSyntaxError):
    """Token is neither an integer literal nor a `p/q` fraction."""


class ZeroDenominatorError(RationalSyntaxError):
    """Fraction literal with denominator zero."""


def is_integer_literal(text: str) -> bool:
    """`[+-]?` followed by one or more decimal digits (Unicode Nd)."""
    return text.isdecimal() or (text[:1] in ("+", "-") and text[1:].isdecimal())


# `int` reads at most this many digits and `str` prints at most this many
# bits (about 450 digits): below 640, the lowest digit limit CPython accepts
_READ_DIGITS, _WRITE_BITS = 512, 1500


def read_int(text: str) -> int:
    """`int(text)` for a text `is_integer_literal` accepts, of any length,
    whatever the interpreter's digit limit: halves of a text too long for
    one `int` call are joined with powers of 10, in subquadratic time.
    Other texts, of any length, raise ValueError."""
    if not is_integer_literal(text):
        raise ValueError(f"not an integer literal: {text[:20]!r}")
    if len(text) <= _READ_DIGITS:
        return int(text)
    powers: dict[int, int] = {}  # 10 ** k by k

    def read(digits: str) -> int:
        if len(digits) <= _READ_DIGITS:
            return int(digits)
        low = len(digits) // 2
        if low not in powers:
            powers[low] = 10**low
        return read(digits[:-low]) * powers[low] + read(digits[-low:])

    return -read(text[1:]) if text[0] == "-" else read(text.lstrip("+"))


def write_int(value: int) -> str:
    """`str(value)` for an int of any size, whatever the interpreter's
    digit limit: a value too large for `str` is split by bit shifts into
    `decimal.Decimal` parts, which multiply exactly and print in linear
    time, as CPython 3.12's `_pylong` does."""
    if value.bit_length() <= _WRITE_BITS:
        return str(value)
    import decimal  # only values this large need it

    powers: dict[int, decimal.Decimal] = {}  # 2 ** k by k

    def write(n: int, bits: int) -> decimal.Decimal:  # 0 <= n < 2 ** bits
        if bits <= _WRITE_BITS:
            return decimal.Decimal(n)
        low = bits // 2
        if low not in powers:
            powers[low] = decimal.Decimal(2) ** low
        return write(n >> low, bits - low) * powers[low] + write(n & ((1 << low) - 1), low)

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        text = str(write(abs(value), value.bit_length()))
    return text if value >= 0 else "-" + text


def parse_rational(token: str) -> Rational:
    """Parse `p` or `p/q` into a canonical Rational.

    `p` and `q` are integer literals: an optional sign and decimal digits.
    Decimal notation raises DecimalNotationError; a zero denominator
    raises ZeroDenominatorError; anything else non-conforming raises
    MalformedNumberError.  A signed denominator is normalized into the
    numerator.
    """
    numerator, slash, denominator = token.partition("/")
    if is_integer_literal(numerator) and (not slash or is_integer_literal(denominator)):
        q = read_int(denominator) if slash else 1
        if q == 0:
            raise ZeroDenominatorError(f"zero denominator: {excerpt(token)}")
        return Fraction(read_int(numerator), q)
    if "." in token:
        raise DecimalNotationError(
            f"decimal notation is not accepted, write a fraction instead: {excerpt(token)}"
        )
    raise MalformedNumberError(f"not an integer or p/q fraction: {excerpt(token)}")


def format_ratio(numerator: int, scale: int) -> str:
    """numerator / scale, scale > 0, in lowest terms: `p` or `p/q`."""
    g = math.gcd(numerator, scale)
    if g == scale:
        return write_int(numerator // g)
    return f"{write_int(numerator // g)}/{write_int(scale // g)}"


def format_rational(value: Rational) -> str:
    """A Rational's canonical text form, as `format_ratio` prints it."""
    return format_ratio(value.numerator, value.denominator)


def excerpt(text: str, show=repr) -> str:
    """`show(text)` for an error message; a text over 40 characters is
    shown by its first 40, then `...` and its length."""
    if len(text) <= 40:
        return show(text)
    return f"{show(text[:40])}... ({len(text)} characters)"
