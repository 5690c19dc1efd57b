"""Exact rational arithmetic for certificate semantics.

Every number that carries meaning in a certificate (coefficients,
right-hand sides, multipliers, bounds, solution coordinates) is a
`Rational`.  Values are kept in canonical form at all times: positive
denominator, gcd(|numerator|, denominator) = 1, so equality is
structural.  The stdlib `fractions.Fraction` already guarantees exactly
this, and is arbitrary precision; this module adds the strict text
syntax (`p` or `p/q`, never decimals) used by the certificate format.
"""

from __future__ import annotations

import contextlib
import sys
from fractions import Fraction
from typing import Iterator

Rational = Fraction

ZERO = Fraction(0)

__all__ = [
    "Rational",
    "ZERO",
    "RationalSyntaxError",
    "DecimalNotationError",
    "MalformedNumberError",
    "ZeroDenominatorError",
    "is_integer_literal",
    "parse_rational",
    "format_rational",
    "is_integer",
    "unlimited_int_digits",
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


def parse_rational(token: str) -> Rational:
    """Parse `p` or `p/q` into a canonical Rational.

    `p` and `q` are integer literals: an optional sign and decimal digits.
    Decimal notation raises DecimalNotationError; a zero denominator
    raises ZeroDenominatorError; anything else non-conforming raises
    MalformedNumberError.  A signed denominator is normalized into the
    numerator.
    """
    numerator, slash, denominator = token.partition("/")
    if is_integer_literal(numerator):
        if not slash:
            return Fraction(int(numerator))
        if is_integer_literal(denominator):
            q = int(denominator)
            if q == 0:
                raise ZeroDenominatorError(f"zero denominator: {token!r}")
            return Fraction(int(numerator), q)
    if "." in token:
        raise DecimalNotationError(
            f"decimal notation is not accepted, write a fraction instead: {token!r}"
        )
    raise MalformedNumberError(f"not an integer or p/q fraction: {token!r}")


def format_rational(value: Rational) -> str:
    """Canonical text form: `p` for integers, `p/q` otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def is_integer(value: Rational) -> bool:
    return value.denominator == 1


@contextlib.contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift CPython's limit on int <-> str conversion digits while the
    block runs: exact certificates may carry integers of any length.
    The limit is process-wide, so every thread sees it lifted meanwhile.
    Also a decorator on every public entry point that reads or prints
    literals: the parser, the checker's and the SMT route's."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters from before the limit
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
