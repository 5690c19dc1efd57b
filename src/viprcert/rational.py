"""Exact rational numbers: the certificate format's text syntax.

A single number that carries meaning on its own, a bound of the relation
to prove or an objective value, is a `Rational`: the stdlib
`fractions.Fraction`, arbitrary precision and always in lowest terms
with a positive denominator, so equality is structural.  Every list of
numbers (a constraint, the objective, a solution point, a `lin`/`rnd`
multiplier list) is an integer row instead; see `model.Row`.  This
module adds the strict text syntax (`p` or `p/q`, never decimals) used
by the certificate format.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from fractions import Fraction
from typing import Iterator

Rational = Fraction

__all__ = [
    "Rational",
    "RationalSyntaxError",
    "DecimalNotationError",
    "MalformedNumberError",
    "ZeroDenominatorError",
    "is_integer_literal",
    "parse_rational",
    "format_rational",
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


_digits_lock = threading.Lock()
_digits_users = 0  # blocks inside `unlimited_int_digits`, across threads
_digits_saved = 0  # the limit the first of them found


@contextlib.contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift CPython's limit on int <-> str conversion digits while the
    block runs: exact certificates may carry integers of any length.
    The limit is process-wide, so every thread sees it lifted meanwhile.
    Blocks may nest and overlap across threads: the first to enter lifts
    the limit and the last to leave restores it.  Also a decorator on
    every public entry point that reads or prints literals: the parser,
    the serializer, the checker's and the SMT route's."""
    global _digits_users, _digits_saved
    if not hasattr(sys, "get_int_max_str_digits"):  # interpreters from before the limit
        yield
        return
    with _digits_lock:
        if not _digits_users:
            _digits_saved = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
        _digits_users += 1
    try:
        yield
    finally:
        with _digits_lock:
            _digits_users -= 1
            if not _digits_users:
                sys.set_int_max_str_digits(_digits_saved)
