"""Rows stated and read as rationals, for tests.

The package holds every constraint, linear combination and the objective
as an integer row: coefficients `a_j` and a bound `b` over a positive
scale `D`, standing for `sum_j (a_j / D) x_j ~ b / D`.  Tests that state
a case in `Fraction`s, or compare a row with a `Fraction` reference, go
through these plain functions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from viprcert.model import Constraint, Objective, Sign


def scaled_row(terms: Mapping[int, Fraction], rhs: Fraction) -> tuple[int, dict[int, int], int]:
    """Coefficients and bound over their least common denominator D:
    `(D, {j: a_j}, b)`."""
    scale = math.lcm(rhs.denominator, *(c.denominator for c in terms.values()))
    return (
        scale,
        {j: c.numerator * (scale // c.denominator) for j, c in terms.items()},
        rhs.numerator * (scale // rhs.denominator),
    )


def _nonzero(terms: Mapping[int, Fraction]) -> dict[int, Fraction]:
    return {j: Fraction(c) for j, c in terms.items() if c}


def constraint(name: str, terms: Mapping[int, Fraction], sign: Sign, rhs: Fraction) -> Constraint:
    """The constraint `sum_j terms[j] x_j ~ rhs`; zero coefficients are dropped."""
    return Constraint(name, sign, *scaled_row(_nonzero(terms), Fraction(rhs)))


def objective(terms: Mapping[int, Fraction]) -> Objective:
    """The objective `sum_j terms[j] x_j`; zero coefficients are dropped."""
    scale, row, _ = scaled_row(_nonzero(terms), Fraction(0))
    return Objective(scale, row)


def lhs(row) -> dict[int, Fraction]:
    """The coefficients of a constraint, combination or objective."""
    return {j: Fraction(a, row.scale) for j, a in row.terms.items()}


def rhs(row) -> Fraction:
    """The right-hand side of a constraint or combination."""
    return Fraction(row.bound, row.scale)
