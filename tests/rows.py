"""Rows stated and read as rationals, for tests.

The package holds every list of numbers as an integer row: a constraint
or a linear combination is coefficients `a_j` and a bound `b` over a
positive scale `D`, standing for `sum_j (a_j / D) x_j ~ b / D`; the
objective, a solution point and the multipliers of a `lin`/`rnd` step
are a `Row`, values `a_i` over `D` standing for `{i: a_i / D}`.  Tests
that state a case in `Fraction`s, or compare a row with a `Fraction`
reference, go through these plain functions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from viprcert.model import Constraint, Row, Sign, SolutionPoint


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


def _row(values: Mapping[int, Fraction]) -> Row:
    scale, terms, _ = scaled_row(_nonzero(values), Fraction(0))
    return Row(scale, terms)


def objective(terms: Mapping[int, Fraction]) -> Row:
    """The objective `sum_j terms[j] x_j`; zero coefficients are dropped."""
    return _row(terms)


def multipliers(weights: Mapping[int, Fraction]) -> Row:
    """The multipliers `{i: weights[i]}` of a `lin`/`rnd` step over
    constraint indices; zero weights are dropped."""
    return _row(weights)


def point(name: str, coords: Mapping[int, Fraction]) -> SolutionPoint:
    """The solution point `{j: coords[j]}`; zero coordinates are dropped."""
    return SolutionPoint(name, _row(coords))


def lhs(row) -> dict[int, Fraction]:
    """The values of a row: the coefficients of a constraint, combination
    or objective, a point's coordinates, or a step's multipliers."""
    return {j: Fraction(a, row.scale) for j, a in row.terms.items()}


def rhs(row) -> Fraction:
    """The right-hand side of a constraint or combination."""
    return Fraction(row.bound, row.scale)
