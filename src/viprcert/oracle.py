"""Brute-force ground truth for desk-scale pure-integer problems.

Deliberately shares nothing with the checking machinery beyond the
model types: it enumerates every integer point in a supplied box and
tests the raw constraints, so it can serve as an independent witness
that a certificate's claimed relation is actually true.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Mapping, Optional

from .model import CheckedTuple, Problem, Row, Sense, dot
from .rational import Rational

ENUMERATION_LIMIT = 10**6


class UnsupportedContinuousVariable(Exception):
    """The oracle only enumerates problems where every variable is integer."""


class EnumerationTooLarge(Exception):
    """The box contains more points than the enumeration limit."""


class BoxBounds(CheckedTuple, namedtuple("BoxBounds", "lower upper")):
    """Inclusive integer bounds per variable (1-based index)."""

    __slots__ = ()

    def __new__(cls, lower: Mapping[int, int], upper: Mapping[int, int]) -> "BoxBounds":
        for j, lo in lower.items():
            if lo > upper[j]:
                raise ValueError(f"empty box for variable {j}: [{lo}, {upper[j]}]")
        return tuple.__new__(cls, (lower, upper))

    @classmethod
    def uniform(cls, n: int, lower: int, upper: int) -> "BoxBounds":
        indices = range(1, n + 1)
        return cls({j: lower for j in indices}, {j: upper for j in indices})


class BruteForceResult(
    namedtuple("BruteForceResult", "feasible value witness", defaults=(None, None))
):
    """Whether the box holds a feasible point and, if so, the optimal
    value and a point (a tuple of ints) that attains it."""

    __slots__ = ()


def brute_force(
    problem: Problem, box: BoxBounds, limit: int = ENUMERATION_LIMIT
) -> BruteForceResult:
    """Enumerate every integer point in the box and optimize directly."""
    if problem.int_vars != frozenset(range(1, problem.n + 1)):
        raise UnsupportedContinuousVariable(
            "brute force requires every variable to be integer"
        )
    ranges = []
    total = 1
    for j in range(1, problem.n + 1):
        lo, hi = box.lower[j], box.upper[j]
        total *= hi - lo + 1
        if total > limit:
            raise EnumerationTooLarge(f"box holds more than {limit} points")
        ranges.append(range(lo, hi + 1))

    best_value: Optional[Rational] = None
    best_point: Optional[tuple[int, ...]] = None
    maximize = problem.sense is Sense.MAX
    for point in itertools.product(*ranges):
        coords = Row(1, dict(enumerate(point, 1)))
        ok = True
        for constraint in problem.constraints:
            # both sides scaled by the row's scale, which is positive
            value = dot(constraint.terms, coords.terms)
            s = constraint.sign.value
            if s >= 0 and not value >= constraint.bound:
                ok = False
                break
            if s <= 0 and not value <= constraint.bound:
                ok = False
                break
        if not ok:
            continue
        objective = problem.objective.value(coords)
        if (
            best_value is None
            or (maximize and objective > best_value)
            or (not maximize and objective < best_value)
        ):
            best_value = objective
            best_point = point
    if best_value is None:
        return BruteForceResult(feasible=False)
    return BruteForceResult(feasible=True, value=best_value, witness=best_point)
