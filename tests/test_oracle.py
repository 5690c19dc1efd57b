from __future__ import annotations

import pytest

from conftest import load_fixture
from oracle import (
    BoxBounds,
    EnumerationTooLarge,
    UnsupportedContinuousVariable,
    brute_force,
)
from rows import constraint, objective

from viprcert.model import Problem, Sense, Sign
from viprcert.rational import Rational


def test_running_example_is_infeasible():
    # Box justification: C2 and C3 give 3*x1 <= 2 + 4*x2 and 6*x2 <= 3 + x1,
    # so 3*x1 <= 2 + (2/3)*(3 + x1) + ... collapsing: x1 <= 12/7 < 2 and then
    # C3 gives x2 <= 11/14 < 1, C1 gives x2 > -1 and x1 > -1.  Every feasible
    # point therefore lies strictly inside [-10, 10]^2.
    problem, _ = load_fixture("cert0")
    result = brute_force(problem, BoxBounds.uniform(2, -10, 10))
    assert not result.feasible


def test_forged1_optimum_is_two():
    # The four problem constraints are exactly the box bounds 0 <= x,y <= 1.
    problem, _ = load_fixture("forged1")
    result = brute_force(problem, BoxBounds.uniform(2, 0, 1))
    assert result.feasible
    assert result.value == 2
    assert result.witness == (1, 1)


def test_forged2_is_infeasible():
    # Constraints pin x and y into [1/3, 1/2], which contains no integers;
    # outside [0, 1] the bound constraints fail outright.
    problem, _ = load_fixture("forged2")
    result = brute_force(problem, BoxBounds.uniform(2, 0, 1))
    assert not result.feasible


def test_minimization_direction():
    problem = Problem(
        1,
        ("x",),
        frozenset({1}),
        Sense.MIN,
        objective({1: Rational(1)}),
        (constraint("lb", {1: Rational(1)}, Sign.GEQ, Rational(-3)),),
    )
    result = brute_force(problem, BoxBounds.uniform(1, -5, 5))
    assert result.feasible and result.value == -3 and result.witness == (-3,)


def test_continuous_variables_are_rejected():
    problem = Problem(
        2,
        ("x", "y"),
        frozenset({1}),
        Sense.MIN,
        objective({}),
        (),
    )
    with pytest.raises(UnsupportedContinuousVariable):
        brute_force(problem, BoxBounds.uniform(2, 0, 1))


def test_enumeration_limit():
    problem, _ = load_fixture("cert0")
    with pytest.raises(EnumerationTooLarge):
        brute_force(problem, BoxBounds.uniform(2, -1000, 1000), limit=10**4)


def test_box_bounds_must_be_ordered():
    with pytest.raises(ValueError):
        BoxBounds({1: 2}, {1: 1})
    with pytest.raises(ValueError):
        BoxBounds.uniform(1, 0, 1)._replace(upper={1: -1})
