from __future__ import annotations

import pytest

from conftest import load_fixture

from viprcert.model import (
    Constraint,
    DerivedConstraint,
    IndexOutOfRange,
    LinearExpr,
    Multipliers,
    Reason,
    Sign,
    Unsplit,
    Verdict,
    constraint_at,
    nz,
    total_constraints,
)
from viprcert.rational import Rational


def test_sign_values_are_bijective():
    assert {s.value for s in Sign} == {-1, 0, 1}
    assert Sign.from_letter("G") is Sign.GEQ
    assert Sign.from_letter("L") is Sign.LEQ
    assert Sign.from_letter("E") is Sign.EQ
    assert Sign.GEQ.letter == "G"
    with pytest.raises(ValueError):
        Sign.from_letter("Z")


def test_linear_expr_drops_zeros_and_evaluates():
    expr = LinearExpr({1: Rational(2), 2: Rational(0), 3: Rational(-1, 2)})
    assert set(expr.terms) == {1, 3}
    assert expr.coefficient(2) == 0
    assert expr.evaluate({1: Rational(1), 3: Rational(4)}) == 0
    assert LinearExpr({}).is_zero


def test_constraint_requires_name():
    with pytest.raises(ValueError):
        Constraint("", LinearExpr({}), Sign.GEQ, Rational(1))


def test_constraint_at_running_example():
    problem, certificate = load_fixture("cert0")
    c1 = constraint_at(problem, certificate, 1)
    assert c1.lhs.terms == {1: Rational(2), 2: Rational(3)}
    assert c1.sign is Sign.GEQ
    assert c1.rhs == 1

    c11 = constraint_at(problem, certificate, 11)
    assert c11.lhs.terms == {2: Rational(1)}
    assert c11.rhs == 1
    assert certificate.der[11 - problem.m - 1].reason is Reason.RND

    d = total_constraints(problem, certificate)
    assert d == 14
    with pytest.raises(IndexOutOfRange):
        constraint_at(problem, certificate, d + 1)
    with pytest.raises(IndexOutOfRange):
        constraint_at(problem, certificate, 0)


def test_nz_examples():
    problem, certificate = load_fixture("cert0")
    row7 = certificate.der[3]  # C_7 in the unified numbering
    assert row7.reason is Reason.LIN
    assert nz(row7.data) == {1, 4, 6}
    assert nz(Multipliers({})) == frozenset()
    row11 = certificate.der[7]
    assert nz(row11.data) == {10}


def test_derived_constraint_data_invariants():
    body = Constraint("c", LinearExpr({}), Sign.GEQ, Rational(1))
    with pytest.raises(ValueError):
        DerivedConstraint(body, Reason.ASM, Multipliers({1: Rational(1)}))
    with pytest.raises(ValueError):
        DerivedConstraint(body, Reason.LIN, None)
    with pytest.raises(ValueError):
        DerivedConstraint(body, Reason.UNS, Multipliers({}))
    DerivedConstraint(body, Reason.UNS, Unsplit(1, 2, 3, 4))  # fine


def test_verdict_invariants_and_locations():
    with pytest.raises(ValueError):
        Verdict(valid=False)
    verdict = Verdict.invalid("Der(11)", "prv", "boom")
    assert verdict.location == "Der(11)"
    assert Verdict.ok().valid


def test_multipliers_drop_zero_weights():
    m = Multipliers({1: Rational(0), 2: Rational(5)})
    assert set(m.weights) == {2}


def test_problem_rejects_out_of_range_variable_references():
    from viprcert.model import Problem, Sense

    with pytest.raises(ValueError):
        Problem(
            1,
            ("x",),
            frozenset(),
            Sense.MIN,
            LinearExpr({2: Rational(1)}),
            (),
        )
