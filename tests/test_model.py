from __future__ import annotations

import copy
import pickle

import pytest

from conftest import load_fixture
from rows import constraint, lhs, objective, rhs

from viprcert.model import (
    Constraint,
    DerivedConstraint,
    IndexOutOfRange,
    Reason,
    Row,
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


def test_objective_is_canonical_and_builds_its_bound():
    # 2 x_1 - 1/2 x_3, given over 8 with a zero coefficient
    goal = Row(8, {1: 16, 2: 0, 3: -4})
    assert goal == Row(2, {1: 4, 3: -1})
    assert set(goal.terms) == {1, 3}
    assert goal == objective({1: Rational(2), 2: Rational(0), 3: Rational(-1, 2)})
    # its value at the points (1, 0, 4), (1/3, 0, 0) and the origin
    assert goal.value(Row(1, {1: 1, 3: 4})) == 0
    assert goal.value(Row(3, {1: 1})) == Rational(2, 3)
    assert goal.value(Row(1, {})) == 0
    assert Row(5, {}) == Row(1, {})
    for sign in Sign:
        for value in (Rational(0), Rational(7), Rational(-5, 6), Rational(3, 4)):
            expected = constraint("b", lhs(goal), sign, value)
            assert goal.bound("b", sign, value) == expected
            assert (lhs(expected), rhs(expected)) == (lhs(goal), value)


def test_constraint_reduces_its_row():
    # 4/6 x_1 - 2/6 x_2 >= 8/6 is 2 x_1 - x_2 >= 4 over 3
    row = Constraint("c", Sign.GEQ, 6, {1: 4, 2: -2}, 8)
    assert tuple(row) == ("c", Sign.GEQ, 3, {1: 2, 2: -1}, 4)
    assert row == constraint("c", {1: Rational(2, 3), 2: Rational(-1, 3)}, Sign.GEQ, Rational(4, 3))
    assert tuple(Constraint("z", Sign.EQ, 4, {}, 0)) == ("z", Sign.EQ, 1, {}, 0)
    assert tuple(Constraint("i", Sign.LEQ, 1, {3: 6}, 9)) == ("i", Sign.LEQ, 1, {3: 6}, 9)


@pytest.mark.parametrize(
    "value",
    [
        Constraint("c", Sign.LEQ, 6, {1: 4, 2: -2}, 8),
        Constraint("z", Sign.EQ, 1, {}, 0),
        Row(6, {1: 4, 3: -2}),
        Row(1, {}),
    ],
)
def test_rows_copy_and_pickle_to_equal_values(value):
    for clone in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
        pickle.loads(pickle.dumps(value, protocol=0)),
    ):
        assert type(clone) is type(value)
        assert clone == value


def test_model_values_copy_and_pickle_to_equal_values():
    problem, certificate = load_fixture("cert0")
    verdict = Verdict.invalid("Der(5)", "sol-domination", "boom")
    for value in (problem, certificate, *certificate.der, verdict):
        for clone in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value)
            assert clone == value


def test_replace_keeps_every_check():
    """`_replace` builds through `__new__`: a copy passes the same checks
    as a new value, and a copied row is reduced again."""
    problem, certificate = load_fixture("cert0")
    by_reason = {d.reason: d for d in certificate.der}
    with pytest.raises(ValueError):
        by_reason[Reason.ASM]._replace(data=Row(1, {1: 1}))
    with pytest.raises(ValueError):
        by_reason[Reason.LIN]._replace(data=Unsplit(1, 2, 3, 4))
    with pytest.raises(ValueError):
        by_reason[Reason.UNS]._replace(data=None)
    with pytest.raises(ValueError):
        by_reason[Reason.UNS]._replace(reason=Reason.RND)
    with pytest.raises(ValueError):
        Verdict.invalid("Final", "der-final", "boom")._replace(location=None)
    with pytest.raises(ValueError):
        Verdict.ok()._replace(valid=False)
    with pytest.raises(ValueError):
        problem._replace(objective=objective({problem.n + 1: Rational(1)}))
    with pytest.raises(ValueError):
        problem._replace(int_vars=frozenset({0}))
    with pytest.raises(ValueError):
        problem._replace(var_names=problem.var_names[1:])
    with pytest.raises(ValueError):
        Constraint("c", Sign.GEQ, 1, {}, 1)._replace(name="")
    assert Constraint("c", Sign.GEQ, 1, {1: 2}, 4)._replace(scale=6) == Constraint(
        "c", Sign.GEQ, 3, {1: 1}, 2
    )
    assert Row(1, {1: 3, 2: 0})._replace(scale=6) == Row(2, {1: 1})
    valid = by_reason[Reason.UNS]
    assert valid._replace(legacy_index=7) == (*valid[:3], 7)


def test_constraint_requires_name():
    with pytest.raises(ValueError):
        Constraint("", Sign.GEQ, 1, {}, 1)


def test_constraint_at_running_example():
    problem, certificate = load_fixture("cert0")
    c1 = constraint_at(problem, certificate, 1)
    assert lhs(c1) == {1: Rational(2), 2: Rational(3)}
    assert c1.sign is Sign.GEQ
    assert rhs(c1) == 1

    c11 = constraint_at(problem, certificate, 11)
    assert lhs(c11) == {2: Rational(1)}
    assert rhs(c11) == 1
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
    assert nz(Row(1, {})) == frozenset()
    row11 = certificate.der[7]
    assert nz(row11.data) == {10}


def test_derived_constraint_data_invariants():
    body = Constraint("c", Sign.GEQ, 1, {}, 1)
    with pytest.raises(ValueError):
        DerivedConstraint(body, Reason.ASM, Row(1, {1: 1}))
    with pytest.raises(ValueError):
        DerivedConstraint(body, Reason.LIN, None)
    with pytest.raises(ValueError):
        DerivedConstraint(body, Reason.UNS, Row(1, {}))
    DerivedConstraint(body, Reason.UNS, Unsplit(1, 2, 3, 4))  # fine


def test_verdict_invariants_and_locations():
    with pytest.raises(ValueError):
        Verdict(valid=False)
    verdict = Verdict.invalid("Der(11)", "prv", "boom")
    assert verdict.location == "Der(11)"
    assert Verdict.ok().valid


def test_multipliers_drop_zero_weights():
    m = Row(1, {1: 0, 2: 5})
    assert set(m.terms) == {2}


def test_problem_rejects_out_of_range_variable_references():
    from viprcert.model import Problem, Sense

    with pytest.raises(ValueError):
        Problem(
            1,
            ("x",),
            frozenset(),
            Sense.MIN,
            objective({2: Rational(1)}),
            (),
        )
