from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import load_fixture
from rows import constraint, lhs, multipliers, rhs, scaled_row

from viprcert.algebra import (
    PseudoConstraint,
    constraint_dominates,
    is_split_disjunction,
    linear_combination,
)
from viprcert.model import IndexOutOfRange, Sign, constraint_at
from viprcert.rational import Rational

I12 = frozenset({1, 2})


def expr(**coeffs):
    return {int(k[1:]): Rational(v) for k, v in coeffs.items()}


def geq(name, bound, **coeffs):
    return constraint(name, expr(**coeffs), Sign.GEQ, Rational(bound))


def leq(name, bound, **coeffs):
    return constraint(name, expr(**coeffs), Sign.LEQ, Rational(bound))


ABSURDITY = geq("absurd", 1)


def pseudo(terms, bound, geq: bool, leq: bool) -> PseudoConstraint:
    """A combination result with the given row and sign flags."""
    return PseudoConstraint(*scaled_row(terms, Rational(bound)), geq, leq)


def test_dominates_examples():
    assert constraint_dominates(ABSURDITY, ABSURDITY)
    target = geq("t", Rational(1, 4), x2=1)
    assert constraint_dominates(geq("s", Rational(1, 4), x2=1), target)
    # an absurdity dominates every constraint
    assert constraint_dominates(ABSURDITY, leq("t", 0, x1=1, x2=1))


def test_dominates_with_all_flags_false_is_false():
    target = geq("t", 0, x1=1)
    assert not pseudo(expr(x1=1), 5, False, False).dominates(target)
    assert not pseudo({}, 5, False, False).dominates(target)


def test_dominates_direction():
    assert constraint_dominates(geq("s", 2, x1=1), geq("t", 1, x1=1))
    assert not constraint_dominates(geq("s", 0, x1=1), geq("t", 1, x1=1))
    assert constraint_dominates(leq("s", 1, x1=1), leq("t", 2, x1=1))
    assert not constraint_dominates(geq("s", 2, x1=1), leq("t", 1, x1=1))
    eq_c = constraint("s", expr(x1=1), Sign.EQ, Rational(1))
    assert constraint_dominates(eq_c, geq("t", 1, x1=1))
    assert constraint_dominates(eq_c, leq("t", 1, x1=1))
    assert constraint_dominates(eq_c, constraint("t", expr(x1=1), Sign.EQ, Rational(1)))


@pytest.fixture(scope="module")
def cert0_resolver():
    problem, certificate = load_fixture("cert0")

    def resolve(i):
        return constraint_at(problem, certificate, i)

    return resolve


def test_linear_combination_row10(cert0_resolver):
    combo = linear_combination(
        multipliers({2: Rational(-1, 4), 5: Rational(3, 4)}), cert0_resolver
    )
    assert lhs(combo) == {2: Rational(1)}
    assert rhs(combo) == Rational(1, 4)
    assert combo.geq and not combo.leq and not combo.eq


def test_linear_combination_empty(cert0_resolver):
    combo = linear_combination(multipliers({}), cert0_resolver)
    assert not lhs(combo)
    assert rhs(combo) == 0
    assert combo.geq and combo.leq and combo.eq


def test_linear_combination_row9_yields_absurdity(cert0_resolver):
    combo = linear_combination(
        multipliers({3: Rational(-1, 3), 4: Rational(-1, 3), 8: Rational(2)}),
        cert0_resolver,
    )
    assert not lhs(combo)
    assert rhs(combo) == 1
    assert combo.geq and not combo.leq
    assert combo.dominates(ABSURDITY)


def test_linear_combination_unresolvable():
    def resolve(i):
        raise IndexOutOfRange(i)

    with pytest.raises(IndexOutOfRange):
        linear_combination(multipliers({3: Rational(1)}), resolve)


def test_roundable_flags_examples():
    assert pseudo(expr(x2=1), 0, True, False).roundable(I12)
    assert not pseudo({2: Rational(1, 2)}, 0, True, False).roundable(I12)
    assert not pseudo(expr(x2=1), 0, True, True).roundable(I12)  # an equality
    assert not pseudo(expr(x3=1), 0, True, False).roundable(I12)  # nonzero off the integer set
    assert pseudo({}, 0, True, False).roundable(I12)


def test_rnd_dominance_examples():
    target = geq("t", 1, x2=1)
    assert pseudo(expr(x2=1), Rational(1, 4), True, False).rounded_dominates(target)
    eq_target = constraint("t", expr(x2=1), Sign.EQ, Rational(1))
    assert not pseudo(expr(x2=1), Rational(1, 4), True, False).rounded_dominates(eq_target)
    assert pseudo({}, Rational(1, 2), True, False).rounded_dominates(ABSURDITY)
    # floor direction for <= targets
    le_target = leq("t", 1, x2=1)
    assert pseudo(expr(x2=1), Rational(7, 4), False, True).rounded_dominates(le_target)
    assert not pseudo(expr(x2=1), Rational(9, 4), False, True).rounded_dominates(le_target)


def test_split_disjunction_examples():
    assert is_split_disjunction(leq("a", 0, x1=1), geq("b", 1, x1=1), I12)
    assert not is_split_disjunction(leq("a", 0, x1=1), geq("b", 2, x1=1), I12)
    assert not is_split_disjunction(leq("a", 0, x1=1), geq("b", 1, x2=1), I12)
    assert not is_split_disjunction(leq("a", 0, x1=1), leq("b", -1, x1=1), I12)
    # non-integral shared bound
    assert not is_split_disjunction(
        leq("a", Rational(1, 2), x1=1), geq("b", Rational(3, 2), x1=1), I12
    )


# --- randomized properties ---------------------------------------------------

small_rationals = st.builds(
    Rational, st.integers(min_value=-6, max_value=6), st.sampled_from([1, 1, 2, 3, 4])
)
signs = st.sampled_from(list(Sign))


@st.composite
def constraints(draw, max_vars=3):
    terms = {
        j: draw(small_rationals)
        for j in range(1, max_vars + 1)
        if draw(st.booleans())
    }
    return constraint("r", terms, draw(signs), draw(small_rationals))


@given(constraints())
def test_definite_constraints_dominate_themselves(c):
    assert constraint_dominates(c, c)


@given(constraints(), constraints())
def test_split_disjunction_is_symmetric(ci, cj):
    ints = frozenset({1, 2, 3})
    assert is_split_disjunction(ci, cj, ints) == is_split_disjunction(cj, ci, ints)


@given(constraints())
def test_singleton_combination_mirrors_the_constraint(c):
    combo = linear_combination(multipliers({1: Rational(1)}), lambda i: c)
    assert lhs(combo) == lhs(c)
    assert rhs(combo) == rhs(c)
    s = c.sign.value
    assert combo.geq == (s >= 0)
    assert combo.leq == (s <= 0)


@given(constraints(), constraints(), small_rationals, small_rationals,
       st.integers(min_value=1, max_value=5))
def test_positive_scaling_preserves_flags(c1, c2, w1, w2, scale):
    pool = {1: c1, 2: c2}
    base = linear_combination(multipliers({1: w1, 2: w2}), pool.__getitem__)
    scaled = linear_combination(
        multipliers({1: w1 * scale, 2: w2 * scale}), pool.__getitem__
    )
    assert lhs(scaled) == {j: v * scale for j, v in lhs(base).items()}
    assert rhs(scaled) == rhs(base) * scale
    assert (scaled.geq, scaled.leq) == (base.geq, base.leq)


@given(st.builds(Rational, st.integers(-8, 8), st.sampled_from([1, 2])),
       st.builds(Rational, st.integers(-8, 8), st.sampled_from([1, 2])))
def test_same_lhs_geq_domination_is_bound_comparison(b, b_prime):
    source = constraint("s", expr(x1=1), Sign.GEQ, b)
    target = constraint("t", expr(x1=1), Sign.GEQ, b_prime)
    assert constraint_dominates(source, target) == (b >= b_prime)
