"""Constraint-level mathematics: domination, linear combinations,
rounding, split disjunctions.

The domination test is implemented in its fully expanded Boolean form,
which also covers combination results whose sign is indefinite (neither
flag set): such a source dominates nothing.  All arithmetic is exact.
"""

from __future__ import annotations

from typing import Callable

from .model import Constraint, IndexOutOfRange, LinearExpr, Multipliers, Sign
from .rational import Rational, ZERO, ceil_int, floor_int, is_integer

# earlier name of the out-of-range exception, kept importable
UnresolvableIndex = IndexOutOfRange


def sign_value(constraint: Constraint) -> int:
    """s(C): Geq -> 1, Eq -> 0, Leq -> -1."""
    return constraint.sign.value


def dominates(
    lhs: LinearExpr,
    rhs: Rational,
    eq: bool,
    geq: bool,
    leq: bool,
    target: Constraint,
) -> bool:
    """Does the (possibly indefinite-sign) source constraint dominate target?

    Either the source is an absurdity (zero left-hand side with a
    sign-directed impossible right-hand side), or both sides have the
    same left-hand side and the target-sign-directed bound comparison
    holds.  With all three flags false the answer is always False.
    """
    if lhs.is_zero:
        if eq:
            absurd = rhs != 0
        elif geq:
            absurd = rhs > 0
        elif leq:
            absurd = rhs < 0
        else:
            absurd = False
        if absurd:
            return True
    if lhs != target.lhs:
        return False
    if target.sign is Sign.EQ:
        return eq and rhs == target.rhs
    if target.sign is Sign.GEQ:
        return geq and rhs >= target.rhs
    return leq and rhs <= target.rhs


def constraint_dominates(source: Constraint, target: Constraint) -> bool:
    """Domination between two definite-sign constraints."""
    s = source.sign.value
    return dominates(source.lhs, source.rhs, s == 0, s >= 0, s <= 0, target)


class PseudoConstraint:
    """Result of a linear combination: coefficients, bound, and the two
    sign flags.  `eq` is by definition the conjunction of the flags, and
    the combination is suitable iff at least one flag holds."""

    __slots__ = ("lhs", "rhs", "geq", "leq")

    def __init__(self, lhs: LinearExpr, rhs: Rational, geq: bool, leq: bool):
        self.lhs = lhs
        self.rhs = rhs
        self.geq = geq
        self.leq = leq

    @property
    def eq(self) -> bool:
        return self.geq and self.leq

    @property
    def suitable(self) -> bool:
        return self.geq or self.leq

    def dominates(self, target: Constraint) -> bool:
        return dominates(self.lhs, self.rhs, self.eq, self.geq, self.leq, target)

    def __repr__(self) -> str:
        return f"PseudoConstraint({self.lhs!r}, {self.rhs!r}, geq={self.geq}, leq={self.leq})"


def linear_combination(
    multipliers: Multipliers, resolve: Callable[[int], Constraint]
) -> PseudoConstraint:
    """Sum the weighted constraints exactly, tracking the sign flags.

    geq holds iff every weight agrees in sign with its constraint
    (weight * sign >= 0), leq symmetrically.  Exact cancellations are
    dropped so a vanished left-hand side is structurally empty.
    """
    accumulated: dict[int, Rational] = {}
    rhs = ZERO
    geq = True
    leq = True
    for i, weight in multipliers.items_sorted():
        constraint = resolve(i)
        weighted_sign = weight * constraint.sign.value
        if weighted_sign < 0:
            geq = False
        if weighted_sign > 0:
            leq = False
        for j, coefficient in constraint.lhs.terms.items():
            accumulated[j] = accumulated.get(j, ZERO) + weight * coefficient
        rhs += weight * constraint.rhs
    return PseudoConstraint(LinearExpr(accumulated), rhs, geq, leq)


def roundable_flags(lhs: LinearExpr, eq: bool, int_vars: frozenset[int]) -> bool:
    """Roundability: integral coefficients on integer variables, zero
    everywhere else, and not an equality."""
    if eq:
        return False
    for j, coefficient in lhs.terms.items():
        if j not in int_vars:
            return False
        if not is_integer(coefficient):
            return False
    return True


def rnd_dominance(
    lhs: LinearExpr, rhs: Rational, geq: bool, leq: bool, target: Constraint
) -> bool:
    """Bound test of the rounding rule: plain domination by the rounded
    combination, whose bound is the ceiling for >= and the floor for <=.
    Rounding keeps the absurdity test, since ceil(b) > 0 iff b > 0 and
    floor(b) < 0 iff b < 0; an equality combination is never rounded."""
    rounded = ceil_int(rhs) if geq else floor_int(rhs)
    return dominates(lhs, rounded, False, geq, leq, target)


def is_split_disjunction(ci: Constraint, cj: Constraint, int_vars: frozenset[int]) -> bool:
    """Do the two constraints split the integer lattice?

    Same left-hand side, integral and supported only on integer
    variables, integral bounds, strictly opposite signs, and bounds one
    apart in the direction of the >= side.
    """
    if ci.lhs != cj.lhs:
        return False
    for j, coefficient in ci.lhs.terms.items():
        if j not in int_vars or not is_integer(coefficient):
            return False
    if not is_integer(ci.rhs) or not is_integer(cj.rhs):
        return False
    si = ci.sign.value
    sj = cj.sign.value
    if si == 0 or si + sj != 0:
        return False
    if si == 1:
        return ci.rhs == cj.rhs + 1
    return ci.rhs == cj.rhs - 1
