"""Constraint-level mathematics: domination, linear combinations,
rounding, split disjunctions.

The domination test is implemented in its fully expanded Boolean form,
which also covers combination results whose sign is indefinite (neither
flag set): such a source dominates nothing.  All arithmetic is exact,
and runs in Python integers over the integer rows constraints are
stored as: a row `(D, {j: a_j}, b)` stands for `sum_j (a_j / D) x_j ~ b / D`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

from .model import Constraint, Row, Sign


def _dominates(
    scale: int,
    terms: dict[int, int],
    bound: int,
    eq: bool,
    geq: bool,
    leq: bool,
    target: Constraint,
) -> bool:
    """Does the source row `terms / scale ~ bound / scale`, of possibly
    indefinite sign, dominate `target`?

    Either the source is an absurdity (zero left-hand side with a
    sign-directed impossible right-hand side), or both sides have the
    same left-hand side and the target-sign-directed bound comparison
    holds.  With all three flags false the answer is always False.  The
    source row need not be over its least scale.
    """
    if not terms:
        if eq:
            absurd = bound != 0
        elif geq:
            absurd = bound > 0
        elif leq:
            absurd = bound < 0
        else:
            absurd = False
        if absurd:
            return True
    target_scale = target.scale
    target_terms = target.terms
    if len(terms) != len(target_terms):
        return False
    for j, a in terms.items():
        t = target_terms.get(j)
        if t is None or a * target_scale != t * scale:
            return False
    source_side = bound * target_scale
    target_side = target.bound * scale
    if target.sign is Sign.EQ:
        return eq and source_side == target_side
    if target.sign is Sign.GEQ:
        return geq and source_side >= target_side
    return leq and source_side <= target_side


def constraint_dominates(source: Constraint, target: Constraint) -> bool:
    """Domination between two definite-sign constraints."""
    s = source.sign.value
    return _dominates(source.scale, source.terms, source.bound, s == 0, s >= 0, s <= 0, target)


class PseudoConstraint(namedtuple("PseudoConstraint", "scale terms bound geq leq")):
    """Result of a linear combination: the integer-scaled row, not
    necessarily over its least scale, and the two sign flags.  `eq` is by
    definition the conjunction of the flags, and the combination is
    suitable iff at least one flag holds."""

    __slots__ = ()

    @property
    def eq(self) -> bool:
        return self.geq and self.leq

    def dominates(self, target: Constraint) -> bool:
        return _dominates(
            self.scale, self.terms, self.bound, self.eq, self.geq, self.leq, target
        )

    def roundable(self, int_vars: frozenset[int]) -> bool:
        """Integral coefficients on integer variables, zero everywhere
        else, and not an equality."""
        scale = self.scale
        return not self.eq and all(
            j in int_vars and a % scale == 0 for j, a in self.terms.items()
        )

    def rounded_dominates(self, target: Constraint) -> bool:
        """Bound test of the rounding rule: plain domination by the rounded
        combination, whose bound is the ceiling for >= and the floor for <=.
        Rounding keeps the absurdity test, since ceil(b) > 0 iff b > 0 and
        floor(b) < 0 iff b < 0; an equality combination is never rounded."""
        # ceil(bound / scale) for >=, floor for <=, scaled back by `scale`
        rounded = -(-self.bound // self.scale) if self.geq else self.bound // self.scale
        return _dominates(
            self.scale, self.terms, rounded * self.scale, False, self.geq, self.leq, target
        )


def linear_combination(
    multipliers: Row, resolve: Callable[[int], Constraint]
) -> PseudoConstraint:
    """Sum the weighted constraints exactly, tracking the sign flags.

    geq holds iff every weight agrees in sign with its constraint
    (weight * sign >= 0), leq symmetrically.  With weights w_i / M and
    rows over D_i, the sum is taken over L = M * lcm(D_i), each row
    scaled by the integer w_i * lcm(D_i) / D_i.  Exact cancellations are
    dropped so a vanished left-hand side is structurally empty.
    """
    weighted = [(weight, resolve(i)) for i, weight in sorted(multipliers.terms.items())]
    common = math.lcm(*(c.scale for _, c in weighted))
    terms: dict[int, int] = {}
    bound = 0
    geq = True
    leq = True
    for weight, constraint in weighted:
        weighted_sign = weight * constraint.sign.value
        if weighted_sign < 0:
            geq = False
        if weighted_sign > 0:
            leq = False
        factor = weight * (common // constraint.scale)
        for j, a in constraint.terms.items():
            terms[j] = terms.get(j, 0) + factor * a
        bound += factor * constraint.bound
    return PseudoConstraint(
        multipliers.scale * common, {j: a for j, a in terms.items() if a}, bound, geq, leq
    )


def is_split_disjunction(ci: Constraint, cj: Constraint, int_vars: frozenset[int]) -> bool:
    """Do the two constraints split the integer lattice?

    Same left-hand side, integral and supported only on integer
    variables, integral bounds, strictly opposite signs, and bounds one
    apart in the direction of the >= side.
    """
    # both rows integral (scale 1) and equal on the left-hand side
    if ci.scale != 1 or cj.scale != 1 or ci.terms != cj.terms:
        return False
    if not all(j in int_vars for j in ci.terms):
        return False
    si = ci.sign.value
    sj = cj.sign.value
    if si == 0 or si + sj != 0:
        return False
    if si == 1:
        return ci.bound == cj.bound + 1
    return ci.bound == cj.bound - 1
