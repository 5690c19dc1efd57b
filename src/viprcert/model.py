"""Domain model for MILP problems, certificates, and verdicts.

Everything here is an immutable value, a named tuple, produced by the
parser (or built directly in tests); the checker and the SMT emitter
only ever read it.
Constraint indexing is 1-based: problem constraints are C_1..C_m and
derived constraints continue as C_{m+1}..C_d.  The on-disk format uses
0-based indices; that shift happens in the parser, nowhere else.

There is one representation of a list of numbers over an index set:
an integer row, its integers over a positive scale reduced to the least
one.  A constraint is such a row with a bound; the objective, a solution
point's coordinates and the multipliers of a `lin`/`rnd` step are a
`Row`.  Only single numbers, the bounds of the relation to prove and an
objective value, are `Rational`.  The constraint "objective ~ value" is
built in one place, `Row.bound`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from typing import Mapping, Optional, Union

from .rational import Rational


class IndexOutOfRange(Exception):
    """Constraint index outside [1, d]."""


class Sense(Enum):
    MIN = "min"
    MAX = "max"

    @property
    def bound_sign(self) -> "Sign":
        """Sign of the bound a feasible objective value puts on the
        optimum: <= for min, >= for max."""
        return Sign.LEQ if self is Sense.MIN else Sign.GEQ


class Sign(Enum):
    """Relation of a constraint; value is its sign (>= is 1, = is 0, <= is -1)."""

    EQ = 0
    GEQ = 1
    LEQ = -1

    @property
    def letter(self) -> str:
        return {Sign.EQ: "E", Sign.GEQ: "G", Sign.LEQ: "L"}[self]


_SIGN_BY_LETTER = {"E": Sign.EQ, "G": Sign.GEQ, "L": Sign.LEQ}


class Reason(Enum):
    ASM = "asm"
    LIN = "lin"
    RND = "rnd"
    UNS = "uns"
    SOL = "sol"


def dot(terms: Mapping[int, int], coords: Mapping[int, int]) -> int:
    """sum_j terms[j] * coords[j], absent coordinates being zero."""
    get = coords.get
    return sum(a * get(j, 0) for j, a in terms.items())


def _least_row(
    scale: int, terms: dict[int, int], bound: int = 0
) -> tuple[int, dict[int, int], int]:
    """A row with scale > 0 with no zero entry, over its least scale:
    divided by the gcd of its integers."""
    if 0 in terms.values():
        terms = {j: a for j, a in terms.items() if a}
    g = math.gcd(scale, bound, *terms.values())
    if g > 1:
        scale, bound = scale // g, bound // g
        terms = {j: a // g for j, a in terms.items()}
    return scale, terms, bound


class CheckedTuple:
    """Base of a named tuple whose `__new__` checks or reduces its fields:
    `_make`, and so `_replace`, build through `__new__` too, so no copy
    escapes the checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Constraint(CheckedTuple, namedtuple("Constraint", "name sign scale terms bound")):
    """A named constraint, stored as its sign and its integer row
    `sum_j (terms[j] / scale) x_j ~ bound / scale`.  Built from any row
    with scale > 0, it drops zero coefficients and keeps the row over the
    least scale, so equal rows are equal constraints."""

    __slots__ = ()

    def __new__(
        cls, name: str, sign: Sign, scale: int, terms: dict[int, int], bound: int
    ) -> "Constraint":
        if not name:
            raise ValueError("constraint name must be non-empty")
        return tuple.__new__(cls, (name, sign, *_least_row(scale, terms, bound)))


class Row(CheckedTuple, namedtuple("Row", "scale terms")):
    """The list `{i: terms[i] / scale}` of rationals over an index set, as
    an integer row over the least scale > 0 with no zero entry: the
    objective, a solution point or the multipliers of a `lin`/`rnd` step.
    Built from any scale > 0, it drops zeros and reduces, so equal lists
    are equal rows."""

    __slots__ = ()

    def __new__(cls, scale: int, terms: dict[int, int]) -> "Row":
        return tuple.__new__(cls, _least_row(scale, terms)[:2])

    def value(self, point: "Row") -> Rational:
        """This linear form's exact value at a point."""
        return Rational(dot(self.terms, point.terms), self.scale * point.scale)

    def bound(self, name: str, sign: Sign, value: Rational) -> Constraint:
        """The constraint "this form ~ value", such as "objective ~ value":
        for value = p / q, the row `sum_j a_j q x_j ~ p scale` over
        `scale q`."""
        q = value.denominator
        return Constraint(
            name, sign, self.scale * q, {j: a * q for j, a in self.terms.items()},
            value.numerator * self.scale,
        )


class Problem(
    CheckedTuple,
    namedtuple("Problem", "n var_names int_vars sense objective constraints bound_count"),
):
    """A MILP: n variables, their names (a tuple), the integer set (a
    frozenset of 1-based indices), the objective `Row` with its `Sense`,
    and the constraints (a tuple).

    `bound_count` mirrors the second integer of the file's CON header;
    it is round-trip metadata with no semantic weight.
    """

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        var_names: tuple[str, ...],
        int_vars: frozenset[int],
        sense: Sense,
        objective: Row,
        constraints: tuple[Constraint, ...],
        bound_count: int = 0,
    ) -> "Problem":
        if len(var_names) != n:
            raise ValueError("var_names length must equal n")
        if not all(1 <= j <= n for j in int_vars):
            raise ValueError("integer variable index outside [1, n]")
        for terms in (objective.terms, *(c.terms for c in constraints)):
            if any(not 1 <= j <= n for j in terms):
                raise ValueError("expression references a variable outside [1, n]")
        return tuple.__new__(
            cls, (n, var_names, int_vars, sense, objective, constraints, bound_count)
        )

    @property
    def m(self) -> int:
        return len(self.constraints)


class Rtp(namedtuple("Rtp", "infeasible lb ub", defaults=(None, None))):
    """Relation to prove: infeasibility, or an objective interval.

    `lb is None` encodes -inf and `ub is None` encodes +inf.  An empty
    interval (lb > ub) is representable; it simply makes both bound
    obligations active downstream.
    """

    __slots__ = ()

    @classmethod
    def make_infeasible(cls) -> "Rtp":
        return cls(infeasible=True)

    @classmethod
    def make_range(cls, lb: Optional[Rational], ub: Optional[Rational]) -> "Rtp":
        return cls(infeasible=False, lb=lb, ub=ub)


class SolutionPoint(namedtuple("SolutionPoint", "name coords")):
    """Named point; its coordinates are a row over the variables, an
    absent variable being zero."""

    __slots__ = ()


class Unsplit(namedtuple("Unsplit", "i1 l1 i2 l2")):
    """Unsplit data (i1, l1, i2, l2) over the unified constraint array."""

    __slots__ = ()


DerivationData = Union[None, Row, Unsplit]  # a `lin`/`rnd` step's multipliers are a Row


class DerivedConstraint(
    CheckedTuple, namedtuple("DerivedConstraint", "constraint reason data legacy_index")
):
    """Constraint plus the reasoning that introduced it.

    `legacy_index` mirrors the file format's trailing index attribute;
    it is preserved for round-trips and never consulted by semantics.
    """

    __slots__ = ()

    def __new__(
        cls,
        constraint: Constraint,
        reason: Reason,
        data: DerivationData = None,
        legacy_index: int = -1,
    ) -> "DerivedConstraint":
        if reason in (Reason.ASM, Reason.SOL):
            ok = data is None
        elif reason in (Reason.LIN, Reason.RND):
            ok = isinstance(data, Row)
        else:
            ok = isinstance(data, Unsplit)
        if not ok:
            raise ValueError(f"reason {reason.value} incompatible with data {data!r}")
        return tuple.__new__(cls, (constraint, reason, data, legacy_index))


class Certificate(namedtuple("Certificate", "rtp sol der")):
    """The relation to prove, the solution points and the derived
    constraints (tuples), as listed in the file."""

    __slots__ = ()


def total_constraints(problem: Problem, certificate: Certificate) -> int:
    """d = m + |DER|: size of the unified constraint array."""
    return problem.m + len(certificate.der)


def constraint_at(problem: Problem, certificate: Certificate, k: int) -> Constraint:
    """C_k for 1 <= k <= d; problem constraints first, then derived."""
    d = total_constraints(problem, certificate)
    if not 1 <= k <= d:
        raise IndexOutOfRange(f"constraint index {k} outside [1, {d}]")
    if k <= problem.m:
        return problem.constraints[k - 1]
    return certificate.der[k - problem.m - 1].constraint


class Verdict(CheckedTuple, namedtuple("Verdict", "valid location predicate_id message")):
    """A failure's location is `Sol(<point name>)`, `Der(<k>)` or `Final`."""

    __slots__ = ()

    def __new__(
        cls,
        valid: bool,
        location: Optional[str] = None,
        predicate_id: Optional[str] = None,
        message: str = "",
    ) -> "Verdict":
        if not valid and (location is None or predicate_id is None):
            raise ValueError("invalid verdict must carry a location and predicate_id")
        return tuple.__new__(cls, (valid, location, predicate_id, message))

    @classmethod
    def ok(cls) -> "Verdict":
        return cls(valid=True)

    @classmethod
    def invalid(cls, location: str, predicate_id: str, message: str) -> "Verdict":
        return cls(valid=False, location=location, predicate_id=predicate_id, message=message)
