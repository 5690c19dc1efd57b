"""Domain model for MILP problems, certificates, and verdicts.

Everything here is an immutable value produced by the parser (or built
directly in tests); the checker and the SMT emitter only ever read it.
Constraint indexing is 1-based: problem constraints are C_1..C_m and
derived constraints continue as C_{m+1}..C_d.  The on-disk format uses
0-based indices; that shift happens in the parser, nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Mapping, Optional, Union

from .rational import Rational, ZERO


class IndexOutOfRange(Exception):
    """Constraint index outside [1, d]."""


class Sense(Enum):
    MIN = "min"
    MAX = "max"


class Sign(Enum):
    """Relation of a constraint; value is its sign (>= is 1, = is 0, <= is -1)."""

    EQ = 0
    GEQ = 1
    LEQ = -1

    @classmethod
    def from_letter(cls, letter: str) -> "Sign":
        try:
            return _SIGN_BY_LETTER[letter]
        except KeyError:
            raise ValueError(f"unknown sense letter: {letter!r}") from None

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


@dataclass(frozen=True)
class LinearExpr:
    """Sparse linear functional: variable index (1-based) -> coefficient.

    Zero coefficients are never stored, so "the left-hand side is zero"
    is the structural check `expr.is_zero`.
    """

    terms: Mapping[int, Rational] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {j: c for j, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", cleaned)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, index: int) -> Rational:
        return self.terms.get(index, ZERO)

    def items_sorted(self) -> list[tuple[int, Rational]]:
        return sorted(self.terms.items())

    def evaluate(self, coords: Mapping[int, Rational]) -> Rational:
        total = ZERO
        for j, c in self.terms.items():
            value = coords.get(j, ZERO)
            if value:
                total += c * value
        return total


# (D, {j: a_j}, b): the constraint sum_j (a_j / D) x_j ~ b / D in integers, D > 0
IntegerRow = tuple[int, dict[int, int], int]


def scaled_row(terms: Mapping[int, Rational], rhs: Rational) -> IntegerRow:
    """Coefficients and bound over their least common denominator D."""
    scale = math.lcm(rhs.denominator, *(c.denominator for c in terms.values()))
    return (
        scale,
        {j: c.numerator * (scale // c.denominator) for j, c in terms.items()},
        rhs.numerator * (scale // rhs.denominator),
    )


@dataclass(frozen=True)
class Constraint:
    name: str
    lhs: LinearExpr
    sign: Sign
    rhs: Rational

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("constraint name must be non-empty")

    @cached_property
    def row(self) -> IntegerRow:
        """The integer-scaled row, computed on first use; not a field, so
        it takes no part in equality, hashing or repr."""
        return scaled_row(self.lhs.terms, self.rhs)


@dataclass(frozen=True)
class Problem:
    """A MILP: n variables, integer set, objective with sense, constraints.

    `bound_count` mirrors the second integer of the file's CON header;
    it is round-trip metadata with no semantic weight.
    """

    n: int
    var_names: tuple[str, ...]
    int_vars: frozenset[int]
    sense: Sense
    objective: LinearExpr
    constraints: tuple[Constraint, ...]
    bound_count: int = 0

    def __post_init__(self) -> None:
        if len(self.var_names) != self.n:
            raise ValueError("var_names length must equal n")
        if not all(1 <= j <= self.n for j in self.int_vars):
            raise ValueError("integer variable index outside [1, n]")
        for expr in (self.objective, *(c.lhs for c in self.constraints)):
            if any(not 1 <= j <= self.n for j in expr.terms):
                raise ValueError("expression references a variable outside [1, n]")

    @property
    def m(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
class Rtp:
    """Relation to prove: infeasibility, or an objective interval.

    `lb is None` encodes -inf and `ub is None` encodes +inf.  An empty
    interval (lb > ub) is representable; it simply makes both bound
    obligations active downstream.
    """

    infeasible: bool
    lb: Optional[Rational] = None
    ub: Optional[Rational] = None

    @classmethod
    def make_infeasible(cls) -> "Rtp":
        return cls(infeasible=True)

    @classmethod
    def make_range(cls, lb: Optional[Rational], ub: Optional[Rational]) -> "Rtp":
        return cls(infeasible=False, lb=lb, ub=ub)


@dataclass(frozen=True)
class SolutionPoint:
    """Named point; sparse coordinates, absent variables are zero."""

    name: str
    coords: Mapping[int, Rational] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {j: v for j, v in self.coords.items() if v != 0}
        object.__setattr__(self, "coords", cleaned)

    def coordinate(self, index: int) -> Rational:
        return self.coords.get(index, ZERO)


@dataclass(frozen=True)
class Multipliers:
    """Sparse map constraint index -> nonzero weight (lin/rnd data)."""

    weights: Mapping[int, Rational] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {i: w for i, w in self.weights.items() if w != 0}
        object.__setattr__(self, "weights", cleaned)

    def items_sorted(self) -> list[tuple[int, Rational]]:
        return sorted(self.weights.items())


@dataclass(frozen=True)
class Unsplit:
    """Unsplit data (i1, l1, i2, l2) over the unified constraint array."""

    i1: int
    l1: int
    i2: int
    l2: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.i1, self.l1, self.i2, self.l2)


DerivationData = Union[None, Multipliers, Unsplit]


@dataclass(frozen=True)
class DerivedConstraint:
    """Constraint plus the reasoning that introduced it.

    `legacy_index` mirrors the file format's trailing index attribute;
    it is preserved for round-trips and never consulted by semantics.
    """

    constraint: Constraint
    reason: Reason
    data: DerivationData = None
    legacy_index: int = -1

    def __post_init__(self) -> None:
        if self.reason in (Reason.ASM, Reason.SOL):
            ok = self.data is None
        elif self.reason in (Reason.LIN, Reason.RND):
            ok = isinstance(self.data, Multipliers)
        else:
            ok = isinstance(self.data, Unsplit)
        if not ok:
            raise ValueError(f"reason {self.reason.value} incompatible with data {self.data!r}")


@dataclass(frozen=True)
class Certificate:
    rtp: Rtp
    sol: tuple[SolutionPoint, ...]
    der: tuple[DerivedConstraint, ...]


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


def nz(multipliers: Multipliers) -> frozenset[int]:
    """Non-zero index set; zeros are never stored, so this is the key set."""
    return frozenset(multipliers.weights)


@dataclass(frozen=True)
class Location:
    """Where a verdict failure was localized."""

    kind: str  # "sol" | "der" | "final"
    point: Optional[str] = None
    k: Optional[int] = None

    @classmethod
    def sol(cls, point_name: str) -> "Location":
        return cls(kind="sol", point=point_name)

    @classmethod
    def der(cls, k: int) -> "Location":
        return cls(kind="der", k=k)

    @classmethod
    def final(cls) -> "Location":
        return cls(kind="final")

    def __str__(self) -> str:
        if self.kind == "sol":
            return f"Sol({self.point})"
        if self.kind == "der":
            return f"Der({self.k})"
        return "Final"


@dataclass(frozen=True)
class Verdict:
    valid: bool
    location: Optional[Location] = None
    predicate_id: Optional[str] = None
    message: str = ""

    def __post_init__(self) -> None:
        if not self.valid and (self.location is None or self.predicate_id is None):
            raise ValueError("invalid verdict must carry a location and predicate_id")

    @classmethod
    def ok(cls) -> "Verdict":
        return cls(valid=True)

    @classmethod
    def invalid(cls, location: Location, predicate_id: str, message: str) -> "Verdict":
        return cls(valid=False, location=location, predicate_id=predicate_id, message=message)
