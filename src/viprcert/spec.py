"""What the spec fixes, read by both routes: what the relation to prove
asks (`RtpFlags`), that a step cites only strictly earlier constraints
(`cites_earlier`), and A(d), recomputed by a sequential replay that
discharges the assumption sets' correctness by construction.  The native
check (`checker`) and the SMT route (`smtgen`) import this, never each other.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

from .model import Certificate, Constraint, Problem, Reason, Row, Sign, Unsplit, total_constraints
from .rational import Rational


class EmptyConstraintSystem(Exception):
    """The final obligation needs a last constraint, but d = 0."""


class RtpFlags(namedtuple("RtpFlags", "has_range solution_bound final_target")):
    """What the relation to prove asks, decided once per certificate.

    `has_range` is true unless the relation to prove is infeasibility.
    `solution_bound` is the objective bound some listed solution must
    satisfy: the upper bound of a min problem or the lower bound of a
    max problem.  `final_target` is the constraint the last constraint
    C_d must dominate: 0 >= 1 for infeasibility, else the other bound.
    Each is a `Constraint`, or None when its bound is infinite.
    """

    __slots__ = ()

    @classmethod
    def of(cls, problem: Problem, certificate: Certificate) -> "RtpFlags":
        """Raises EmptyConstraintSystem when a final target applies but
        the unified constraint array is empty."""
        rtp = certificate.rtp
        if rtp.infeasible:
            flags = cls(False, None, Constraint("absurdity", Sign.GEQ, 1, {}, 1))
        else:
            def bound(sign: Sign, value: Optional[Rational]) -> Optional[Constraint]:
                if value is None:
                    return None
                return problem.objective.bound("objective-bound", sign, value)

            sign = problem.sense.bound_sign
            witnessed, closing = (rtp.ub, rtp.lb) if sign is Sign.LEQ else (rtp.lb, rtp.ub)
            flags = cls(True, bound(sign, witnessed), bound(Sign(-sign.value), closing))
        if flags.final_target is not None and total_constraints(problem, certificate) == 0:
            raise EmptyConstraintSystem(
                "the relation to prove requires a last constraint, but there are none"
            )
        return flags


def cites_earlier(k: int, data) -> bool:
    """The rule that a step C_k cites only strictly earlier constraints:
    every index its `lin`/`rnd` multipliers cite, and all four indices of
    an unsplit step, lie in [1, k).  An `asm` or `sol` step cites none."""
    cited = data.terms if isinstance(data, Row) else data or ()
    return all(0 < i < k for i in cited)


def _sources(m: int, k: int, data) -> list[tuple[int, int]]:
    """The derived constraints A(k) is built from, each with the `asm`
    step it discharges (0 for none).  A problem constraint's set is
    empty, and an unsplit step has none unless i1, i2 are in [1, k)."""
    if isinstance(data, Row):
        return [(i, 0) for i in data.terms if m < i < k]
    if isinstance(data, Unsplit) and 0 < data.i1 < k and 0 < data.i2 < k:
        if data.i1 == data.i2:  # A(i) less l1 union A(i) less l2
            pairs = ((data.i1, data.l1 if data.l1 == data.l2 else 0),)
        else:
            pairs = ((data.i1, data.l1), (data.i2, data.l2))
        return [(i, label) for i, label in pairs if i > m]
    return []


def compute_assumption_sets(problem: Problem, certificate: Certificate) -> frozenset[int]:
    """A(d), the assumption set of the last constraint C_d, as 1-based
    constraint indices; empty when there is no derivation.

    Only A(d) is returned because only A(d) is read: the certificate
    proves its claim when C_d dominates the final target and depends on
    no assumption.  A(k) is {k} for an `asm` step, the union of its
    sources' sets for `lin`/`rnd`, A(i1) less l1 union A(i2) less l2 for
    an unsplit step, and empty otherwise.

    A first pass finds each constraint's last reader; the replay keeps
    A(k) only until then, and a step extends in place the largest set it
    reads for the last time.  So memory holds only the sets still to be
    read, and a chain of unions costs each step only its new indices.
    """
    m = problem.m
    last_read = [0] * (m + len(certificate.der) + 1)
    for k, derived in enumerate(certificate.der, m + 1):
        for i, _ in _sources(m, k, derived.data):
            last_read[i] = k
    live: dict[int, set[int]] = {}  # nonempty A(i) that a later step still reads
    current: set[int] = set()
    for k, derived in enumerate(certificate.der, m + 1):
        sources = [(i, label) for i, label in _sources(m, k, derived.data) if i in live]
        ending = [source for source in sources if last_read[source[0]] == k]
        current = set()
        if derived.reason is Reason.ASM:
            current.add(k)
        elif ending:
            grown = max(ending, key=lambda source: len(live[source[0]]))
            sources.remove(grown)
            current = live[grown[0]]
            current.discard(grown[1])
        for i, label in sources:
            current |= live[i] - {label} if label in live[i] else live[i]
        for i, _ in ending:
            del live[i]
        if current and last_read[k]:
            live[k] = current
    return frozenset(current)
