"""Native evaluation of certificate validity with failure localization.

The check is the conjunction of a solution-side predicate (every listed
point feasible, the claimed bound witnessed) and a derivation-side
predicate (every derived constraint implied by its stated reasoning,
and the last constraint clinching the claimed relation).  Assumption
sets are not stored in certificate files; they are recomputed here by
a sequential replay, which discharges their correctness by construction
and returns only A(d), the one set the final obligation reads.

Failure reporting is deterministic: solution points in listed order,
then derivations by ascending index, then the final obligation.
"""

from __future__ import annotations

import os
from collections import namedtuple
from typing import Optional

from .algebra import constraint_dominates, is_split_disjunction, linear_combination
from .model import (
    Certificate,
    Constraint,
    DerivedConstraint,
    Problem,
    Reason,
    Row,
    Sign,
    SolutionPoint,
    Unsplit,
    Verdict,
    constraint_at,
    dot,
    nz,
    total_constraints,
)
from .rational import Rational, format_rational, unlimited_int_digits


class EmptyConstraintSystem(Exception):
    """The final obligation needs a last constraint, but d = 0."""


def _relation(bound: Constraint) -> str:
    """`>= b` or `<= b` for a one-sided bound constraint."""
    value = format_rational(Rational(bound.bound, bound.scale))
    return f"{'>=' if bound.sign is Sign.GEQ else '<='} {value}"


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


def _satisfies(constraint: Constraint, point: Row) -> bool:
    # both sides scaled by the row's scale and the point's, which are positive
    value = dot(constraint.terms, point.terms)
    bound = constraint.bound * point.scale
    s = constraint.sign.value
    return (s < 0 or value >= bound) and (s > 0 or value <= bound)


def phi_feas(problem: Problem, point: SolutionPoint) -> bool:
    """Is the point feasible: integral on integer variables, and on the
    right side of every problem constraint?"""
    coords = point.coords
    if any(c % coords.scale for j, c in coords.terms.items() if j in problem.int_vars):
        return False
    return all(_satisfies(c, coords) for c in problem.constraints)


@unlimited_int_digits()
def sol_violations(
    problem: Problem, certificate: Certificate, flags: RtpFlags
) -> list[Verdict]:
    """All solution-side failures, in deterministic order."""
    failures: list[Verdict] = []
    if not flags.has_range:
        if certificate.sol:
            failures.append(
                Verdict.invalid(
                    f"Sol({certificate.sol[0].name})",
                    "sol-nonempty",
                    "relation to prove is infeasibility but the solution list is non-empty",
                )
            )
        return failures
    for point in certificate.sol:
        if not phi_feas(problem, point):
            failures.append(
                Verdict.invalid(
                    f"Sol({point.name})",
                    "feas",
                    f"solution point {point.name} is not feasible",
                )
            )
    bound = flags.solution_bound
    if bound is not None and not any(_satisfies(bound, p.coords) for p in certificate.sol):
        failures.append(
            Verdict.invalid(
                "Final",
                "sol-bound",
                f"no listed solution achieves objective value {_relation(bound)}",
            )
        )
    return failures


def phi_prv(k: int, multipliers: Row) -> bool:
    """Every multiplier index refers to a strictly earlier constraint."""
    return all(1 <= i < k for i in nz(multipliers))


def der_violation(
    problem: Problem,
    certificate: Certificate,
    asets: frozenset[int],
    k: int,
) -> Optional[Verdict]:
    """Check derived constraint C_k; None means it is valid.

    The assumption predicate holds by construction of the replayed sets
    and is never re-evaluated here, so `asets` is not read.
    """
    derived: DerivedConstraint = certificate.der[k - problem.m - 1]
    target = derived.constraint

    def fail(predicate_id: str, message: str) -> Verdict:
        return Verdict.invalid(f"Der({k})", predicate_id, f"{target.name}: {message}")

    if derived.reason is Reason.ASM:
        return None

    if derived.reason in (Reason.LIN, Reason.RND):
        assert isinstance(derived.data, Row)
        if not phi_prv(k, derived.data):
            return fail(
                "prv", "multiplier indices must refer to strictly earlier constraints"
            )
        combination = linear_combination(
            derived.data, lambda i: constraint_at(problem, certificate, i)
        )
        if derived.reason is Reason.LIN:
            if not combination.dominates(target):
                return fail("lin-domination", "the linear combination does not dominate")
            return None
        if not combination.roundable(problem.int_vars):
            return fail("rnd-roundable", "the linear combination is not roundable")
        if not combination.rounded_dominates(target):
            return fail("rnd-domination", "the rounded combination does not dominate")
        return None

    if derived.reason is Reason.UNS:
        assert isinstance(derived.data, Unsplit)
        data = derived.data
        if not all(1 <= i < k for i in data.as_tuple()):
            return fail("uns-index", "unsplit data must refer to strictly earlier constraints")
        for i in (data.i1, data.i2):
            if not constraint_dominates(constraint_at(problem, certificate, i), target):
                return fail("uns-domination", f"constraint {i} does not dominate")
        left = constraint_at(problem, certificate, data.l1)
        right = constraint_at(problem, certificate, data.l2)
        if not is_split_disjunction(left, right, problem.int_vars):
            return fail(
                "uns-disjunction",
                f"constraints {data.l1} and {data.l2} do not form a split disjunction",
            )
        return None

    # sol reasoning: some listed point's objective bound must dominate
    sign = problem.sense.bound_sign
    objective = problem.objective
    for point in certificate.sol:
        source = objective.bound("objective-bound", sign, objective.value(point.coords))
        if constraint_dominates(source, target):
            return None
    return fail("sol-domination", "no listed solution's objective bound dominates")


@unlimited_int_digits()
def final_violation(
    problem: Problem,
    certificate: Certificate,
    asets: frozenset[int],
    flags: RtpFlags,
) -> Optional[Verdict]:
    """The closing obligation on C_d, selected by the relation to prove."""
    target = flags.final_target
    if target is None:
        return None
    if not flags.has_range:
        label = "infeasibility requires the last constraint to dominate 0 >= 1"
    else:
        side = "lower" if target.sign is Sign.GEQ else "upper"
        label = (
            f"the last constraint must dominate the objective {side} bound ({_relation(target)})"
        )
    d = total_constraints(problem, certificate)
    last = constraint_at(problem, certificate, d)
    if not constraint_dominates(last, target):
        return Verdict.invalid("Final", "der-final", f"{last.name}: {label}")
    if asets:
        remaining = ", ".join(str(i) for i in sorted(asets))
        return Verdict.invalid(
            "Final",
            "der-final",
            f"{last.name}: the last constraint still depends on assumptions {{{remaining}}}",
        )
    return None


def der_violations(
    problem: Problem,
    certificate: Certificate,
    asets: frozenset[int],
    flags: RtpFlags,
) -> list[Verdict]:
    """All derivation-side failures: ascending k, then the final check."""
    failures: list[Verdict] = []
    for k in range(problem.m + 1, total_constraints(problem, certificate) + 1):
        violation = der_violation(problem, certificate, asets, k)
        if violation is not None:
            failures.append(violation)
    final = final_violation(problem, certificate, asets, flags)
    if final is not None:
        failures.append(final)
    return failures


class CheckReport(
    namedtuple("CheckReport", "verdict failures solutions_checked derivations_checked")
):
    """Verdict plus every individual failure (a tuple), for diagnosis
    output."""

    __slots__ = ()


@unlimited_int_digits()
def check_certificate_report(problem: Problem, certificate: Certificate) -> CheckReport:
    """Verdict and every failure.  Messages print integers of any length,
    with the interpreter's digit limit lifted process-wide while this runs
    (`unlimited_int_digits`)."""
    flags = RtpFlags.of(problem, certificate)
    asets = compute_assumption_sets(problem, certificate)
    failures = sol_violations(problem, certificate, flags)
    failures.extend(der_violations(problem, certificate, asets, flags))
    verdict = failures[0] if failures else Verdict.ok()
    return CheckReport(
        verdict=verdict,
        failures=tuple(failures),
        solutions_checked=len(certificate.sol) if flags.has_range else 0,
        derivations_checked=len(certificate.der),
    )


def check_certificate(problem: Problem, certificate: Certificate) -> Verdict:
    """Valid iff the solution side and the derivation side both hold;
    otherwise the deterministic first failure."""
    return check_certificate_report(problem, certificate).verdict


def default_jobs() -> int:
    """Default `--jobs`: the block count of `emit` and the solver
    concurrency of `verify`."""
    return os.cpu_count() or 1
