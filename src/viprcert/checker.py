"""Native evaluation of certificate validity with failure localization.

The check is the conjunction of a solution-side predicate (every listed
point feasible, the claimed bound witnessed) and a derivation-side
predicate (every derived constraint implied by its stated reasoning,
and the last constraint clinching the claimed relation).  What the
relation to prove asks and the assumption set A(d) come from `spec`,
which the SMT route reads too; this module only evaluates.

Failure reporting is deterministic: solution points in listed order,
then derivations by ascending index, then the final obligation.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional

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
    total_constraints,
)
from .rational import format_ratio
from .spec import RtpFlags, cites_earlier, compute_assumption_sets


def _relation(bound: Constraint) -> str:
    """`>= b` or `<= b` for a one-sided bound constraint."""
    value = format_ratio(bound.bound, bound.scale)
    return f"{'>=' if bound.sign is Sign.GEQ else '<='} {value}"


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


def _sol_failures(
    problem: Problem, certificate: Certificate, flags: RtpFlags
) -> Iterator[Verdict]:
    """The solution-side failures, each point checked only when the next
    failure is asked for."""
    if not flags.has_range:
        if certificate.sol:
            yield Verdict.invalid(
                f"Sol({certificate.sol[0].name})",
                "sol-nonempty",
                "relation to prove is infeasibility but the solution list is non-empty",
            )
        return
    for point in certificate.sol:
        if not phi_feas(problem, point):
            yield Verdict.invalid(
                f"Sol({point.name})", "feas", f"solution point {point.name} is not feasible"
            )
    bound = flags.solution_bound
    if bound is not None and not any(_satisfies(bound, p.coords) for p in certificate.sol):
        yield Verdict.invalid(
            "Final",
            "sol-bound",
            f"no listed solution achieves objective value {_relation(bound)}",
        )


def sol_violations(
    problem: Problem, certificate: Certificate, flags: RtpFlags
) -> list[Verdict]:
    """All solution-side failures, in deterministic order."""
    return list(_sol_failures(problem, certificate, flags))


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
        if not cites_earlier(k, derived.data):
            return fail("prv", "multiplier indices must refer to strictly earlier constraints")
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
        if not cites_earlier(k, data):
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


def failures(problem: Problem, certificate: Certificate, flags: RtpFlags) -> Iterator[Verdict]:
    """Every failure, each computed only when the next one is asked for:
    the solution side point by point, then derivations by ascending
    index, then the final obligation, for which A(d) is replayed.  So
    nothing past the first failure is evaluated, the replay included,
    unless the caller asks for more."""
    yield from _sol_failures(problem, certificate, flags)
    for k in range(problem.m + 1, total_constraints(problem, certificate) + 1):
        violation = der_violation(problem, certificate, frozenset(), k)
        if violation is not None:
            yield violation
    asets = compute_assumption_sets(problem, certificate)
    final = final_violation(problem, certificate, asets, flags)
    if final is not None:
        yield final


def check_certificate(problem: Problem, certificate: Certificate) -> Verdict:
    """Valid iff the solution side and the derivation side both hold;
    otherwise the deterministic first failure."""
    flags = RtpFlags.of(problem, certificate)
    return next(failures(problem, certificate, flags), Verdict.ok())


def default_jobs() -> int:
    """Default `--jobs`: the block count of `emit` and the solver
    concurrency of `verify`.  The CPUs this process may run on, as
    `nproc` counts them, where the platform says; else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
