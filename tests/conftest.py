from __future__ import annotations

import contextlib
import os
import random
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from rows import constraint, lhs, multipliers, objective, point, rhs
from viprcert.model import (
    Certificate,
    Constraint,
    DerivedConstraint,
    Problem,
    Reason,
    Row,
    Rtp,
    Sense,
    Sign,
    SolutionPoint,
    Unsplit,
)
from viprcert.parser import parse_certificate, serialize_certificate
from viprcert.rational import Rational

FIXTURE_DIR = Path(__file__).parent / "fixtures"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Child processes (`python -m viprcert...`, solver commands) import the
# package from this checkout, also when pytest runs without PYTHONPATH.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
)
CORPUS = ("cert0", "forged1", "forged2", "manipulated1")

# `--hypothesis-profile=ci` runs five times the examples of every property
# test that does not set its own count, and prints a failure's reproducer.
settings.register_profile("ci", max_examples=500, print_blob=True)

# the lowest int <-> str digit limit CPython accepts; huge-literal tests run
# under it as well as under the interpreter's own
LOWEST_DIGIT_LIMIT = 640


@contextlib.contextmanager
def int_digit_limit(limit: int):
    """The interpreter's int <-> str digit limit set to `limit` (0 lifts
    it) while the block runs, and restored after."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.fixture(params=["own", "lowest"])
def digit_limit(request):
    """Runs a test under the interpreter's own digit limit, and again
    under the lowest one, set for the test only."""
    lowest = request.param == "lowest"
    with int_digit_limit(LOWEST_DIGIT_LIMIT if lowest else sys.get_int_max_str_digits()):
        yield


# Bundled ground-formula evaluator, used wherever tests need an external
# SMT-LIB executable.
SOLVER_COMMAND = f"{shlex.quote(sys.executable)} -m viprcert.smteval {{}}"


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.vipr"


def load_fixture(name: str):
    return parse_certificate(fixture_path(name).read_bytes())


@pytest.fixture(scope="session")
def corpus():
    return {name: load_fixture(name) for name in CORPUS}


# --- random model mutation (always yields a parseable certificate) ----------


def _mutate_rational(rng: random.Random, value: Rational) -> Rational:
    delta = rng.choice([Rational(1), Rational(-1), Rational(1, 2), Rational(-1, 3)])
    mutated = value + delta
    return mutated if mutated != value else value + 1


def _replace_constraint(problem, certificate, index, constraint):
    """index is 1-based over the unified array."""
    if index <= problem.m:
        constraints = list(problem.constraints)
        constraints[index - 1] = constraint
        return problem._replace(constraints=tuple(constraints)), certificate
    der = list(certificate.der)
    old = der[index - problem.m - 1]
    der[index - problem.m - 1] = old._replace(constraint=constraint)
    return problem, certificate._replace(der=tuple(der))


def mutate_model(problem: Problem, certificate: Certificate, rng: random.Random):
    """Apply one random semantic mutation at the model level."""
    d = problem.m + len(certificate.der)
    for _ in range(64):
        kind = rng.choice(
            ["rhs", "sign", "coefficient", "multiplier", "mult-index", "uns", "rtp", "sol", "objective"]
        )
        if kind == "rhs" and d:
            k = rng.randint(1, d)
            target = _constraint_at(problem, certificate, k)
            mutated = constraint(
                target.name, lhs(target), target.sign, _mutate_rational(rng, rhs(target))
            )
            return _replace_constraint(problem, certificate, k, mutated)
        if kind == "sign" and d:
            k = rng.randint(1, d)
            target = _constraint_at(problem, certificate, k)
            other = rng.choice([s for s in Sign if s is not target.sign])
            mutated = Constraint(target.name, other, target.scale, target.terms, target.bound)
            return _replace_constraint(problem, certificate, k, mutated)
        if kind == "coefficient" and d:
            k = rng.randint(1, d)
            target = _constraint_at(problem, certificate, k)
            if not target.terms:
                continue
            j = rng.choice(sorted(target.terms))
            terms = lhs(target)
            terms[j] = _mutate_rational(rng, terms[j])
            mutated = constraint(target.name, terms, target.sign, rhs(target))
            return _replace_constraint(problem, certificate, k, mutated)
        if kind in ("multiplier", "mult-index"):
            candidates = [
                i
                for i, dc in enumerate(certificate.der)
                if dc.reason in (Reason.LIN, Reason.RND) and dc.data.terms
            ]
            if not candidates:
                continue
            i = rng.choice(candidates)
            dc = certificate.der[i]
            weights = lhs(dc.data)
            key = rng.choice(sorted(weights))
            if kind == "multiplier":
                weights[key] = _mutate_rational(rng, weights[key])
            else:
                weights.pop(key)
                weights[rng.randint(1, d)] = Rational(rng.randint(1, 3))
            der = list(certificate.der)
            der[i] = dc._replace(data=multipliers(weights))
            return problem, certificate._replace(der=tuple(der))
        if kind == "uns":
            candidates = [
                i for i, dc in enumerate(certificate.der) if dc.reason is Reason.UNS
            ]
            if not candidates:
                continue
            i = rng.choice(candidates)
            dc = certificate.der[i]
            values = list(dc.data)
            values[rng.randrange(4)] = rng.randint(1, d)
            der = list(certificate.der)
            der[i] = dc._replace(data=Unsplit(*values))
            return problem, certificate._replace(der=tuple(der))
        if kind == "rtp":
            rtp = certificate.rtp
            if rtp.infeasible:
                mutated = Rtp.make_range(Rational(0), Rational(rng.randint(0, 2)))
            elif rng.random() < 0.5:
                mutated = Rtp.make_infeasible()
            else:
                lb = rtp.lb if rtp.lb is not None else Rational(0)
                mutated = Rtp.make_range(_mutate_rational(rng, lb), rtp.ub)
            return problem, certificate._replace(rtp=mutated)
        if kind == "sol" and certificate.sol:
            i = rng.randrange(len(certificate.sol))
            name = certificate.sol[i].name
            j = rng.randint(1, problem.n)
            coords = lhs(certificate.sol[i].coords)
            coords[j] = _mutate_rational(rng, coords.get(j, Rational(0)))
            sol = list(certificate.sol)
            sol[i] = point(name, coords)
            return problem, certificate._replace(sol=tuple(sol))
        if kind == "objective" and problem.n:
            j = rng.randint(1, problem.n)
            terms = lhs(problem.objective)
            terms[j] = _mutate_rational(rng, terms.get(j, Rational(0)))
            return problem._replace(objective=objective(terms)), certificate
    raise AssertionError("no applicable mutation found")


def _constraint_at(problem, certificate, k):
    if k <= problem.m:
        return problem.constraints[k - 1]
    return certificate.der[k - problem.m - 1].constraint


def mutated_variant(name: str, rng: random.Random):
    """A mutated corpus certificate, normalized through a serialize/parse
    round trip so it is guaranteed to be expressible in the format."""
    problem, certificate = load_fixture(name)
    problem, certificate = mutate_model(problem, certificate, rng)
    return parse_certificate(serialize_certificate(problem, certificate))


# --- small random certificates from scratch ---------------------------------


def random_certificate(rng: random.Random):
    """A tiny random problem and certificate; usually invalid, which is
    the interesting case for agreement tests."""
    n = rng.randint(1, 2)
    var_names = tuple(f"x{j}" for j in range(1, n + 1))
    int_vars = frozenset(j for j in range(1, n + 1) if rng.random() < 0.7)
    sense = rng.choice([Sense.MIN, Sense.MAX])

    def random_expr(allow_empty=True):
        terms = {}
        for j in range(1, n + 1):
            if rng.random() < 0.6:
                terms[j] = Rational(rng.randint(-3, 3))
        if not terms and not allow_empty:
            terms[rng.randint(1, n)] = Rational(rng.choice([-2, -1, 1, 2]))
        return terms

    def random_rhs():
        return Rational(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))

    m = rng.randint(1, 3)
    constraints = tuple(
        constraint(f"C{i}", random_expr(), rng.choice(list(Sign)), random_rhs())
        for i in range(1, m + 1)
    )
    problem = Problem(
        n=n,
        var_names=var_names,
        int_vars=int_vars,
        sense=sense,
        objective=objective(random_expr()),
        constraints=constraints,
    )

    if rng.random() < 0.4:
        rtp = Rtp.make_infeasible()
        sol: tuple[SolutionPoint, ...] = ()
    else:
        lb = None if rng.random() < 0.3 else random_rhs()
        ub = None if rng.random() < 0.3 else random_rhs()
        rtp = Rtp.make_range(lb, ub)
        sol = tuple(
            point(
                f"s{i}",
                {j: Rational(rng.randint(-2, 2)) for j in range(1, n + 1) if rng.random() < 0.7},
            )
            for i in range(rng.randint(0, 2))
        )

    der_count = rng.randint(0, 4)
    d = m + der_count
    der = []
    for offset in range(der_count):
        body = constraint(f"D{offset}", random_expr(), rng.choice(list(Sign)), random_rhs())
        reason = rng.choice(list(Reason))
        if reason in (Reason.ASM, Reason.SOL):
            data = None
        elif reason in (Reason.LIN, Reason.RND):
            data = multipliers(
                {
                    rng.randint(1, d): Rational(rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 3))
                }
            )
        else:
            data = Unsplit(*(rng.randint(1, d) for _ in range(4)))
        der.append(DerivedConstraint(body, reason, data))
    certificate = Certificate(rtp=rtp, sol=sol, der=tuple(der))
    return problem, certificate


# --- random certificates that are valid by construction ----------------------


def random_valid_certificate(rng: random.Random):
    """Problem plus a certificate assembled so every derivation is
    correct: suitable combinations weaken their own result, roundings
    round their own combination, unsplits reuse a dominating ancestor
    over a genuine split pair, and the final obligation is discharged
    by a combination of problem constraints only (empty assumption set).
    """
    from viprcert.algebra import linear_combination
    from viprcert.model import constraint_at

    n = rng.randint(1, 3)
    int_vars = frozenset(
        j for j in range(1, n + 1) if rng.random() < 0.8
    ) or frozenset({1})

    def integral_expr():
        terms = {
            j: Rational(rng.randint(-2, 2))
            for j in sorted(int_vars)
            if rng.random() < 0.8
        }
        if not all(terms.values()):
            terms = {j: c for j, c in terms.items() if c}
        return terms or {min(int_vars): Rational(1)}

    def any_expr():
        return {
            j: Rational(rng.randint(-3, 3), rng.choice([1, 1, 2]))
            for j in range(1, n + 1)
            if rng.random() < 0.6
        }

    kind = rng.choice(["open", "lower-bound", "upper-bound", "infeasible", "witnessed"])
    m = rng.randint(1, 3)
    points: tuple[SolutionPoint, ...] = ()
    if kind == "witnessed":
        # points first, then constraints every point satisfies
        points = tuple(
            point(
                f"p{i}",
                {
                    j: Rational(
                        rng.randint(-3, 3)
                        if j in int_vars
                        else rng.choice([-2, -1, 1, 2])
                    )
                    for j in range(1, n + 1)
                    if rng.random() < 0.8
                },
            )
            for i in range(rng.randint(1, 2))
        )
        constraints = []
        coords = [lhs(p.coords) for p in points]
        for i in range(1, m + 1):
            terms = any_expr()
            values = [sum(c * x.get(j, 0) for j, c in terms.items()) for x in coords]
            if rng.random() < 0.5:
                body = constraint(f"C{i}", terms, Sign.GEQ, min(values) - rng.randint(0, 2))
            else:
                body = constraint(f"C{i}", terms, Sign.LEQ, max(values) + rng.randint(0, 2))
            constraints.append(body)
    else:
        constraints = [
            constraint(
                f"C{i}",
                any_expr(),
                rng.choice(list(Sign)),
                Rational(rng.randint(-4, 4), rng.choice([1, 2])),
            )
            for i in range(1, m + 1)
        ]
        if kind == "infeasible":
            # make infeasibility honest: one problem constraint is 0 >= 1
            constraints[rng.randrange(m)] = constraint("absurd", {}, Sign.GEQ, Rational(1))

    problem = Problem(
        n=n,
        var_names=tuple(f"x{j}" for j in range(1, n + 1)),
        int_vars=int_vars,
        sense=rng.choice([Sense.MIN, Sense.MAX]),
        objective=objective(any_expr()),
        constraints=tuple(constraints),
    )
    rtp: Rtp
    if kind == "witnessed":
        values = [problem.objective.value(p.coords) for p in points]
        if problem.sense is Sense.MIN:
            best = min(values)
            rtp = Rtp.make_range(None, best + rng.randint(0, 2))
        else:
            best = max(values)
            rtp = Rtp.make_range(best - rng.randint(0, 2), None)
    der: list[DerivedConstraint] = []

    def resolve(i):
        return constraint_at(problem, Certificate(Rtp.make_range(None, None), (), tuple(der)), i)

    def suitable_multipliers(limit: int, problem_only: bool = False) -> Row:
        direction = rng.choice([1, -1])  # +1: weights agree with signs (geq)
        weights = {}
        pool = range(1, (m if problem_only else limit) + 1)
        for i in rng.sample(list(pool), k=min(len(pool), rng.randint(1, 3))):
            s = resolve(i).sign.value
            magnitude = Rational(rng.randint(1, 3), rng.choice([1, 2]))
            if s == 0:
                weights[i] = magnitude * rng.choice([1, -1])
            else:
                weights[i] = magnitude * s * direction
        return multipliers(weights)

    def derived_from_combination(name, weights) -> DerivedConstraint:
        combo = linear_combination(weights, resolve)
        slack = Rational(rng.randint(0, 2))
        if combo.geq:
            body = constraint(name, lhs(combo), Sign.GEQ, rhs(combo) - slack)
        else:
            body = constraint(name, lhs(combo), Sign.LEQ, rhs(combo) + slack)
        return DerivedConstraint(body, Reason.LIN, weights)

    steps = rng.randint(1, 6)
    for step in range(steps):
        k = m + len(der) + 1
        ops = ["lin", "rnd", "asm", "uns"]
        if kind == "witnessed":
            ops.append("sol")
        op = rng.choice(ops)
        if op == "sol":
            # the best listed point's objective bound justifies this
            if problem.sense is Sense.MIN:
                body = problem.objective.bound(f"B{step}", Sign.LEQ, best + rng.randint(0, 2))
            else:
                body = problem.objective.bound(f"B{step}", Sign.GEQ, best - rng.randint(0, 2))
            der.append(DerivedConstraint(body, Reason.SOL, None))
        elif op == "asm":
            body = constraint(f"A{step}", any_expr(), rng.choice(list(Sign)), Rational(rng.randint(-3, 3)))
            der.append(DerivedConstraint(body, Reason.ASM, None))
        elif op == "lin":
            der.append(derived_from_combination(f"L{step}", suitable_multipliers(k - 1)))
        elif op == "rnd":
            weights = suitable_multipliers(k - 1)
            combo = linear_combination(weights, resolve)
            if not combo.roundable(int_vars):
                der.append(derived_from_combination(f"L{step}", weights))
                continue
            terms, bound = lhs(combo), rhs(combo)
            if combo.geq:
                ceiling = Rational(-((-bound).__floor__()))
                if not terms and bound > 0:
                    body = constraint(f"R{step}", terms, Sign.GEQ, ceiling)
                else:
                    body = constraint(f"R{step}", terms, Sign.GEQ, ceiling - rng.randint(0, 1))
            else:
                floor = Rational(bound.__floor__())
                if not terms and bound < 0:
                    body = constraint(f"R{step}", terms, Sign.LEQ, floor)
                else:
                    body = constraint(f"R{step}", terms, Sign.LEQ, floor + rng.randint(0, 1))
            der.append(DerivedConstraint(body, Reason.RND, weights))
        else:  # uns over a fresh split pair, reusing a dominating ancestor
            shared = integral_expr()
            delta = rng.randint(-2, 2)
            lower = constraint(f"S{step}l", shared, Sign.LEQ, Rational(delta))
            upper = constraint(f"S{step}u", shared, Sign.GEQ, Rational(delta + 1))
            der.append(DerivedConstraint(lower, Reason.ASM, None))
            der.append(DerivedConstraint(upper, Reason.ASM, None))
            i = rng.randint(1, k - 1)
            target = resolve(i)
            body = Constraint(f"U{step}", target.sign, target.scale, target.terms, target.bound)
            der.append(
                DerivedConstraint(body, Reason.UNS, Unsplit(i, k, i, k + 1))
            )

    sol: tuple[SolutionPoint, ...] = ()
    if kind == "witnessed":
        sol = points
    elif kind == "open":
        rtp = Rtp.make_range(None, None)
    elif kind == "infeasible":
        absurd_index = next(
            i for i, c in enumerate(constraints, start=1) if c.name == "absurd"
        )
        der.append(
            DerivedConstraint(
                constraint("final", {}, Sign.GEQ, Rational(1)),
                Reason.LIN,
                multipliers({absurd_index: Rational(1)}),
            )
        )
        rtp = Rtp.make_infeasible()
    else:
        # close with a combination of problem constraints only (A = empty),
        # and point the objective at its left-hand side
        closing = derived_from_combination("final", suitable_multipliers(m, problem_only=True))
        der.append(closing)
        problem = problem._replace(objective=objective(lhs(closing.constraint)))
        bound = rhs(closing.constraint)
        if closing.constraint.sign is Sign.GEQ:
            problem = problem._replace(sense=Sense.MIN)
            rtp = Rtp.make_range(bound - rng.randint(0, 2), None)
        else:
            problem = problem._replace(sense=Sense.MAX)
            rtp = Rtp.make_range(None, bound + rng.randint(0, 2))

    certificate = Certificate(rtp=rtp, sol=sol, der=tuple(der))
    return parse_certificate(serialize_certificate(problem, certificate))
