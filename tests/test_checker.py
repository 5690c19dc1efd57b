from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from assumptions import assumption_set_at
from conftest import CORPUS, fixture_path, load_fixture, mutated_variant
from rows import constraint, lhs, multipliers, objective, point, rhs
from test_scale_agreement import forgeries_for, gen

from viprcert import checker
from viprcert.checker import (
    check_certificate,
    default_jobs,
    der_violation,
    failures,
    final_violation,
    phi_feas,
    sol_violations,
)
from viprcert.cli import default_jobs as cli_default_jobs
from viprcert.cli import main
from viprcert.model import (
    Certificate,
    DerivedConstraint,
    Problem,
    Reason,
    Rtp,
    Sense,
    Sign,
    Unsplit,
    Verdict,
)
from viprcert.parser import parse_certificate, serialize_certificate
from viprcert.rational import Rational
from viprcert.spec import EmptyConstraintSystem, RtpFlags, cites_earlier, compute_assumption_sets

# Assumption sets of the running infeasibility example, one row per
# derived constraint (unified indices 4..14).
CERT0_ASSUMPTIONS = {
    4: {4},
    5: {5},
    6: {6},
    7: {4, 6},
    8: {8},
    9: {4, 8},
    10: {5},
    11: {5},
    12: {5},
    13: {4},
    14: set(),
}


def test_rtp_flags():
    goal = objective({1: Rational(2)})
    der = (DerivedConstraint(goal.bound("C", Sign.GEQ, Rational(0)), Reason.ASM, None),)
    # a min problem's solutions witness its upper bound and its derivation
    # closes on the lower one; a max problem the other way round
    for sense, witness_sign in ((Sense.MIN, Sign.LEQ), (Sense.MAX, Sign.GEQ)):
        problem = Problem(1, ("x",), frozenset(), sense, goal, ())
        closing_sign = Sign.GEQ if witness_sign is Sign.LEQ else Sign.LEQ
        for lb in (None, Rational(-3, 2)):
            for ub in (None, Rational(7)):
                flags = RtpFlags.of(problem, Certificate(Rtp.make_range(lb, ub), (), der))
                assert flags.has_range
                witnessed, closing = (ub, lb) if sense is Sense.MIN else (lb, ub)
                for bound, sign, value in (
                    (flags.solution_bound, witness_sign, witnessed),
                    (flags.final_target, closing_sign, closing),
                ):
                    if value is None:
                        assert bound is None, (sense, lb, ub)
                    else:
                        assert lhs(bound) == lhs(goal)
                        assert (bound.sign, rhs(bound)) == (sign, value)

        # infeasibility: no solution bound, and the absurdity 0 >= 1 to close on
        flags = RtpFlags.of(problem, Certificate(Rtp.make_infeasible(), (), der))
        assert not flags.has_range and flags.solution_bound is None
        target = flags.final_target
        assert (target.terms, target.sign, rhs(target)) == ({}, Sign.GEQ, Rational(1))


def test_assumption_sets_match_the_worked_example():
    problem, certificate = load_fixture("cert0")
    for k in range(1, problem.m + 1):
        assert assumption_set_at(problem, certificate, k) == frozenset()
    for k, expected in CERT0_ASSUMPTIONS.items():
        assert assumption_set_at(problem, certificate, k) == frozenset(expected), f"A({k})"


def test_phi_feas():
    problem, certificate = load_fixture("forged1")
    assert phi_feas(problem, certificate.sol[0])
    assert not phi_feas(problem, point("half", {1: Rational(1, 2)}))
    # out-of-bounds point
    assert not phi_feas(problem, point("big", {1: Rational(2)}))
    empty = Problem(1, ("x",), frozenset(), Sense.MIN, objective({}), ())
    assert phi_feas(empty, point("p", {1: Rational(7, 3)}))


def test_phi_sol_examples():
    for name in ("cert0", "forged1", "forged2"):
        problem, certificate = load_fixture(name)
        flags = RtpFlags.of(problem, certificate)
        assert sol_violations(problem, certificate, flags) == [], name


def test_phi_sol_failures_are_localized():
    problem, certificate = load_fixture("cert0")
    flags = RtpFlags.of(problem, certificate)
    bad = Certificate(
        rtp=certificate.rtp,
        sol=(point("ghost", {1: Rational(1)}),),
        der=certificate.der,
    )
    failures = sol_violations(problem, bad, flags)
    assert [f.predicate_id for f in failures] == ["sol-nonempty"]
    assert str(failures[0].location) == "Sol(ghost)"

    # (-1, 0) is infeasible and its objective value -1 misses the bound >= 1
    problem1, forged1 = load_fixture("forged1")
    infeasible_point = Certificate(
        rtp=forged1.rtp,
        sol=(point("bad", {1: Rational(-1)}),),
        der=forged1.der,
    )
    failures = sol_violations(problem1, infeasible_point, RtpFlags.of(problem1, forged1))
    assert [f.predicate_id for f in failures] == ["feas", "sol-bound"]
    # the bound disjunction ranges over every listed point, feasible or not
    high_point = Certificate(
        rtp=forged1.rtp,
        sol=(point("bad", {1: Rational(5)}),),
        der=forged1.der,
    )
    failures = sol_violations(problem1, high_point, RtpFlags.of(problem1, forged1))
    assert [f.predicate_id for f in failures] == ["feas"]


def test_cites_earlier():
    assert cites_earlier(10, multipliers({2: Rational(1), 5: Rational(2)}))
    assert not cites_earlier(7, multipliers({7: Rational(1)}))
    assert cites_earlier(7, multipliers({}))
    assert cites_earlier(2, multipliers({1: Rational(1), 9: Rational(0)}))  # a zero cites nothing
    assert cites_earlier(5, Unsplit(1, 2, 3, 4))
    assert not cites_earlier(4, Unsplit(1, 2, 3, 4))  # l2 = 4 is C_k itself
    assert not cites_earlier(5, Unsplit(1, 0, 3, 4))
    assert cites_earlier(1, None)  # an `asm` or `sol` step cites nothing
    # cert0 (m = 3): C_7 combines C_1, C_4 and C_6, and C_11 rounds C_10
    _, certificate = load_fixture("cert0")
    row7, row11 = certificate.der[3].data, certificate.der[7].data
    assert (cites_earlier(7, row7), cites_earlier(6, row7)) == (True, False)
    assert (cites_earlier(11, row11), cites_earlier(10, row11)) == (True, False)


def test_phi_der_k_examples():
    problem, certificate = load_fixture("cert0")
    asets = compute_assumption_sets(problem, certificate)
    assert der_violation(problem, certificate, asets, 11) is None
    assert der_violation(problem, certificate, asets, 14) is None
    for k in range(problem.m + 1, 15):
        assert der_violation(problem, certificate, asets, k) is None, k

    problem1, forged1 = load_fixture("forged1")
    asets1 = compute_assumption_sets(problem1, forged1)
    violation = der_violation(problem1, forged1, asets1, 5)
    assert violation is not None
    assert violation.predicate_id == "sol-domination"
    assert str(violation.location) == "Der(5)"


def test_phi_der_final_branch():
    problem, cert0 = load_fixture("cert0")
    assert list(failures(problem, cert0, RtpFlags.of(problem, cert0))) == []

    problem2, forged2 = load_fixture("forged2")
    asets2 = compute_assumption_sets(problem2, forged2)
    flags2 = RtpFlags.of(problem2, forged2)
    assert list(failures(problem2, forged2, flags2)) != []
    failure = final_violation(problem2, forged2, asets2, flags2)
    assert failure is not None and failure.predicate_id == "der-final"

    # both bounds infinite: the final obligation is vacuous
    vacuous = Certificate(Rtp.make_range(None, None), (), forged2.der)
    flags_v = RtpFlags.of(problem2, vacuous)
    assert final_violation(problem2, vacuous, compute_assumption_sets(problem2, vacuous), flags_v) is None


def test_empty_constraint_system():
    problem = Problem(1, ("x",), frozenset({1}), Sense.MIN, objective({}), ())
    certificate = Certificate(Rtp.make_infeasible(), (), ())
    with pytest.raises(EmptyConstraintSystem):
        RtpFlags.of(problem, certificate)
    with pytest.raises(EmptyConstraintSystem):
        check_certificate(problem, certificate)
    # with no active obligation there is nothing to ask of C_d
    fine = Certificate(Rtp.make_range(None, None), (), ())
    assert check_certificate(problem, fine).valid


def test_check_certificate_fixture_verdicts():
    expectations = {
        "cert0": (True, None, None),
        "manipulated1": (True, None, None),
        "forged1": (False, "Der(5)", "sol-domination"),
        "forged2": (False, "Final", "der-final"),
    }
    for name, (valid, location, predicate) in expectations.items():
        problem, certificate = load_fixture(name)
        verdict = check_certificate(problem, certificate)
        assert verdict.valid == valid, name
        if not valid:
            assert str(verdict.location) == location
            assert verdict.predicate_id == predicate


def test_valid_certificates_have_backward_looking_assumption_sets():
    # induction property: on accepted certificates A(k) is within [1, k]
    for name in ("cert0", "manipulated1"):
        problem, certificate = load_fixture(name)
        assert check_certificate(problem, certificate).valid
        d = problem.m + len(certificate.der)
        for k in range(1, d + 1):
            assert all(1 <= i <= k for i in assumption_set_at(problem, certificate, k)), (name, k)


def test_report_counts(capsys):
    def report(name):
        main(["check", str(fixture_path(name)), "--diagnose", "--format", "json"])
        return json.loads(capsys.readouterr().out)

    forged2 = report("forged2")
    assert forged2["solutions_checked"] == 0
    assert forged2["derivations_checked"] == 0
    assert len(forged2["failures"]) == 1

    cert0 = report("cert0")
    assert cert0["solutions_checked"] == 0  # infeasibility claim: nothing to check
    assert cert0["derivations_checked"] == 11


# --- the failure stream --------------------------------------------------------


def _asked_ks(monkeypatch) -> list[int]:
    """The indices k that `failures` hands to `der_violation`, in order."""
    asked: list[int] = []
    real = checker.der_violation

    def counting(problem, certificate, asets, k):
        asked.append(k)
        return real(problem, certificate, asets, k)

    monkeypatch.setattr(checker, "der_violation", counting)
    return asked


@pytest.mark.parametrize("forgery", sorted(gen.FORGERIES))
def test_check_evaluates_no_derivation_past_the_first_failure(
    forgery, tmp_path, monkeypatch, capsys
):
    """Plain `check` stops at its first failure: no derivation at all
    after a failing solution point, none past k after a failing C_k, and
    every one when only the final obligation fails.  `--diagnose` asks
    about every derivation."""
    spec = gen.Spec(n=6, m=12, derivations=60, kind="optimal", split_depth=3)
    model = gen.build(spec, 1)
    text, expected = gen.render(model, forgery, 1)
    path = tmp_path / f"{forgery}.vipr"
    path.write_bytes(text)
    every_k = list(range(model.m + 1, len(model.rows) + 1))
    asked = _asked_ks(monkeypatch)

    assert main(["check", str(path)]) == 1
    headline = capsys.readouterr().out.splitlines()[0]
    assert headline.startswith(f"INVALID {expected.location} {expected.predicate} ")
    if expected.area == "sol":
        assert asked == []
    elif expected.area == "block":
        assert expected.k < every_k[-1]  # the forgery is mid-certificate
        assert asked == every_k[: every_k.index(expected.k) + 1]
    else:
        assert asked == every_k

    asked.clear()
    assert main(["check", str(path), "--diagnose"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == headline
    assert asked == every_k


def test_check_evaluates_no_point_and_no_replay_past_the_first_failure(
    tmp_path, monkeypatch, capsys
):
    """A failing first point is the verdict: plain `check` tests no other
    point and never replays A(d); `--diagnose` tests every point and
    replays A(d) once, for the final obligation."""
    model = gen.build(gen.Spec(n=6, m=12, derivations=40, kind="optimal", split_depth=3), 1)
    problem, certificate = parse_certificate(gen.render(model, None, 1)[0])
    coords = lhs(certificate.sol[0].coords)
    j = min(problem.int_vars)
    coords[j] = coords.get(j, 0) + Rational(1, 2)
    sol = (point("half", coords), *certificate.sol)
    assert len(sol) > 2
    forged = Certificate(rtp=certificate.rtp, sol=sol, der=certificate.der)
    path = tmp_path / "half.vipr"
    path.write_text(serialize_certificate(problem, forged))
    calls = {"phi_feas": 0, "compute_assumption_sets": 0}

    def counted(name):
        real = getattr(checker, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(checker, name, counting)

    counted("phi_feas")
    counted("compute_assumption_sets")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.startswith("INVALID Sol(half) feas ")
    assert calls == {"phi_feas": 1, "compute_assumption_sets": 0}

    calls.update(phi_feas=0)
    assert main(["check", str(path), "--diagnose"]) == 1
    assert capsys.readouterr().out.startswith("INVALID Sol(half) feas ")
    assert calls == {"phi_feas": len(sol), "compute_assumption_sets": 1}


def test_check_certificate_is_the_first_failure_of_the_stream():
    """On the fixtures, their mutants and a generated forgery of every kind
    on every relation kind, the verdict is the stream's first item."""
    rng = random.Random(20261020)
    cases = [(name, load_fixture(name)) for name in CORPUS]
    cases += [(f"{name}+mut{i}", mutated_variant(name, rng)) for i in range(25) for name in CORPUS]
    for kind in gen.KINDS:
        model = gen.build(gen.Spec(n=6, m=12, derivations=40, kind=kind, split_depth=3), 2)
        for forgery in [None, *forgeries_for(kind)]:
            text, _ = gen.render(model, forgery, 2)
            cases.append((f"{kind}+{forgery}", parse_certificate(text)))
    invalid = 0
    for label, (problem, certificate) in cases:
        try:
            flags = RtpFlags.of(problem, certificate)
        except EmptyConstraintSystem:
            with pytest.raises(EmptyConstraintSystem):
                check_certificate(problem, certificate)
            continue
        stream = list(failures(problem, certificate, flags))
        assert check_certificate(problem, certificate) == (stream or [Verdict.ok()])[0], label
        invalid += bool(stream)
    assert invalid >= len(cases) // 2, (invalid, len(cases))


# --- permissiveness ----------------------------------------------------------


def _expr(j, c=1):
    return {j: Rational(c)}


def test_unsplit_labels_need_not_be_live_assumptions():
    # l1 is not in A(C_i1); unsplitting is redundant but accepted
    problem = Problem(
        1,
        ("x",),
        frozenset({1}),
        Sense.MIN,
        objective({}),
        (constraint("C1", _expr(1), Sign.GEQ, Rational(1)),),
    )
    der = (
        DerivedConstraint(constraint("A1", _expr(1), Sign.LEQ, Rational(0)), Reason.ASM),
        DerivedConstraint(constraint("A2", _expr(1), Sign.GEQ, Rational(1)), Reason.ASM),
        DerivedConstraint(
            constraint("L1", _expr(1), Sign.GEQ, Rational(1)),
            Reason.LIN,
            multipliers({1: Rational(1)}),
        ),
        DerivedConstraint(
            constraint("U1", _expr(1), Sign.GEQ, Rational(1)),
            Reason.UNS,
            Unsplit(4, 2, 4, 3),
        ),
    )
    certificate = Certificate(Rtp.make_range(None, None), (), der)
    # A(4) is empty, so l1=2 is certainly not in it
    assert assumption_set_at(problem, certificate, 4) == frozenset()
    assert check_certificate(problem, certificate).valid


def test_assumption_need_not_belong_to_any_split_disjunction():
    # a lone asm constraint of arbitrary shape is fine
    problem = Problem(
        1,
        ("x",),
        frozenset(),
        Sense.MIN,
        objective({}),
        (constraint("C1", _expr(1), Sign.GEQ, Rational(0)),),
    )
    der = (
        DerivedConstraint(
            constraint("A1", _expr(1, 7), Sign.LEQ, Rational(22, 7)), Reason.ASM
        ),
    )
    certificate = Certificate(Rtp.make_range(None, None), (), der)
    assert check_certificate(problem, certificate).valid


def test_forward_unsplit_reference_is_invalid_not_a_crash():
    problem = Problem(
        1,
        ("x",),
        frozenset({1}),
        Sense.MIN,
        objective({}),
        (constraint("C1", _expr(1), Sign.GEQ, Rational(1)),),
    )
    der = (
        DerivedConstraint(
            constraint("U1", _expr(1), Sign.GEQ, Rational(1)),
            Reason.UNS,
            Unsplit(2, 2, 2, 2),  # refers to itself
        ),
    )
    certificate = Certificate(Rtp.make_range(None, None), (), der)
    verdict = check_certificate(problem, certificate)
    assert not verdict.valid
    assert verdict.predicate_id == "uns-index"


def test_certificates_valid_by_construction_are_accepted():
    # guards against over-strictness: randomly assembled but provably
    # correct derivation chains must all pass
    import random

    from conftest import random_valid_certificate

    rng = random.Random(777)
    for case in range(300):
        problem, certificate = random_valid_certificate(rng)
        verdict = check_certificate(problem, certificate)
        assert verdict.valid, (case, verdict)


def test_min_sense_lower_bound_final_obligation():
    # minimization closing branch: C_d dominates objective >= lb
    problem = Problem(
        1,
        ("x",),
        frozenset({1}),
        Sense.MIN,
        objective({1: Rational(1)}),
        (constraint("C1", {1: Rational(1)}, Sign.GEQ, Rational(2)),),
    )
    der = (
        DerivedConstraint(
            constraint("D1", {1: Rational(1)}, Sign.GEQ, Rational(2)),
            Reason.LIN,
            multipliers({1: Rational(1)}),
        ),
    )
    good = Certificate(Rtp.make_range(Rational(2), None), (), der)
    assert check_certificate(problem, good).valid
    # claiming a stronger bound than derived must fail at the final step
    bad = Certificate(Rtp.make_range(Rational(3), None), (), der)
    verdict = check_certificate(problem, bad)
    assert not verdict.valid and verdict.predicate_id == "der-final"


def test_inverted_range_makes_both_obligations_active():
    # lb > ub is representable; it just demands an unachievable witness
    problem = Problem(
        1,
        ("x",),
        frozenset({1}),
        Sense.MIN,
        objective({1: Rational(1)}),
        (constraint("C1", {1: Rational(1)}, Sign.GEQ, Rational(2)),),
    )
    der = (
        DerivedConstraint(
            constraint("D1", {1: Rational(1)}, Sign.GEQ, Rational(2)),
            Reason.LIN,
            multipliers({1: Rational(1)}),
        ),
    )
    two = point("p", {1: Rational(2)})
    inverted = Certificate(Rtp.make_range(Rational(2), Rational(1)), (two,), der)
    verdict = check_certificate(problem, inverted)
    assert not verdict.valid
    assert verdict.predicate_id == "sol-bound"  # no point reaches <= 1
    achievable = Certificate(Rtp.make_range(Rational(2), Rational(2)), (two,), der)
    assert check_certificate(problem, achievable).valid


def test_long_chain_first_failure_is_localized():
    x_ge_one = constraint("C1", {1: Rational(1)}, Sign.GEQ, Rational(1))
    problem = Problem(
        1, ("x",), frozenset({1}), Sense.MIN, objective({1: Rational(1)}), (x_ge_one,)
    )
    der = tuple(
        DerivedConstraint(
            constraint(f"D{k}", {1: Rational(1)}, Sign.GEQ, Rational(1)),
            Reason.LIN,
            multipliers({k - 1: Rational(1)}),
        )
        for k in range(2, 402)
    )
    certificate = Certificate(Rtp.make_range(Rational(1), None), (), der)
    assert check_certificate(problem, certificate).valid

    # poison one multiplier in the middle: the failure is found there
    broken = list(der)
    broken[200] = DerivedConstraint(
        broken[200].constraint, Reason.LIN, multipliers({1: Rational(-1)})
    )
    poisoned = Certificate(certificate.rtp, (), tuple(broken))
    verdict = check_certificate(problem, poisoned)
    assert not verdict.valid and str(verdict.location) == "Der(202)"


def test_sol_reasoning_with_empty_solution_list_fails_naturally():
    problem = Problem(
        1,
        ("x",),
        frozenset(),
        Sense.MAX,
        objective(_expr(1)),
        (constraint("C1", _expr(1), Sign.LEQ, Rational(1)),),
    )
    der = (
        DerivedConstraint(constraint("B", _expr(1), Sign.LEQ, Rational(1)), Reason.SOL),
    )
    certificate = Certificate(Rtp.make_range(None, None), (), der)
    verdict = check_certificate(problem, certificate)
    assert not verdict.valid and verdict.predicate_id == "sol-domination"


# `cli` counts the CPUs on its own, so that it imports no package module
# before `verify`'s workers start; both counts must agree
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
@pytest.mark.parametrize("module", ["checker", "cli"])
def test_default_jobs_counts_the_cpus_this_process_may_run_on(module):
    probe = (
        "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        f"from viprcert.{module} import default_jobs; print(default_jobs())"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "1"


@pytest.mark.parametrize("default_jobs", [default_jobs, cli_default_jobs], ids=["checker", "cli"])
def test_default_jobs_falls_back_to_the_cpu_count(default_jobs, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert default_jobs() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_jobs() == 1
