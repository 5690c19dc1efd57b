"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s` (or let the full suite
pick it up).  Criterion 9 needs a directory of benchmark certificates
and skips itself when none is configured.
"""

from __future__ import annotations

import io
import os
import random
import re
import time
from pathlib import Path

import pytest

from assumptions import assumption_set_at
from conftest import (
    CORPUS,
    SOLVER_COMMAND,
    fixture_path,
    load_fixture,
    mutated_variant,
)
from oracle import BoxBounds, brute_force
from rows import constraint, lhs, multipliers, rhs

from viprcert.algebra import (
    PseudoConstraint,
    constraint_dominates,
    is_split_disjunction,
    linear_combination,
)
from viprcert.checker import check_certificate, default_jobs
from viprcert.model import Constraint, Sign
from viprcert.parser import ParseError, parse_certificate, serialize_certificate
from viprcert.cli import main as cli_main
from viprcert.rational import Rational, format_rational, parse_rational
from viprcert.smteval import run_script
from viprcert.smtgen import Aggregate, EmissionPlan, dispatch, emit
from viprcert.spec import compute_assumption_sets

TABLE_ASSUMPTIONS = {
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


def _passed(n: int, note: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {note}")


# --- 1: fixture verdicts ------------------------------------------------------


def test_criterion_1_fixture_verdicts(capsys):
    start = time.monotonic()
    code = cli_main(["check", str(fixture_path("manipulated1"))])
    out_m = capsys.readouterr().out
    assert code == 0 and out_m.splitlines()[0] == "VALID"
    assert time.monotonic() - start < 1.0

    start = time.monotonic()
    code = cli_main(["check", str(fixture_path("forged1"))])
    out_1 = capsys.readouterr().out
    assert code == 1
    assert out_1.splitlines()[0].startswith("INVALID Der(5) sol-domination")
    assert time.monotonic() - start < 1.0

    start = time.monotonic()
    code = cli_main(["check", str(fixture_path("forged2"))])
    out_2 = capsys.readouterr().out
    assert code == 1
    assert out_2.splitlines()[0].startswith("INVALID Final der-final")
    # unambiguous: the report says outright that no solution was checked
    assert "solutions checked: 0" in out_2
    assert time.monotonic() - start < 1.0
    with capsys.disabled():
        _passed(1, "manipulated1 VALID, forged1/forged2 INVALID with located causes")


# --- 2: worked-example replay -------------------------------------------------


def test_criterion_2_assumption_table_replay(capsys):
    problem, certificate = load_fixture("cert0")
    assert check_certificate(problem, certificate).valid
    for k, expected in TABLE_ASSUMPTIONS.items():
        assert assumption_set_at(problem, certificate, k) == frozenset(expected), f"A({k})"
    with capsys.disabled():
        _passed(2, "cert0 VALID and assumption sets match the worked example rows 4..14")


# --- 3: native <-> SMT equivalence ---------------------------------------------


def _smt_valid(problem, certificate, block_size, out_dir) -> bool:
    asets = compute_assumption_sets(problem, certificate)
    plan = EmissionPlan.create(
        problem, certificate, block_size=block_size, workers=default_jobs()
    )
    files = emit(problem, certificate, asets, plan, out_dir)
    result = dispatch(files, SOLVER_COMMAND, jobs=2, timeout_s=120)
    assert result.aggregate is not Aggregate.ERROR
    return result.aggregate is Aggregate.VALID


def test_criterion_3_native_smt_equivalence(tmp_path, capsys):
    rng = random.Random(20260809)
    cases = [(name, load_fixture(name)) for name in CORPUS]
    for i in range(100):
        name = CORPUS[i % len(CORPUS)]
        cases.append((f"{name}+mut{i}", mutated_variant(name, rng)))
    for idx, (label, (problem, certificate)) in enumerate(cases):
        native = check_certificate(problem, certificate).valid
        for tag, block_size in (("bs1", 1), ("bs3", 3), ("bsdefault", None)):
            smt = _smt_valid(problem, certificate, block_size, tmp_path / f"{idx}_{tag}")
            assert smt == native, f"{label} {tag}: native={native} smt={smt}"
    with capsys.disabled():
        _passed(3, "verdicts agree on 4 corpus files + 100 mutants x 3 block sizes")


# --- 4: randomized law suites (10^4 each) --------------------------------------


def _random_expr(rng, n=3):
    return {
        j: Rational(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
        for j in range(1, n + 1)
        if rng.random() < 0.6
    }


def _random_constraint(rng, n=3):
    return constraint(
        "r", _random_expr(rng, n), rng.choice(list(Sign)), Rational(rng.randint(-6, 6), rng.choice([1, 1, 2]))
    )


def _reference_dominates(c: Constraint, target: Constraint) -> bool:
    # direct reading of the domination definition's case list; a
    # trivially false constraint dominates everything, where "trivially
    # false" also covers the equality form 0 = b with b != 0 (matching
    # the expanded Boolean evaluation, which is the authoritative one)
    s, b = c.sign, rhs(c)
    if not lhs(c) and (
        (s is Sign.GEQ and b > 0)
        or (s is Sign.LEQ and b < 0)
        or (s is Sign.EQ and b != 0)
    ):
        return True
    if lhs(c) != lhs(target):
        return False
    t, bt = target.sign, rhs(target)
    if t is Sign.GEQ:
        return s in (Sign.GEQ, Sign.EQ) and b >= bt
    if t is Sign.LEQ:
        return s in (Sign.LEQ, Sign.EQ) and b <= bt
    return s is Sign.EQ and b == bt


def _reference_split(ci: Constraint, cj: Constraint, ints) -> bool:
    # unordered pair {a.x <= delta, a.x >= delta + 1} with integral a on
    # the integer support and integral delta
    for lower, upper in ((ci, cj), (cj, ci)):
        if lower.sign is not Sign.LEQ or upper.sign is not Sign.GEQ:
            continue
        if lhs(lower) != lhs(upper):
            continue
        if any(j not in ints or c.denominator != 1 for j, c in lhs(lower).items()):
            continue
        if rhs(lower).denominator != 1:
            continue
        if rhs(upper) == rhs(lower) + 1:
            return True
    return False


def _reference_roundable(c: Constraint, ints) -> bool:
    if c.sign is Sign.EQ:
        return False
    return all(j in ints and v.denominator == 1 for j, v in lhs(c).items())


def _reference_rounding(c: Constraint) -> Constraint:
    if c.sign is Sign.GEQ:
        return constraint(c.name, lhs(c), c.sign, Rational(-((-rhs(c)).__floor__())))
    return constraint(c.name, lhs(c), c.sign, Rational(rhs(c).__floor__()))


def test_criterion_4_randomized_law_suites(capsys):
    rng = random.Random(424242)
    ints = frozenset({1, 2})

    for _ in range(10_000):
        c = _random_constraint(rng)
        t = _random_constraint(rng)
        # reflexivity of domination for definite-sign constraints
        assert constraint_dominates(c, c)
        # absurdities dominate everything
        absurd = constraint("a", {}, Sign.GEQ, Rational(rng.randint(1, 9)))
        assert constraint_dominates(absurd, t)
        # with no flag set, nothing is dominated
        assert not PseudoConstraint(c.scale, c.terms, c.bound, False, False).dominates(t)
        # and the expanded evaluation agrees with the definition's case list
        assert constraint_dominates(c, t) == _reference_dominates(c, t)

    for _ in range(10_000):
        ci = _random_constraint(rng, n=2)
        cj = _random_constraint(rng, n=2)
        forward = is_split_disjunction(ci, cj, ints)
        assert forward == is_split_disjunction(cj, ci, ints)
        assert forward == _reference_split(ci, cj, ints)

    for _ in range(10_000):
        c = _random_constraint(rng, n=2)
        t = _random_constraint(rng, n=2)
        s = c.sign.value
        combination = PseudoConstraint(c.scale, c.terms, c.bound, s >= 0, s <= 0)
        ours = combination.roundable(ints) and combination.rounded_dominates(t)
        reference = _reference_roundable(c, ints) and _reference_dominates(
            _reference_rounding(c), t
        )
        assert ours == reference, (c, t)

    for _ in range(10_000):
        c1 = _random_constraint(rng, n=2)
        c2 = _random_constraint(rng, n=2)
        pool = {1: c1, 2: c2}
        # singleton law
        single = linear_combination(multipliers({1: Rational(1)}), pool.__getitem__)
        assert lhs(single) == lhs(c1) and rhs(single) == rhs(c1)
        s = c1.sign.value
        assert single.geq == (s >= 0) and single.leq == (s <= 0)
        # positive scaling law
        w1 = Rational(rng.randint(-4, 4), rng.choice([1, 2]))
        w2 = Rational(rng.randint(-4, 4), rng.choice([1, 2]))
        scale = Rational(rng.randint(1, 5), rng.choice([1, 2]))
        base = linear_combination(multipliers({1: w1, 2: w2}), pool.__getitem__)
        scaled = linear_combination(
            multipliers({1: w1 * scale, 2: w2 * scale}), pool.__getitem__
        )
        assert lhs(scaled) == {j: v * scale for j, v in lhs(base).items()}
        assert rhs(scaled) == rhs(base) * scale
        assert (scaled.geq, scaled.leq) == (base.geq, base.leq)

    with capsys.disabled():
        _passed(4, "4 x 10^4 randomized law checks, zero failures")


# --- 5: independent brute-force agreement --------------------------------------


def test_criterion_5_oracle_agreement(capsys):
    """Box arguments: for the running example, combining its <= rows
    bounds x1 <= 12/7 and x2 <= 11/14, and the >= row then bounds both
    below by -1, so all feasible points lie inside [-10, 10]^2.  For the
    other two fixtures the problem constraints are themselves bounds
    inside [0, 1]^2."""
    problem0, _ = load_fixture("cert0")
    assert not brute_force(problem0, BoxBounds.uniform(2, -10, 10)).feasible

    problem1, _ = load_fixture("forged1")
    best = brute_force(problem1, BoxBounds.uniform(2, 0, 1))
    assert best.feasible and best.value == 2

    problem2, _ = load_fixture("forged2")
    assert not brute_force(problem2, BoxBounds.uniform(2, 0, 1)).feasible

    # every valid fixture's claimed relation is consistent with the oracle
    for name in CORPUS:
        problem, certificate = load_fixture(name)
        if not check_certificate(problem, certificate).valid:
            continue
        result = brute_force(problem, BoxBounds.uniform(problem.n, -10, 10))
        if certificate.rtp.infeasible:
            assert not result.feasible, name
        else:
            assert result.feasible, name
            if certificate.rtp.lb is not None:
                assert result.value >= certificate.rtp.lb, name
            if certificate.rtp.ub is not None:
                assert result.value <= certificate.rtp.ub, name
    with capsys.disabled():
        _passed(5, "brute force confirms infeasibility/optima behind every valid fixture")


# --- 6: single-token mutation robustness ---------------------------------------

_NUMERIC = re.compile(r"[+-]?\d+(/[+-]?\d+)?\Z")

# Mutating these rhs tokens of cert0.vipr yields certificates that are
# genuinely still valid, so the checker must keep saying VALID:
#   - raising the rhs of the >= problem constraint C1 only strengthens
#     the premise used (with a positive weight) in the first derivation;
#   - raising the rhs of an absurdity-shaped derived constraint 0 >= 1
#     turns it into 0 >= 2, which its combination still dominates (an
#     absurdity dominates everything) and which still dominates 0 >= 1.
# Each such survivor is cross-checked against this package's two other
# routes (brute force on the mutated problem, SMT evaluation).
_EXPECTED_STILL_VALID_LINES = {
    "C1 G",  # problem constraint rhs
    "C4 G",
    "C5 G",
    "C8 G",
    "C9 G",
    "C10 G",
}


def _numeric_token_positions(lines):
    """(line_index, token_index) of every semantic numeric token.

    Skips the trailing index attribute of derivation lines and the
    CON header's second integer: both are round-trip metadata the
    semantics deliberately ignore, so mutating them cannot and must not
    change the verdict.
    """
    positions = []
    in_der = False
    for li, line in enumerate(lines):
        tokens = line.split()
        if not tokens:
            continue
        skip = set()
        if tokens[0] == "DER":
            in_der = True
        elif tokens[0] == "CON":
            skip.add(2)
        elif in_der:
            skip.add(len(tokens) - 1)
        for ti, token in enumerate(tokens):
            if ti in skip:
                continue
            if _NUMERIC.match(token):
                positions.append((li, ti))
    return positions


def test_criterion_6_mutation_robustness(tmp_path, capsys):
    start = time.monotonic()
    base = fixture_path("cert0").read_text()
    lines = base.split("\n")
    positions = _numeric_token_positions(lines)
    assert len(positions) > 50

    still_valid = []
    for li, ti in positions:
        tokens = lines[li].split()
        tokens[ti] = format_rational(parse_rational(tokens[ti]) + 1)
        mutated_lines = lines.copy()
        mutated_lines[li] = " ".join(tokens)
        text = "\n".join(mutated_lines)
        try:
            problem, certificate = parse_certificate(text)
        except ParseError as exc:
            assert exc.line >= 1 and exc.column >= 1
            continue
        verdict = check_certificate(problem, certificate)
        if verdict.valid:
            still_valid.append((li, ti))
            # independent confirmation that acceptance is sound here
            assert certificate.rtp.infeasible
            assert not brute_force(problem, BoxBounds.uniform(2, -10, 10)).feasible
            asets = compute_assumption_sets(problem, certificate)
            plan = EmissionPlan.create(problem, certificate, block_size=4)
            files = emit(problem, certificate, asets, plan, tmp_path / f"m{li}_{ti}")
            assert all(run_script(f.path.read_text(), out=io.StringIO()) for f in files)
        else:
            assert verdict.location is not None

    observed = {" ".join(lines[li].split()[:2]) for li, ti in still_valid}
    assert observed == _EXPECTED_STILL_VALID_LINES
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _passed(
            6,
            f"{len(positions)} single-token mutations: every one INVALID, a located "
            f"ParseError, or one of {len(still_valid)} provably-still-valid rhs bumps "
            f"({elapsed:.1f}s)",
        )


# --- 7: round-trip identity -----------------------------------------------------


def test_criterion_7_round_trip(capsys):
    for name in CORPUS:
        problem, certificate = load_fixture(name)
        text = serialize_certificate(problem, certificate)
        assert parse_certificate(text) == (problem, certificate), name
        reparsed_problem, reparsed_certificate = parse_certificate(text)
        assert [d.legacy_index for d in reparsed_certificate.der] == [
            d.legacy_index for d in certificate.der
        ]
    with capsys.disabled():
        _passed(7, "parse-serialize-parse is the identity on all corpus files")


# --- 8: determinism under parallelism --------------------------------------------


def test_criterion_8_determinism_under_parallelism(tmp_path, capsys):
    for name in CORPUS:
        path = str(fixture_path(name))
        emitted = []
        codes = set()
        for jobs in (1, 4, 8):
            out = tmp_path / name / str(jobs)
            code = cli_main(["emit", path, "--out", str(out), "--block-size", "3", "--jobs", str(jobs)])
            assert code == 0
            emitted.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
            codes.add(cli_main(["verify", path, "--jobs", str(jobs), "--solver", SOLVER_COMMAND]))
        capsys.readouterr()
        assert emitted[0] == emitted[1] == emitted[2], name
        problem, certificate = load_fixture(name)
        assert codes == {0 if check_certificate(problem, certificate).valid else 1}, name
    with capsys.disabled():
        _passed(8, "emitted files and verify exit code identical for jobs in {1, 4, 8}")


# --- 9: optional extended benchmark run ------------------------------------------


def test_criterion_9_optional_benchmark_run(capsys):
    directory = os.environ.get("VIPRCERT_BENCHMARK_DIR", "")
    if not directory:
        directory = str(Path(__file__).parent / "benchmarks")
    bench = Path(directory)
    files = sorted(bench.glob("*.vipr")) if bench.is_dir() else []
    if not files:
        pytest.skip("no benchmark directory with .vipr files configured")
    for path in files:
        assert cli_main(["check", str(path)]) == 0, path.name
        capsys.readouterr()
    with capsys.disabled():
        _passed(9, f"{len(files)} benchmark certificates all VALID")
