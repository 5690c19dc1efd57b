"""Native/SMT agreement on generated certificates of about 40, 150 and
about 2000 derivations.

The certificates come from the benchmark's generator (`perfbench/gen.py`),
which builds them without this package and knows in advance where a forged
certificate first fails.  Every relation kind is covered, valid and with
each forgery that applies to it, and with random bumps of the derivations.
"""

from __future__ import annotations

import importlib.util
import io
import random
import re
import sys
from pathlib import Path

import pytest

from viprcert.checker import check_certificate, failures
from viprcert.parser import ParseError, parse_certificate
from viprcert.rational import format_rational, parse_rational
from viprcert.smteval import run_script
from viprcert.smtgen import EmissionPlan, emit
from viprcert.spec import RtpFlags, compute_assumption_sets

_GEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
_spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN_PATH)
gen = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

SEEDS = (1, 2)


def forgeries_for(kind: str) -> list:
    """The generator's forgeries that apply to a relation kind: solution
    forgeries need listed points, a final forgery a derived bound."""
    kinds = ["lin", "rnd", "uns", "split"]
    if kind != "infeas":
        kinds += ["soldom", "feas"]
    if kind in ("lower", "upper", "optimal"):
        kinds.append("final")
    return kinds


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", gen.KINDS)
def test_native_and_smt_routes_agree_at_scale(kind, seed, tmp_path):
    spec = gen.Spec(n=8, m=16, derivations=150, kind=kind, split_depth=3)
    model = gen.build(spec, seed)
    assert set(model.reasons) >= {"asm", "lin", "rnd", "uns"}
    for forgery in [None, *forgeries_for(kind)]:
        text, expected = gen.render(model, forgery, seed)
        problem, certificate = parse_certificate(text)
        label = f"{kind} seed {seed} forgery {forgery}"

        verdict = check_certificate(problem, certificate)
        assert verdict.valid == expected.valid, label
        if not expected.valid:
            assert str(verdict.location) == expected.location, label
            assert verdict.predicate_id == expected.predicate, label

        asets = compute_assumption_sets(problem, certificate)
        plan = EmissionPlan.create(problem, certificate, block_size=16)
        files = emit(problem, certificate, asets, plan, tmp_path / f"{forgery}")
        unsat = [f for f in files if not run_script(f.path.read_text(), out=io.StringIO())]
        if expected.valid:
            assert unsat == [], label
            continue
        assert len(unsat) == 1, label
        (failed,) = unsat
        assert failed.kind == expected.area, label
        if failed.kind == "block":
            assert failed.first_k <= expected.k <= failed.last_k, label


@pytest.mark.parametrize("forgery", [None, "rnd"])
def test_native_and_smt_routes_agree_at_benchmark_scale(forgery, tmp_path):
    # the shape of the benchmark's smt-medium certificates
    spec = gen.Spec(n=50, m=150, derivations=2000, kind="optimal", split_depth=8)
    seed = 1
    text, expected = gen.render(gen.build(spec, seed), forgery, seed)
    problem, certificate = parse_certificate(text)
    assert len(certificate.der) >= 2000

    verdict = check_certificate(problem, certificate)
    assert verdict.valid == expected.valid
    if not expected.valid:
        assert str(verdict.location) == expected.location
        assert verdict.predicate_id == expected.predicate

    asets = compute_assumption_sets(problem, certificate)
    plan = EmissionPlan.create(problem, certificate, block_size=250)
    files = emit(problem, certificate, asets, plan, tmp_path)
    unsat = [f for f in files if not run_script(f.path.read_text(), out=io.StringIO())]
    if expected.valid:
        assert unsat == []
        return
    assert [f.kind for f in unsat] == ["block"]
    assert unsat[0].first_k <= expected.k <= unsat[0].last_k


def _der_bumps(text: str, rng: random.Random, count: int):
    """`count` mutants of `text`, each with one numeric token of the DER
    section raised by 1; the trailing index attribute is never bumped."""
    lines = text.split("\n")
    start = next(i for i, line in enumerate(lines) if line.startswith("DER ")) + 1
    positions = [
        (li, ti)
        for li in range(start, len(lines))
        for ti, token in enumerate(lines[li].split()[:-1])
        if ti >= 2 and re.fullmatch(r"-?\d+(/\d+)?", token)
    ]
    for li, ti in rng.sample(positions, count):
        tokens = lines[li].split()
        tokens[ti] = format_rational(parse_rational(tokens[ti]) + 1)
        yield "\n".join([*lines[:li], " ".join(tokens), *lines[li + 1 :]])


def _native_area(failure) -> object:
    """The file of `emit --block-size 1` that must come back unsat for a
    failure `check --diagnose` reports."""
    location = str(failure.location)
    if location.startswith("Der("):
        return ("block", int(location[4:-1]))
    if location.startswith("Sol(") or failure.predicate_id == "sol-bound":
        return "sol"
    return "final"  # Final der-final


def test_native_locations_are_the_unsat_files_at_block_size_1(tmp_path):
    """Every location `check --diagnose` reports, and only those, has its
    one-derivation file (or the solution or final file) come back unsat."""
    parsed = invalid = several = 0
    for kind in gen.KINDS:
        for seed in SEEDS:
            spec = gen.Spec(n=6, m=12, derivations=40, kind=kind, split_depth=3)
            text = gen.render(gen.build(spec, seed), None, seed)[0].decode()
            rng = random.Random(f"{kind}:{seed}")
            for i, mutant in enumerate(_der_bumps(text, rng, 6)):
                try:
                    problem, certificate = parse_certificate(mutant)
                except ParseError:
                    continue
                flags = RtpFlags.of(problem, certificate)
                native = {_native_area(f) for f in failures(problem, certificate, flags)}
                asets = compute_assumption_sets(problem, certificate)
                plan = EmissionPlan.create(problem, certificate, block_size=1)
                files = emit(problem, certificate, asets, plan, tmp_path / f"{kind}{seed}_{i}")
                smt = {
                    ("block", f.first_k) if f.kind == "block" else f.kind
                    for f in files
                    if not run_script(f.path.read_text(), out=io.StringIO())
                }
                assert native == smt, (kind, seed, i)
                parsed += 1
                invalid += bool(native)
                several += len(native) > 1
    assert parsed >= 30 and invalid >= 25 and several >= 10, (parsed, invalid, several)


def _forge(model, text: str, predicate: str) -> tuple[str, str]:
    """`text`, the valid certificate rendered from `model`, with one edit
    the generator does not make, which fails `predicate`; and the location
    that fails it."""
    lines = text.split("\n")
    if predicate == "sol-nonempty":  # infeasibility, yet one point (empty) is listed
        return text.replace("\nSOL 0\n", "\nSOL 1\np0 0\n"), "Sol(p0)"
    if predicate == "sol-bound":  # the witnessed bound past every listed point
        values = [sum(c * p.get(j, 0) for j, c in model.objective.items()) for p in model.points]
        at = next(i for i, line in enumerate(lines) if line.startswith("RTP range "))
        _, _, lower, upper = lines[at].split()
        if model.minimize:
            upper = str(min(values) - 1)
        else:
            lower = str(max(values) + 1)
        lines[at] = f"RTP range {lower} {upper}"
        return "\n".join(lines), "Final"
    # a step that cites itself: the last multiplier index of a lin step, or
    # the first index of an uns step, set to the step's own index
    reason = "lin" if predicate == "prv" else "uns"
    steps = [i for i, line in enumerate(lines) if f" {{ {reason} " in line]
    at = steps[len(steps) // 2]
    tokens = lines[at].split()
    own = tokens[0][1:]  # step dN is constraint N, that is Der(N + 1)
    tokens[tokens.index("}") - 2 if reason == "lin" else tokens.index("{") + 2] = own
    lines[at] = " ".join(tokens)
    return "\n".join(lines), f"Der({int(own) + 1})"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("predicate", ["sol-nonempty", "sol-bound", "prv", "uns-index"])
def test_predicates_the_generator_never_forges_fail_at_one_location(predicate, seed, tmp_path):
    """`check` names the forged location and predicate, and it is the one
    location whose file of `emit --block-size 1` comes back unsat."""
    kinds = {"sol-nonempty": ["infeas"], "sol-bound": ["witness", "optimal"]}
    specs = [
        gen.Spec(n=8, m=16, derivations=150, kind=kind, split_depth=3)
        for kind in kinds.get(predicate, gen.KINDS)
    ]
    # and the shape of the benchmark's smt-medium certificates
    specs.append(gen.Spec(n=50, m=150, derivations=2000, kind=specs[-1].kind, split_depth=8))
    for spec in specs:
        label = (spec.kind, spec.derivations)
        model = gen.build(spec, seed)
        text, location = _forge(model, gen.render(model, None, seed)[0].decode(), predicate)
        problem, certificate = parse_certificate(text)
        verdict = check_certificate(problem, certificate)
        assert (str(verdict.location), verdict.predicate_id) == (location, predicate), label

        asets = compute_assumption_sets(problem, certificate)
        plan = EmissionPlan.create(problem, certificate, block_size=1)
        files = emit(problem, certificate, asets, plan, tmp_path / "-".join(map(str, label)))
        unsat = [
            ("block", f.first_k) if f.kind == "block" else f.kind
            for f in files
            if not run_script(f.path.read_text(), out=io.StringIO())
        ]
        assert unsat == [_native_area(verdict)], label
