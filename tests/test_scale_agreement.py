"""Native/SMT agreement on generated certificates of about 150 and about
2000 derivations.

The certificates come from the benchmark's generator (`perfbench/gen.py`),
which builds them without this package and knows in advance where a forged
certificate first fails.  Every relation kind is covered, valid and with
each forgery that applies to it.
"""

from __future__ import annotations

import importlib.util
import io
import sys
from pathlib import Path

import pytest

from viprcert.checker import check_certificate, compute_assumption_sets
from viprcert.parser import parse_certificate
from viprcert.smteval import run_script
from viprcert.smtgen import EmissionPlan, emit

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
