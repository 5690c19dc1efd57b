from __future__ import annotations

import random
import re
import sys
import threading

import pytest

from conftest import CORPUS, SOLVER_COMMAND, load_fixture, random_certificate

from viprcert.checker import RtpFlags, check_certificate, compute_assumption_sets, sol_violations
from viprcert.model import Reason, constraint_at
from viprcert.smteval import _tokens, run_script
from viprcert.smtgen import (
    Aggregate,
    EmissionPlan,
    SolverSpawnError,
    der_constraint_expr,
    dispatch,
    emit,
)
import io


def _emit_fixture(name, out_dir, block_size=None, workers=1):
    problem, certificate = load_fixture(name)
    asets = compute_assumption_sets(problem, certificate)
    plan = EmissionPlan.create(problem, certificate, block_size=block_size, workers=workers)
    return emit(problem, certificate, asets, plan, out_dir)


def test_plan_block_partition():
    problem, certificate = load_fixture("cert0")  # |D| = 11, m = 3
    plan = EmissionPlan.create(problem, certificate, block_size=3)
    assert plan.blocks == ((4, 6), (7, 9), (10, 12), (13, 14))
    default = EmissionPlan.create(problem, certificate, workers=4)
    assert default.block_size == 3  # ceil(11 / 4)
    assert default.blocks[0] == (4, 6) and default.blocks[-1] == (13, 14)
    # blocks are consecutive and cover [m+1, d]
    flattened = [k for first, last in default.blocks for k in range(first, last + 1)]
    assert flattened == list(range(4, 15))
    # one block per worker, no one-derivation remainder block
    halves = EmissionPlan.create(problem, certificate, workers=2)
    assert halves.blocks == ((4, 9), (10, 14))
    # more workers than derivations: block size clamps at 1
    tiny = EmissionPlan.create(problem, certificate, workers=64)
    assert tiny.block_size == 1 and len(tiny.blocks) == 11


def test_plan_empty_derivations():
    problem, certificate = load_fixture("forged2")
    plan = EmissionPlan.create(problem, certificate, workers=8)
    assert plan.blocks == ()


def test_emit_file_counts(tmp_path):
    files = _emit_fixture("cert0", tmp_path / "a", block_size=3)
    assert len(files) == 6  # sol + 4 blocks + final
    assert [f.kind for f in files] == ["sol", "block", "block", "block", "block", "final"]
    assert files[1].label == "block[4..6]"

    files = _emit_fixture("forged2", tmp_path / "b")
    assert [f.kind for f in files] == ["sol", "final"]


def test_emitted_files_are_ground_and_exact(tmp_path):
    for name in ("cert0", "forged1", "forged2", "manipulated1"):
        for emitted in _emit_fixture(name, tmp_path / name):
            text = emitted.path.read_text()
            assert "declare" not in text
            assert text.startswith("(set-logic ALL)\n(assert ")
            assert text.endswith("\n(check-sat)\n")
            assert text.count("(assert ") == 1
            # rationals appear as numerals or (/ p q), never in decimal notation
            assert "." not in text


def test_negative_rationals_use_the_negated_form(tmp_path):
    files = _emit_fixture("cert0", tmp_path / "neg", block_size=1)
    text = "".join(f.path.read_text() for f in files)
    assert "(- (/ 1 4))" in text  # the -1/4 multiplier
    assert "(- 4)" in text  # the -4 coefficient
    assert "(/ 14 3)" in text
    assert re.search(r"-\d", text) is None  # negative literals never appear bare


def _tree(text: str):
    """One term as nested lists of its tokens."""
    stack: list[list] = [[]]
    for token in _tokens(text):
        if token == "(":
            stack.append([])
        elif token == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(token)
    ((node,),) = stack
    return node


def _atoms(node) -> list[str]:
    if isinstance(node, str):
        return [node]
    return [atom for operand in node for atom in _atoms(operand)]


def test_each_combined_sum_is_bound_once():
    from conftest import random_valid_certificate

    rng = random.Random(2718)
    models = [load_fixture(name) for name in CORPUS]
    models += [random_valid_certificate(rng) for _ in range(60)]
    checked = 0
    for problem, certificate in models:
        for k, derived in enumerate(certificate.der, start=problem.m + 1):
            if derived.reason not in (Reason.LIN, Reason.RND):
                continue
            expression = der_constraint_expr(problem, certificate, k)
            if expression in ("true", "false"):
                continue
            node = _tree(expression)
            assert node[0] == "let" and len(node) == 3, expression
            _, bindings, body = node
            support = set()
            for i in derived.data.terms:
                support |= set(constraint_at(problem, certificate, i).terms)
            names = [name for name, _ in bindings]
            assert names == [f"a{j}" for j in sorted(support)] + ["b"], expression
            body_atoms = _atoms(body)
            # the body refers to every sum by name and writes none out again
            assert set(names) <= set(body_atoms), expression
            assert "let" not in body_atoms and "*" not in body_atoms, expression
            checked += 1
    assert checked > 100


def test_emission_is_deterministic(tmp_path):
    first = _emit_fixture("manipulated1", tmp_path / "x", block_size=2)
    second = _emit_fixture("manipulated1", tmp_path / "y", block_size=2)
    for a, b in zip(first, second):
        assert a.path.name == b.path.name
        assert a.path.read_bytes() == b.path.read_bytes()


def test_dispatch_agreement_on_fixtures(tmp_path):
    for name, expect in (
        ("cert0", Aggregate.VALID),
        ("manipulated1", Aggregate.VALID),
        ("forged1", Aggregate.INVALID),
        ("forged2", Aggregate.INVALID),
    ):
        files = _emit_fixture(name, tmp_path / name, block_size=3)
        result = dispatch(files, SOLVER_COMMAND, jobs=1, timeout_s=120)
        assert result.aggregate is expect, name


def test_dispatch_early_exit_cancels_pending(tmp_path):
    files = _emit_fixture("forged1", tmp_path / "f1", block_size=1)
    result = dispatch(files, SOLVER_COMMAND, jobs=1, timeout_s=120)
    statuses = [o.status for o in result.outcomes]
    assert "unsat" in statuses
    assert statuses[-1] == "cancelled"  # the final file comes after the bad block
    assert result.aggregate is Aggregate.INVALID


def test_dispatch_reports_files_after_the_first_unsat_one_as_cancelled(tmp_path):
    # with two workers the sat file starts alongside the unsat one and may
    # finish first; it is still reported cancelled, on every run
    unsat, sat = tmp_path / "a.smt2", tmp_path / "b.smt2"
    unsat.write_text("(set-logic ALL)\n(assert false)\n(check-sat)\n")
    sat.write_text("(set-logic ALL)\n(assert true)\n(check-sat)\n")
    runs = {dispatch([unsat, sat], SOLVER_COMMAND, jobs=2, timeout_s=120) for _ in range(4)}
    assert len(runs) == 1
    (result,) = runs
    assert [o.status for o in result.outcomes] == ["unsat", "cancelled"]
    assert result.aggregate is Aggregate.INVALID


def test_dispatch_spawn_error(tmp_path):
    files = _emit_fixture("forged2", tmp_path / "s")
    with pytest.raises(SolverSpawnError):
        dispatch(files, "/nonexistent/solver {}", jobs=1)


def test_two_workers_raise_the_spawn_error_once_both_stopped(tmp_path):
    files = _emit_fixture("forged1", tmp_path / "s", block_size=1)
    before = threading.active_count()
    with pytest.raises(SolverSpawnError):
        dispatch(files, "/nonexistent/solver {}", jobs=2)
    assert threading.active_count() == before
    with pytest.raises(ValueError):  # shlex: no closing quotation
        dispatch(files, "'/nonexistent/solver {}", jobs=2)
    with pytest.raises(ValueError):
        dispatch(files, SOLVER_COMMAND, jobs=0)
    assert threading.active_count() == before


def test_many_workers_run_every_file_once_in_order(tmp_path):
    """More workers than cores, switching threads as often as the
    interpreter allows: a lost update of the shared index iterator would
    run a file twice or never."""
    log = tmp_path / "ran.log"
    paths = []
    for i in range(40):
        paths.append(tmp_path / f"f{i:02d}.smt2")
        paths[-1].write_text("(check-sat)\n")
    solver = f"sh -c 'echo \"$0\" >> {log}; echo sat' {{}}"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = dispatch(paths, solver, jobs=8, timeout_s=60)
    finally:
        sys.setswitchinterval(interval)
    assert [(o.path, o.status) for o in result.outcomes] == [(p, "sat") for p in paths]
    assert sorted(log.read_text().split()) == [str(p) for p in paths]


def test_two_workers_cancel_what_follows_an_unsat_first_block(tmp_path):
    # forged1's one derivation fails, so its block is unsat; the final
    # file may start beside it and is still reported cancelled
    files = _emit_fixture("forged1", tmp_path / "b", workers=2)
    assert [f.kind for f in files] == ["sol", "block", "final"]
    for _ in range(3):
        result = dispatch(files, SOLVER_COMMAND, jobs=2, timeout_s=120)
        assert [o.status for o in result.outcomes] == ["sat", "unsat", "cancelled"]
        assert result.aggregate is Aggregate.INVALID


def test_dispatch_timeout_is_never_valid(tmp_path):
    files = _emit_fixture("forged2", tmp_path / "t")
    import shlex, sys

    sleeper = f"{shlex.quote(sys.executable)} -c 'import time; time.sleep(30)'"
    result = dispatch(files[:1], sleeper, jobs=1, timeout_s=0.3)
    assert result.outcomes[0].status == "timeout"
    assert result.aggregate is Aggregate.ERROR


@pytest.mark.parametrize("seconds", [float("inf"), float("nan"), 0, -1, 3e6])
def test_dispatch_refuses_a_timeout_outside_its_range(seconds, tmp_path):
    files = _emit_fixture("forged2", tmp_path / "f")
    import shlex, sys

    ran = tmp_path / "ran"
    solver = tmp_path / "solver.py"
    solver.write_text(f"open({str(ran)!r}, 'w')\nprint('sat')\n")
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(solver))}"
    with pytest.raises(ValueError, match=r"\(0, 1e6\]"):
        dispatch(files, command, jobs=2, timeout_s=seconds)
    assert not ran.exists()  # no solver started
    # the same command does run once the timeout is in range
    assert dispatch(files[:1], command, jobs=1, timeout_s=60).outcomes[0].status == "sat"
    assert ran.exists()


def test_dispatch_unparseable_output_is_an_error(tmp_path):
    files = _emit_fixture("forged2", tmp_path / "u")
    result = dispatch(files[:1], "/bin/echo hello from", jobs=1)
    assert result.outcomes[0].status == "error"
    assert result.aggregate is Aggregate.ERROR


def test_dispatch_nonzero_exit_is_an_error_even_after_sat(tmp_path):
    files = _emit_fixture("forged2", tmp_path / "x")
    import shlex, sys

    liar = f"{shlex.quote(sys.executable)} -c 'print(\"sat\"); raise SystemExit(3)'"
    result = dispatch(files[:1], liar, jobs=1)
    assert result.outcomes[0].status == "error"
    assert result.outcomes[0].detail.startswith("exit 3")
    assert result.aggregate is Aggregate.ERROR


def test_solver_command_placeholder_and_append(tmp_path):
    files = _emit_fixture("forged2", tmp_path / "p")
    with_placeholder = dispatch(files, SOLVER_COMMAND, jobs=1)
    appended = dispatch(files, SOLVER_COMMAND.replace(" {}", ""), jobs=1)
    assert [o.status for o in with_placeholder.outcomes] == [
        o.status for o in appended.outcomes
    ]


def _evaluated_aggregate(files) -> bool:
    """Evaluate emitted scripts in-process; True iff all are sat."""
    verdicts = []
    for emitted in files:
        verdicts.append(run_script(emitted.path.read_text(), out=io.StringIO()))
    return all(verdicts)


def _fold_everything(problem, certificate, asets, plan, out_dir):
    """Reference emission with full constant folding: every file asserts
    the literal truth value the native checker computed."""
    from pathlib import Path

    flags = RtpFlags.of(problem, certificate)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def write(name, value: bool):
        path = out / name
        path.write_text(
            f"(set-logic ALL)\n(assert {'true' if value else 'false'})\n(check-sat)\n"
        )
        written.append(path)

    write("sol.smt2", not sol_violations(problem, certificate, flags))
    from viprcert.checker import der_violation, final_violation

    for first_k, last_k in plan.blocks:
        ok = all(
            der_violation(problem, certificate, asets, k) is None
            for k in range(first_k, last_k + 1)
        )
        write(f"der_{first_k}_{last_k}.smt2", ok)
    write("final.smt2", final_violation(problem, certificate, asets, flags) is None)
    return written


def test_valid_by_construction_certificates_are_all_sat(tmp_path):
    from conftest import random_valid_certificate

    rng = random.Random(4321)
    for case in range(150):
        problem, certificate = random_valid_certificate(rng)
        asets = compute_assumption_sets(problem, certificate)
        plan = EmissionPlan.create(problem, certificate, block_size=rng.choice([1, 3]))
        files = emit(problem, certificate, asets, plan, tmp_path / f"v{case}")
        assert _evaluated_aggregate(files), f"case {case}"


def test_mutants_of_valid_certificates_keep_routes_in_agreement(tmp_path):
    # perturb correct certificates right at the validity boundary; the
    # native verdict and the evaluated formula must flip together
    from conftest import mutate_model, random_valid_certificate
    from viprcert.parser import parse_certificate, serialize_certificate

    rng = random.Random(8888)
    flipped = 0
    for case in range(120):
        problem, certificate = random_valid_certificate(rng)
        problem, certificate = mutate_model(problem, certificate, rng)
        problem, certificate = parse_certificate(
            serialize_certificate(problem, certificate)
        )
        native = check_certificate(problem, certificate).valid
        flipped += not native
        asets = compute_assumption_sets(problem, certificate)
        plan = EmissionPlan.create(problem, certificate, block_size=rng.choice([1, 2]))
        files = emit(problem, certificate, asets, plan, tmp_path / f"mv{case}")
        assert _evaluated_aggregate(files) == native, f"case {case}"
    assert flipped > 30  # the mutations do land on semantic content


def test_symbolic_emission_matches_full_constant_folding(tmp_path):
    rng = random.Random(1234)
    for case in range(100):
        problem, certificate = random_certificate(rng)
        asets = compute_assumption_sets(problem, certificate)
        plan = EmissionPlan.create(problem, certificate, block_size=rng.choice([1, 2, 3]))
        symbolic = emit(problem, certificate, asets, plan, tmp_path / f"s{case}")
        symbolic_ok = _evaluated_aggregate(symbolic)
        folded = _fold_everything(problem, certificate, asets, plan, tmp_path / f"f{case}")
        folded_ok = all(run_script(p.read_text(), out=io.StringIO()) for p in folded)
        assert symbolic_ok == folded_ok, f"case {case}"
        # and both agree with the native verdict
        assert symbolic_ok == check_certificate(problem, certificate).valid, f"case {case}"
