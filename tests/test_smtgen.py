from __future__ import annotations

import errno
import os
import random
import re
import select
import shlex
import subprocess
import sys
import threading
import time
from fractions import Fraction
from functools import partial

import pytest

from conftest import CORPUS, SOLVER_COMMAND, all_stopped, load_fixture, random_certificate
from rows import constraint, multipliers, objective

from viprcert.checker import check_certificate, sol_violations
from viprcert.model import (
    Certificate,
    DerivedConstraint,
    Problem,
    Reason,
    Rtp,
    Sense,
    Sign,
    Unsplit,
    constraint_at,
)
from viprcert.smteval import _Reader, _tokens, run_script
from viprcert.smtgen import (
    DEFAULT_BLOCK_CAP,
    Aggregate,
    DispatchResult,
    EmissionPlan,
    SolverSpawnError,
    _Worker,
    bundled_solver_command,
    der_constraint_expr,
    dispatch,
    emit,
)
from viprcert.spec import RtpFlags, compute_assumption_sets
import io


def _emit_fixture(name, out_dir, block_size=None, workers=1):
    problem, certificate = load_fixture(name)
    asets = compute_assumption_sets(problem, certificate)
    plan = EmissionPlan.create(problem, certificate, block_size=block_size, workers=workers)
    return emit(problem, certificate, asets, plan, out_dir)


def _block_sizes(plan):
    return [last - first + 1 for first, last in plan.blocks]


def test_plan_block_partition():
    problem, certificate = load_fixture("cert0")  # |D| = 11, m = 3
    plan = EmissionPlan.create(problem, certificate, block_size=3)
    assert plan.blocks == ((4, 6), (7, 9), (10, 12), (13, 14))
    default = EmissionPlan.create(problem, certificate, workers=4)
    assert max(_block_sizes(default)) == 3  # ceil(11 / 4)
    assert default.blocks[0] == (4, 6) and default.blocks[-1] == (13, 14)
    # blocks are consecutive and cover [m+1, d]
    flattened = [k for first, last in default.blocks for k in range(first, last + 1)]
    assert flattened == list(range(4, 15))
    # one block per worker, no one-derivation remainder block
    halves = EmissionPlan.create(problem, certificate, workers=2)
    assert halves.blocks == ((4, 9), (10, 14))
    # more workers than derivations: block size clamps at 1
    tiny = EmissionPlan.create(problem, certificate, workers=64)
    assert max(_block_sizes(tiny)) == 1 and len(tiny.blocks) == 11
    # past DEFAULT_BLOCK_CAP derivations: max(workers, ceil(n / cap)) blocks
    # whose sizes differ by at most 1
    for copies in (100, 230, 1819):  # n = 1100, 2530, 20009
        large = certificate._replace(der=certificate.der * copies)
        n = len(large.der)
        for workers in (1, 2, 4, 8):
            plan = EmissionPlan.create(problem, large, workers=workers)
            assert len(plan.blocks) == max(workers, -(-n // DEFAULT_BLOCK_CAP)), (n, workers)
            sizes = _block_sizes(plan)
            assert max(sizes) - min(sizes) <= 1 and max(sizes) <= DEFAULT_BLOCK_CAP
            assert sizes[0] == max(sizes)  # the larger blocks first
            flattened = [k for first, last in plan.blocks for k in range(first, last + 1)]
            assert flattened == list(range(problem.m + 1, problem.m + n + 1))


def test_plan_refuses_a_block_size_below_one():
    problem, certificate = load_fixture("cert0")
    for block_size in (0, -3):
        with pytest.raises(ValueError, match="block size must be positive"):
            EmissionPlan.create(problem, certificate, block_size=block_size)


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


def _numeral(node) -> bool:
    """A numeral or a negated one, `7` or `(- 7)`."""
    if isinstance(node, list):
        return len(node) == 2 and node[0] == "-" and _numeral(node[1]) and node[1] != "0"
    return node.isdigit()


def _chains(node) -> int:
    """Check every product and quotient below `node`; the number of
    chained zero tests among its terms."""
    if isinstance(node, str):
        return 0
    head, *operands = node
    if head == "*":  # two literal factors, neither of them 1
        assert len(operands) == 2 and all(map(_numeral, operands)), node
        assert "1" not in operands, node
    elif head == "/":  # an integer quotient with a positive denominator other than 1
        top, bottom = operands
        assert _numeral(top) or top[0] == "*", node
        factors = [bottom] if isinstance(bottom, str) else bottom[1:]
        assert isinstance(bottom, str) or bottom[0] == "*", node
        assert all(f.isdigit() and f not in ("0", "1") for f in factors), node
    chained = head == "=" and operands[0] == "0" and len(operands) > 2
    return chained + sum(map(_chains, operands))


def test_products_are_quotients_and_zero_tests_are_chained(tmp_path):
    files = _emit_fixture("cert0", tmp_path / "neg", block_size=1)
    text = "".join(f.path.read_text() for f in files)
    assert "(/ (* (- 1) 3) 4)" in text  # the -1/4 multiplier times 3: one quotient
    assert "(/ (- 1) 3)" in text  # 1/3 times -1, with the factor 1 dropped
    assert "(+ (/ (* (- 1) (- 4)) 3) (* (- 1) 6) (/ 14 3))" in text  # no `/` over 1
    assert "(= 0 a1 a2)" in text and "(= a1 0)" not in text
    assert "(- (/" not in text and "(* 1 " not in text
    assert re.search(r"-\d", text) is None  # negative literals never appear bare
    from conftest import random_valid_certificate

    rng = random.Random(1618)
    models = [load_fixture(name) for name in CORPUS]
    models += [random_valid_certificate(rng) for _ in range(30)]
    chains = 0
    for i, (problem, certificate) in enumerate(models):
        asets = compute_assumption_sets(problem, certificate)
        plan = EmissionPlan.create(problem, certificate, block_size=1)
        for emitted in emit(problem, certificate, asets, plan, tmp_path / str(i)):
            script = emitted.path.read_text()
            assert re.search(r"-\d", script) is None
            assert re.search(r"\(= a\d+ 0\)", script) is None  # a sum's zero test is chained
            chains += _chains(_tree(script.split("\n")[1]))
    assert chains > 50


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


def _text(node) -> str:
    return node if isinstance(node, str) else "(" + " ".join(map(_text, node)) + ")"


def test_bound_sums_are_the_fraction_reference_combination():
    # each `a<j>` and `b` of a `lin`/`rnd` step, evaluated, is the exact sum
    # the `Fraction` reference combines: the quotients write the same products
    from conftest import random_valid_certificate
    from test_exact_core import reference_combination

    rng = random.Random(3141)
    models = [load_fixture(name) for name in CORPUS]
    models += [random_valid_certificate(rng) for _ in range(60)]
    checked = 0
    for problem, certificate in models:
        resolve = partial(constraint_at, problem, certificate)
        for k, derived in enumerate(certificate.der, start=problem.m + 1):
            if derived.reason not in (Reason.LIN, Reason.RND):
                continue
            expression = der_constraint_expr(problem, certificate, k)
            if expression in ("true", "false"):
                continue
            terms, bound, _, _ = reference_combination(derived.data, resolve)
            _, bindings, _ = _tree(expression)
            for name, term in bindings:
                (value,) = _Reader(_tokens(_text(term) + ")")).terms(1)
                want = bound if name == "b" else terms.get(int(name[1:]), 0)
                assert type(value) in (int, Fraction) and value == want, (k, name, expression)
                checked += 1
    assert checked > 250


def test_index_tests_are_decided_at_emission():
    # no conjunct writes `(< i k)` or `(> k i)` for an index i that C_k cites
    for name in CORPUS:
        problem, certificate = load_fixture(name)
        for k, derived in enumerate(certificate.der, start=problem.m + 1):
            expression = der_constraint_expr(problem, certificate, k)
            cited = derived.data.terms if derived.reason in (Reason.LIN, Reason.RND) else ()
            cited = derived.data if derived.reason is Reason.UNS else cited
            for i in cited:
                assert f"(< {i} {k})" not in expression and f"(> {k} {i})" not in expression


@pytest.mark.parametrize("reason, predicate_id", [(Reason.LIN, "prv"), (Reason.UNS, "uns-index")])
@pytest.mark.parametrize("cited", [2, 3])  # C_2 itself; the later C_3
def test_a_step_citing_no_earlier_constraint_fails_on_both_routes(
    reason, predicate_id, cited, tmp_path
):
    # x >= 1, then C_2 citing C_cited and C_3 = C_1 by `lin`
    geq_1 = partial(constraint, terms={1: Fraction(1)}, sign=Sign.GEQ, rhs=Fraction(1))
    data = multipliers({cited: Fraction(1)}) if reason is Reason.LIN else Unsplit(1, 1, cited, 1)
    problem = Problem(1, ("x",), frozenset({1}), Sense.MIN, objective({}), (geq_1("C1"),))
    der = (
        DerivedConstraint(geq_1("C2"), reason, data),
        DerivedConstraint(geq_1("C3"), Reason.LIN, multipliers({1: Fraction(1)})),
    )
    certificate = Certificate(Rtp.make_range(None, None), (), der)
    verdict = check_certificate(problem, certificate)
    assert (verdict.location, verdict.predicate_id) == ("Der(2)", predicate_id)
    asets = compute_assumption_sets(problem, certificate)
    plan = EmissionPlan.create(problem, certificate, block_size=1)
    files = emit(problem, certificate, asets, plan, tmp_path)
    outcomes = dispatch(files, SOLVER_COMMAND, jobs=1, timeout_s=120).outcomes
    assert [(f.label, o.status) for f, o in zip(files, outcomes)] == [
        ("sol", "sat"),
        ("block[2..2]", "unsat"),
        ("block[3..3]", "cancelled"),
        ("final", "cancelled"),
    ]
    assert files[1].path.read_text() == "(set-logic ALL)\n(assert false)\n(check-sat)\n"


# x in {0, 1}, split on x/2 <= 0 or x/2 >= 1: x/2 is not integral, so the
# split skips x = 1 and its two branches prove nothing about it
NON_INTEGRAL_SPLIT = """VER 1.0 VAR 1 x INT 1 0 OBJ min 0
CON 2 0 C1 G 1 1 0 1 C2 L 1 1 0 1 RTP infeas SOL 0 DER 5
A3 L 0 1 0 1/2 { asm } -1
D4 G 1 0 { lin 2 0 1 2 -2 } -1
A5 G 1 1 0 1/2 { asm } -1
D6 G 1 0 { lin 2 1 -1 4 2 } -1
D7 G 1 0 { uns 3 2 5 4 } -1
"""


def test_a_split_on_a_non_integral_combination_fails_on_both_routes(tmp_path, capsys):
    from viprcert.cli import main

    path = tmp_path / "split.vipr"
    path.write_text(NON_INTEGRAL_SPLIT)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.startswith("INVALID Der(7) uns-disjunction ")
    assert main(["verify", str(path), "--jobs", "2", "--solver", SOLVER_COMMAND]) == 1
    outcomes = [line.split(" ", 1)[1] for line in capsys.readouterr().out.splitlines()[:-1]]
    assert outcomes == [
        "sol sat",
        "block[3..5] sat",
        "block[6..7] unsat",
        "final cancelled earlier file was unsat",
    ]


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
    interpreter allows: a file taken from the queue twice, or never, would
    run twice or never."""
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


@pytest.mark.parametrize("unsat_at", [None, 10])
def test_many_workers_ask_about_each_file_once_it_is_written(unsat_at, tmp_path):
    """The calling thread writes while more solving threads than cores
    take the written files, switching as often as the interpreter
    allows: each file is written once, in order,
    and asked about at most once, only once written (the solver errs on a
    missing file); with an unsat file, the report does not depend on how
    far the writer got."""
    log = tmp_path / "ran.log"
    paths = [tmp_path / f"f{i:02d}.smt2" for i in range(40)]
    written = []

    def write(index):
        written.append(index)
        paths[index].write_text("false\n" if index == unsat_at else "true\n")

    answer = f"echo \"$0\" >> {log}; grep -q true \"$0\" && echo sat || echo unsat"
    solver = f"sh -c 'test -f \"$0\" || exit 7; {answer}' {{}}"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = dispatch(paths, solver, jobs=8, timeout_s=60, write=write)
    finally:
        sys.setswitchinterval(interval)
    statuses = ["sat"] * 40 if unsat_at is None else ["sat"] * 10 + ["unsat"] + ["cancelled"] * 29
    assert [(o.path, o.status) for o in result.outcomes] == list(zip(paths, statuses))
    assert written == list(range(len(written))) and len(written) > (unsat_at or 39)
    asked = log.read_text().split()
    assert sorted(asked) == sorted(set(asked)) and set(asked) <= {str(paths[i]) for i in written}


def _wait_for(condition, seconds):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


def test_the_writer_stops_after_the_first_unsat_answer(tmp_path):
    answered = tmp_path / "answered"
    paths = [tmp_path / f"f{i}.smt2" for i in range(6)]
    written = []

    def write(index):
        if index == 2:  # file 1 is unsat: let its answer come back first
            _wait_for(answered.exists, 30)
            time.sleep(1)
        written.append(index)
        paths[index].write_text("false\n" if index == 1 else "true\n")

    answer = f"if grep -q true \"$0\"; then echo sat; else touch {answered}; echo unsat; fi"
    result = dispatch(paths, f"sh -c '{answer}' {{}}", jobs=2, timeout_s=60, write=write)
    assert _statuses(result) == ["sat", "unsat"] + ["cancelled"] * 4
    assert written == [0, 1, 2]


def test_the_writer_stops_once_a_solver_cannot_start(tmp_path):
    paths = [tmp_path / f"f{i}.smt2" for i in range(6)]
    written = []

    def write(index):
        if index == 1:
            time.sleep(1)  # meanwhile, file 0's solver fails to start
        written.append(index)
        paths[index].write_text("true\n")

    before = threading.active_count()
    with pytest.raises(SolverSpawnError):
        dispatch(paths, "/nonexistent/solver {}", jobs=2, timeout_s=60, write=write)
    assert written == [0, 1]
    assert threading.active_count() == before


def test_a_write_that_raises_at_once_stops_every_thread_and_worker(tmp_path, started, monkeypatch):
    """Every thread is waiting on the queue when the first write raises:
    the one `None` each is put there in the end wakes it."""
    ask, asked = _Worker.ask, []

    def logged_ask(worker, path, timeout_s):
        asked.append(path)
        return ask(worker, path, timeout_s)

    def write(index):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(_Worker, "ask", logged_ask)
    paths = _scripts(tmp_path, ["true"] * 8)
    before = threading.active_count()
    with pytest.raises(OSError, match="No space left"):
        dispatch(paths, SOLVER_COMMAND, jobs=4, timeout_s=120, write=write)
    assert asked == [] and started == []  # no file was written, so no worker started
    assert threading.active_count() == before


def test_a_thread_that_gets_no_file_starts_no_worker(tmp_path, started, monkeypatch):
    """More jobs than files: three threads, but only files 0 and 1 are
    written, since file 1's write waits until file 0 came back unsat; so
    file 1 is skipped, and only file 0's thread starts a worker."""
    ask, answered, written = _Worker.ask, threading.Event(), []

    def ask_and_tell(worker, path, timeout_s):
        outcome = ask(worker, path, timeout_s)
        answered.set()
        return outcome

    def write(index):
        if index == 1:
            answered.wait(60)
            time.sleep(1)  # file 0's thread records the unsat answer meanwhile
        written.append(index)

    monkeypatch.setattr(_Worker, "ask", ask_and_tell)
    paths = _scripts(tmp_path, ["false", "true", "true"])
    before = threading.active_count()
    result = dispatch(paths, SOLVER_COMMAND, jobs=8, timeout_s=120, write=write)
    assert _statuses(result) == ["unsat", "cancelled", "cancelled"]
    assert written == [0, 1]
    assert len(started) == 1 and all_stopped(started)
    assert threading.active_count() == before


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


def test_a_solver_that_exits_0_with_blank_output_is_an_error(tmp_path):
    silent = f"{shlex.quote(sys.executable)} -c 'print(\"  \")'"
    (outcome,) = dispatch(_scripts(tmp_path, ["true"]), silent, jobs=1, timeout_s=60).outcomes
    assert (outcome.status, outcome.detail) == ("error", "no output")


def test_solver_command_placeholder_and_append(tmp_path):
    files = _emit_fixture("forged2", tmp_path / "p")
    with_placeholder = dispatch(files, SOLVER_COMMAND, jobs=1)
    appended = dispatch(files, SOLVER_COMMAND.replace(" {}", ""), jobs=1)
    assert [o.status for o in with_placeholder.outcomes] == [
        o.status for o in appended.outcomes
    ]


# --- the bundled evaluator as one worker per thread ------------------------------


def _scripts(directory, asserted):
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, term in enumerate(asserted):
        paths.append(directory / f"f{i:02d}.smt2")
        paths[-1].write_text(f"(set-logic ALL)\n(assert {term})\n(check-sat)\n")
    return paths


def _statuses(result):
    return [o.status for o in result.outcomes]


def test_the_bundled_command_is_the_default_one(monkeypatch):
    from viprcert.cli import default_solver_command

    monkeypatch.delenv("VIPRCERT_SOLVER", raising=False)
    assert default_solver_command() == bundled_solver_command() == SOLVER_COMMAND


def test_each_thread_starts_one_worker(tmp_path, started):
    paths = _scripts(tmp_path, ["true", "(< 1 2)", "(= 2 (+ 1 1))"])
    result = dispatch(paths, SOLVER_COMMAND, jobs=8, timeout_s=120)
    assert _statuses(result) == ["sat"] * 3
    assert 1 <= len(started) <= 3
    assert all(p.args[-1] == "--serve" for p in started)
    assert all_stopped(started)


def test_workers_answer_as_one_process_per_file_does(tmp_path, started):
    for name in CORPUS:
        files = _emit_fixture(name, tmp_path / name, block_size=1)
        for jobs in (1, 2):
            del started[:]
            served = dispatch(files, SOLVER_COMMAND, jobs=jobs, timeout_s=120)
            workers = len(started)
            assert workers <= jobs and all_stopped(started)
            once = dispatch(files, SOLVER_COMMAND.replace(" {}", ""), jobs=jobs, timeout_s=120)
            ran = sum(o.status != "cancelled" for o in once.outcomes)
            assert len(started) - workers >= ran  # one process per file
            assert served == once, name


def test_a_worker_reads_paths_with_newlines_and_spaces(tmp_path):
    odd = _scripts(tmp_path / "a b\nc", ["true", "false"])
    odd = [p.rename(p.with_name(f"x \n{p.name}")) for p in odd]
    result = dispatch(odd, SOLVER_COMMAND, jobs=1, timeout_s=120)
    assert result.outcomes == ((odd[0], "sat", ""), (odd[1], "unsat", ""))


def test_a_worker_that_times_out_is_replaced(tmp_path, started):
    hang = tmp_path / "hang.smt2"
    os.mkfifo(hang)  # opening it for reading blocks: no writer ever comes
    paths = [hang, *_scripts(tmp_path / "s", ["true"])]
    before = threading.active_count()
    result = dispatch(paths, SOLVER_COMMAND, jobs=1, timeout_s=2)
    assert _statuses(result) == ["timeout", "sat"]
    assert len(started) == 2 and all_stopped(started)
    assert threading.active_count() == before


def test_a_worker_that_is_killed_is_replaced(tmp_path, started):
    hang = tmp_path / "hang.smt2"
    os.mkfifo(hang)
    paths = [hang, *_scripts(tmp_path / "s", ["true", "false"])]

    def kill_the_first_worker():
        deadline = time.monotonic() + 60
        while not started and time.monotonic() < deadline:
            time.sleep(0.01)
        started[0].kill()

    before = threading.active_count()
    killer = threading.Thread(target=kill_the_first_worker)
    killer.start()
    result = dispatch(paths, SOLVER_COMMAND, jobs=1, timeout_s=60)
    killer.join()
    assert _statuses(result) == ["error", "sat", "unsat"]
    assert result.outcomes[0].detail == "exit -9"
    assert len(started) == 2 and all_stopped(started)
    assert threading.active_count() == before


def test_a_worker_that_answers_outside_the_protocol_is_stopped(tmp_path, started):
    liar = "import sys; sys.stdin.readline(); print('sat', flush=True); sys.stdin.readline()"
    worker = _Worker([sys.executable, "-c", liar])
    outcome = worker.ask(tmp_path / "f.smt2", 60)
    assert outcome.status == "error" and outcome.detail.startswith("malformed worker answer")
    assert worker.process is None and all_stopped(started)


@pytest.mark.parametrize("answer", ['[0, 1, ""]', '[true, "", ""]', '[0, ""]'])
def test_a_worker_answer_of_the_wrong_shape_is_malformed(answer, tmp_path, started):
    liar = f"import sys; sys.stdin.readline(); print({answer!r}, flush=True); sys.stdin.readline()"
    worker = _Worker([sys.executable, "-c", liar])
    outcome = worker.ask(tmp_path / "f.smt2", 60)
    assert outcome.status == "error" and outcome.detail.startswith("malformed worker answer")
    assert answer in outcome.detail
    assert worker.process is None and all_stopped(started)


@pytest.mark.parametrize("fixture", ["cert0", "forged1"])  # valid; an unsat block
def test_no_worker_outlives_dispatch(fixture, tmp_path, started):
    files = _emit_fixture(fixture, tmp_path, block_size=1)
    before = threading.active_count()
    result = dispatch(files, SOLVER_COMMAND, jobs=2, timeout_s=120)
    assert result.aggregate is (Aggregate.VALID if fixture == "cert0" else Aggregate.INVALID)
    assert started and all_stopped(started)
    assert threading.active_count() == before


def test_no_worker_outlives_a_spawn_error(tmp_path, started, monkeypatch):
    popen, calls = subprocess.Popen, iter(range(6))

    def fail_after_the_first(*args, **kwargs):
        if next(calls):
            raise OSError("no more processes")
        return popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", fail_after_the_first)
    paths = _scripts(tmp_path, ["true"] * 6)
    with pytest.raises(SolverSpawnError, match="no more processes"):
        dispatch(paths, SOLVER_COMMAND, jobs=2, timeout_s=120)
    assert len(started) == 1 and all_stopped(started)


def test_the_bundled_command_runs_as_workers_without_poll(tmp_path, started, monkeypatch):
    # a worker is waited on with a timer, so platforms without `select.poll`
    # (Windows) run the same workers and get the same outcomes
    files = {name: _emit_fixture(name, tmp_path / name, block_size=1) for name in CORPUS}
    served = {name: dispatch(files[name], SOLVER_COMMAND, jobs=1, timeout_s=120) for name in CORPUS}
    monkeypatch.delattr(select, "poll")
    del started[:]
    for name in CORPUS:
        assert dispatch(files[name], SOLVER_COMMAND, jobs=1, timeout_s=120) == served[name], name
    assert started and all(p.args[-1] == "--serve" for p in started)
    assert all_stopped(started)
    statuses = _statuses(served["forged1"])
    first_unsat = statuses.index("unsat")
    after = statuses[first_unsat + 1 :]
    assert files["forged1"][first_unsat].kind == "block" and after
    assert set(after) == {"cancelled"}


def test_a_worker_that_hangs_mid_answer_times_out(tmp_path, started):
    half = "import sys; sys.stdin.readline(); print('[0, \"sat', end='', flush=True); sys.stdin.read()"
    worker = _Worker([sys.executable, "-c", half])
    before = threading.active_count()
    start = time.monotonic()
    outcome = worker.ask(tmp_path / "f.smt2", 1)
    assert 1 <= time.monotonic() - start < 30
    assert outcome == (tmp_path / "f.smt2", "timeout", "no answer within 1s")
    assert worker.process is None and all_stopped(started)
    assert threading.active_count() == before


def test_a_write_that_fails_with_einval_is_read_as_the_worker_exit(tmp_path, started, monkeypatch):
    # on Windows a write to a worker that has exited raises EINVAL, not EPIPE
    popen = subprocess.Popen

    def exited(argv, **kwargs):
        process = popen([sys.executable, "-c", "import sys; sys.exit('gone')"], **kwargs)
        stdin = process.stdin

        class Exited:
            def write(self, data):
                process.wait()
                raise OSError(errno.EINVAL, "Invalid argument")

            def __getattr__(self, name):
                return getattr(stdin, name)

        process.stdin = Exited()
        return process

    monkeypatch.setattr(subprocess, "Popen", exited)
    result = dispatch(_scripts(tmp_path, ["true"]), SOLVER_COMMAND, jobs=1, timeout_s=60)
    assert result.outcomes[0][1:] == ("error", "exit 1: gone")
    assert len(started) == 1 and all_stopped(started)


def test_no_files_are_no_evidence():
    assert dispatch([], SOLVER_COMMAND).aggregate is Aggregate.ERROR
    assert DispatchResult(()).aggregate is Aggregate.ERROR


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
