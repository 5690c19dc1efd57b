"""Emission of the validity formula as partitioned SMT-LIB files, and
orchestration of an external solver over them.

The split of labor: this side folds into the emitted text, as Boolean
constants, only the `spec` facts (what the relation to prove asks, the
A(d) it is handed, and whether each step cites only strictly earlier
constraints, so every index test is decided at emission) and the sign
flags of linear combinations; every sum, product, comparison,
floor/ceiling, and integrality test is written out symbolically for the
solver to re-derive.  Each file is a ground script: one
`(set-logic ALL)`, one `(assert ...)` with no declared symbols, one
`(check-sat)`, so `sat` means "this slice of the formula holds".

A rational p/q in lowest terms is written as the numeral `p` when q is
1 and as `(/ p q)` otherwise, a negative numerator as `(- 7)`; a product
w * x of p/q and r/s is one integer quotient `(/ (* p r) (* q s))`,
written with no factor of 1 and with no `/` when q = s = 1.  A `lin` or
`rnd` conjunct writes each combined coefficient sum and its bound sum
once, in one flat `(let ((a<j> S_j) ... (b B)) ...)`, and its tests
refer to the names.  Every test that several terms are 0 is one chained
`(= 0 t1 t2 ...)`.

Files partition the formula as: one solution-side file, consecutive
blocks of per-derivation conjuncts, and one file for the closing
obligation on the last constraint.  The aggregate over all files is
therefore exactly the whole-certificate verdict.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import threading
from collections import namedtuple
from enum import Enum
from functools import lru_cache, partial
from itertools import accumulate
from pathlib import Path
from queue import SimpleQueue
from typing import Callable, Optional, Sequence, Union

from .model import (
    Certificate,
    Constraint,
    Problem,
    Reason,
    Row,
    constraint_at,
    total_constraints,
)
from .rational import write_int
from .spec import RtpFlags, cites_earlier
from .worker import (
    FileOutcome,
    SolverSpawnError,
    _outcome,
    _spawn_error,
    _timed_out,
    _Worker,
    bundled_solver_command,
)

_RZERO = "0"
_RONE = "1"


def _ratio(numerator: int, denominator: int) -> tuple[str, str]:
    """numerator / denominator, denominator > 0, in lowest terms, as the
    texts of its numerator (`(- 7)` when negative) and denominator."""
    g = math.gcd(numerator, denominator)
    top, bottom = write_int(numerator // g), write_int(denominator // g)
    return (f"(- {top[1:]})" if top[0] == "-" else top), bottom


# products repeat their factors (nine calls in ten hit on smt-medium), and
# literals repeat too: a target's once per solution point or cited source,
# a cited constraint's once per citing step (four calls in five hit)
_factor = lru_cache(maxsize=4096)(_ratio)


@lru_cache(maxsize=4096)
def _frac(numerator: int, denominator: int) -> str:
    """numerator / denominator, denominator > 0, as `p` or `(/ p q)` in
    lowest terms."""
    top, bottom = _ratio(numerator, denominator)
    return top if bottom == "1" else f"(/ {top} {bottom})"


def _product(w: tuple[str, str], x: tuple[str, str]) -> str:
    """w * x for `_factor`s w = p/q and x = r/s, as the integer quotient
    `(/ (* p r) (* q s))` with no factor of 1, and no `/` when q = s = 1."""
    p, q = w
    r, s = x
    top = r if p == "1" else p if r == "1" else f"(* {p} {r})"
    bottom = s if q == "1" else q if s == "1" else f"(* {q} {s})"
    return top if bottom == "1" else f"(/ {top} {bottom})"


def _zeros(terms: Sequence[str]) -> list[str]:
    """The one chained test `(= 0 t1 t2 ...)` that every term is 0, or
    none for no terms."""
    return [f"(= {_RZERO} {' '.join(terms)})"] if terms else []


def _junction(op: str, unit: str, zero: str, parts: Sequence[str]) -> str:
    """`(op p1 p2 ...)` over the parts that are not `unit`: `zero` if one
    of them is `zero`, `unit` if none is left, the part if one is."""
    flat = [p for p in parts if p != unit]
    if zero in flat:
        return zero
    if len(flat) < 2:
        return flat[0] if flat else unit
    return f"({op} {' '.join(flat)})"


_conj = partial(_junction, "and", "true", "false")
_disj = partial(_junction, "or", "false", "true")


def _sum(terms: Sequence[str]) -> str:
    if not terms:
        return _RZERO
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def _let(bindings: Sequence[tuple[str, str]], body: str) -> str:
    """One flat `let` over `body`; a constant body needs none."""
    if body in ("true", "false"):
        return body
    pairs = " ".join(f"({name} {term})" for name, term in bindings)
    return f"(let ({pairs}) {body})"


def _ceil(expr: str) -> str:
    return f"(to_real (- (to_int (- {expr}))))"


def _floor(expr: str) -> str:
    return f"(to_real (to_int {expr}))"


def _dom_expr(
    a_exprs: dict[int, str], b_expr: str, geq: bool, leq: bool, target: Constraint
) -> str:
    """Domination of a (possibly symbolic) source over a literal target;
    the source's sign flags are already folded, both set for an equality."""
    support = sorted(a_exprs)
    absurd = "false"
    if geq or leq:
        if geq and leq:
            absurd_tail = f"(not (= {b_expr} {_RZERO}))"
        else:
            absurd_tail = f"({'>' if geq else '<'} {b_expr} {_RZERO})"
        absurd = _conj(_zeros([a_exprs[j] for j in support]) + [absurd_tail])

    s = target.sign.value
    if (s >= 0 and not geq) or (s <= 0 and not leq):  # no direct domination
        return absurd
    scale, terms = target.scale, target.terms
    same_lhs = _zeros([a_exprs[j] for j in support if j not in terms])
    same_lhs += [
        f"(= {a_exprs.get(j, _RZERO)} {_frac(a, scale)})" for j, a in sorted(terms.items())
    ]
    relation = "=" if s == 0 else ">=" if s > 0 else "<="
    direct = _conj(same_lhs + [f"({relation} {b_expr} {_frac(target.bound, scale)})"])
    return _disj([absurd, direct])


def _literal_exprs(constraint: Constraint) -> tuple[dict[int, str], str]:
    scale = constraint.scale
    a_exprs = {j: _frac(a, scale) for j, a in constraint.terms.items()}
    return a_exprs, _frac(constraint.bound, scale)


def _constraint_dom_expr(source: Constraint, target: Constraint) -> str:
    a_exprs, b_expr = _literal_exprs(source)
    s = source.sign.value
    return _dom_expr(a_exprs, b_expr, s >= 0, s <= 0, target)


def _dis_expr(ci: Constraint, cj: Constraint, int_vars: frozenset[int]) -> str:
    si, sj = ci.sign.value, cj.sign.value
    if si == 0 or si + sj != 0:
        return "false"
    ai, bi = _literal_exprs(ci)
    aj, bj = _literal_exprs(cj)
    support = sorted(set(ai) | set(aj))
    parts = [f"(= {ai.get(j, _RZERO)} {aj.get(j, _RZERO)})" for j in support]
    parts += [f"(is_int {ai[j]})" for j in sorted(ai) if j in int_vars]
    parts += _zeros([ai[j] for j in sorted(ai) if j not in int_vars])
    parts.append(f"(is_int {bi})")
    parts.append(f"(is_int {bj})")
    if si == 1:
        parts.append(f"(= {bi} (+ {bj} {_RONE}))")
    else:
        parts.append(f"(= {bi} (- {bj} {_RONE}))")
    return _conj(parts)


def _symbolic_combination(
    problem: Problem, certificate: Certificate, multipliers: Row
) -> tuple[dict[int, str], str, bool, bool]:
    """Per-variable sum expressions and the bound sum for a combination,
    plus the folded sign flags.  Zero-parsed factors never appear."""
    a_terms: dict[int, list[str]] = {}
    b_terms: list[str] = []
    geq = True
    leq = True
    for i, weight in sorted(multipliers.terms.items()):
        constraint = constraint_at(problem, certificate, i)
        weighted_sign = weight * constraint.sign.value
        if weighted_sign < 0:
            geq = False
        if weighted_sign > 0:
            leq = False
        w = _factor(weight, multipliers.scale)
        scale = constraint.scale
        for j, a in constraint.terms.items():  # each sum is in multiplier order
            a_terms.setdefault(j, []).append(_product(w, _factor(a, scale)))
        if constraint.bound:
            b_terms.append(_product(w, _factor(constraint.bound, scale)))
    a_exprs = {j: _sum(terms) for j, terms in a_terms.items()}
    return a_exprs, _sum(b_terms), geq, leq


def _dot(terms: dict[int, int], scale: int, point: Row) -> str:
    """sum_j (terms[j] / scale) * point[j] over the nonzero coordinates."""
    products = []
    for j, a in sorted(terms.items()):
        c = point.terms.get(j)
        if c:
            products.append(_product(_factor(a, scale), _factor(c, point.scale)))
    return _sum(products)


def _satisfied_parts(constraint: Constraint, point: Row) -> list[str]:
    """Does the point satisfy the constraint: one comparison per side."""
    dot = _dot(constraint.terms, constraint.scale, point)
    rhs = _frac(constraint.bound, constraint.scale)
    s = constraint.sign.value
    parts = []
    if s >= 0:
        parts.append(f"(>= {dot} {rhs})")
    if s <= 0:
        parts.append(f"(<= {dot} {rhs})")
    return parts


def der_constraint_expr(problem: Problem, certificate: Certificate, k: int) -> str:
    """Ground formula for the validity of derived constraint C_k; the
    assumption predicate and the rule that C_k cites only strictly
    earlier constraints (`spec.cites_earlier`) are decided at emission."""
    derived = certificate.der[k - problem.m - 1]
    target = derived.constraint

    if derived.reason is Reason.ASM:
        return "true"
    if not cites_earlier(k, derived.data):
        return "false"

    if derived.reason in (Reason.LIN, Reason.RND):
        assert isinstance(derived.data, Row)
        a_sums, b_sum, geq, leq = _symbolic_combination(problem, certificate, derived.data)
        # each sum is written once, bound to a name the tests below refer to
        a_exprs = {j: f"a{j}" for j in a_sums}
        bindings = [(a_exprs[j], a_sums[j]) for j in sorted(a_sums)] + [("b", b_sum)]
        if derived.reason is Reason.LIN:
            dom = _dom_expr(a_exprs, "b", geq, leq, target)
            return _let(bindings, dom)
        if geq and leq:  # an equality combination is never roundable
            return "false"
        int_vars = problem.int_vars
        roundable = [f"(is_int {a_exprs[j]})" for j in sorted(a_exprs) if j in int_vars]
        roundable += _zeros([a_exprs[j] for j in sorted(a_exprs) if j not in int_vars])
        # rounding keeps the absurdity test: ceil(b) > 0 iff b > 0, floor(b) < 0 iff b < 0
        rounded = _ceil("b") if geq else _floor("b")
        dom = _dom_expr(a_exprs, rounded, geq, leq, target)
        return _let(bindings, _conj(roundable + [dom]))

    if derived.reason is Reason.UNS:
        i1, l1, i2, l2 = derived.data
        at = partial(constraint_at, problem, certificate)
        dominate = [_constraint_dom_expr(at(i), target) for i in (i1, i2)]
        return _conj(dominate + [_dis_expr(at(l1), at(l2), problem.int_vars)])

    # sol reasoning
    s = problem.sense.bound_sign.value
    scale, terms = problem.objective
    a_exprs = {j: _frac(a, scale) for j, a in terms.items()}
    branches = []
    for point in certificate.sol:
        b_expr = _dot(terms, scale, point.coords)
        branches.append(_dom_expr(a_exprs, b_expr, s >= 0, s <= 0, target))
    return _disj(branches)


def sol_expr(problem: Problem, certificate: Certificate, flags: RtpFlags) -> str:
    """Ground formula for the solution side."""
    if not flags.has_range:
        return "true" if not certificate.sol else "false"
    parts: list[str] = []
    for point in certificate.sol:
        coords = point.coords
        for j in sorted(problem.int_vars):
            c = coords.terms.get(j)
            if c:
                parts.append(f"(is_int {_frac(c, coords.scale)})")
        for constraint in problem.constraints:
            parts.extend(_satisfied_parts(constraint, coords))
    bound = flags.solution_bound
    if bound is not None:
        parts.append(
            _disj([_conj(_satisfied_parts(bound, p.coords)) for p in certificate.sol])
        )
    return _conj(parts)


def final_expr(
    problem: Problem, certificate: Certificate, asets: frozenset[int], flags: RtpFlags
) -> str:
    """Ground formula for the closing obligation on the last constraint."""
    target = flags.final_target
    if target is None:
        return "true"
    d = total_constraints(problem, certificate)
    last = constraint_at(problem, certificate, d)
    assumption_free = "false" if asets else "true"
    return _conj([_constraint_dom_expr(last, target), assumption_free])


# --- emission plan and file writing ----------------------------------------


DEFAULT_BLOCK_CAP = 250  # derivations in a block of the default plan, at most


class EmissionPlan(namedtuple("EmissionPlan", "blocks")):
    """Partition of the per-derivation conjuncts into consecutive blocks,
    each a pair (first k, last k)."""

    __slots__ = ()

    @classmethod
    def create(
        cls,
        problem: Problem,
        certificate: Certificate,
        block_size: Optional[int] = None,
        workers: int = 1,
    ) -> "EmissionPlan":
        """Blocks of `block_size` derivations, the last one shorter if need
        be.  By default, max(workers, ⌈derivations / DEFAULT_BLOCK_CAP⌉)
        blocks, but no more than there are derivations, whose sizes differ
        by at most 1, the larger first: every worker gets a block, and no
        block is so large that one file holds a worker up."""
        count = len(certificate.der)
        if block_size is None:
            parts = min(count, max(workers, -(-count // DEFAULT_BLOCK_CAP))) or 1
            size, extra = divmod(count, parts)
            sizes = [size + 1] * extra + [size] * (parts - extra)
        elif block_size < 1:
            raise ValueError("block size must be positive")
        else:
            sizes = [block_size] * (count // block_size) + [count % block_size]
        starts = accumulate(sizes, initial=problem.m + 1)
        blocks = tuple((start, start + size - 1) for start, size in zip(starts, sizes) if size)
        return cls(blocks)


class EmittedFile(
    namedtuple("EmittedFile", "path kind first_k last_k", defaults=(None, None))
):
    """A written file's `Path`, its kind ("sol", "block" or "final") and,
    for a block, its first and last derivation index."""

    __slots__ = ()

    @property
    def label(self) -> str:
        if self.kind == "block":
            return f"block[{self.first_k}..{self.last_k}]"
        return self.kind


def _write_script(path: Path, expression: str) -> None:
    path.write_text(f"(set-logic ALL)\n(assert {expression})\n(check-sat)\n", encoding="utf-8")


def planned_files(
    problem: Problem,
    certificate: Certificate,
    asets: frozenset[int],
    plan: EmissionPlan,
    out_dir: Union[str, Path],
) -> tuple[list[EmittedFile], Callable[[int], None]]:
    """The files `emit` writes, in order: the solution file, one file per
    block and the final file; and `write`, which writes the file at an
    index.  `write` builds a file's formula only when called, so `verify`
    can solve the files already written while it writes the next.

    Raises what `RtpFlags.of` raises before any file is written, and
    creates `out_dir`.
    """
    flags = RtpFlags.of(problem, certificate)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(total_constraints(problem, certificate))))
    files = [EmittedFile(out / "sol.smt2", "sol")]
    for first_k, last_k in plan.blocks:
        path = out / f"der_{first_k:0{width}d}_{last_k:0{width}d}.smt2"
        files.append(EmittedFile(path, "block", first_k, last_k))
    files.append(EmittedFile(out / "final.smt2", "final"))
    der_expr = partial(der_constraint_expr, problem, certificate)

    def write(index: int) -> None:
        emitted = files[index]
        if emitted.kind == "sol":
            expression = sol_expr(problem, certificate, flags)
        elif emitted.kind == "final":
            expression = final_expr(problem, certificate, asets, flags)
        else:
            expression = _conj([der_expr(k) for k in range(emitted.first_k, emitted.last_k + 1)])
        _write_script(emitted.path, expression)

    return files, write


def emit(
    problem: Problem,
    certificate: Certificate,
    asets: frozenset[int],
    plan: EmissionPlan,
    out_dir: Union[str, Path],
) -> list[EmittedFile]:
    """Write every file of `planned_files`, in order, and return them.

    Emission is deterministic: identical inputs and plan produce
    byte-identical files.  Integers of any length are written.
    """
    files, write = planned_files(problem, certificate, asets, plan, out_dir)
    for index in range(len(files)):
        write(index)
    return files


# --- dispatch ----------------------------------------------------------------


def check_timeout(seconds: float) -> float:
    """`seconds` if it lies in (0, 1e6], a solver's time limit per file;
    `subprocess` waits at most 2**31 ms.  Raises ValueError otherwise."""
    if not 0 < seconds <= 1e6:  # false for nan
        raise ValueError("must be a number of seconds in (0, 1e6]")
    return seconds


class Aggregate(Enum):
    VALID = "valid"
    INVALID = "invalid"
    ERROR = "error"


class DispatchResult(namedtuple("DispatchResult", "outcomes")):
    """One `FileOutcome` per file, in file order.  The aggregate is
    valid only when there is at least one outcome and every one is sat."""

    __slots__ = ()

    @property
    def aggregate(self) -> Aggregate:
        statuses = [o.status for o in self.outcomes]
        if any(s == "unsat" for s in statuses):
            return Aggregate.INVALID
        if statuses and all(s == "sat" for s in statuses):
            return Aggregate.VALID
        return Aggregate.ERROR


def _solver_argv(command: str, path: Path) -> list[str]:
    tokens = shlex.split(command)
    if not tokens:
        raise SolverSpawnError("empty solver command")
    if any("{}" in token for token in tokens):
        return [token.replace("{}", str(path)) for token in tokens]
    return tokens + [str(path)]


def _run_once(argv: list[str], path: Path, timeout_s: float) -> FileOutcome:
    """Start the solver command on the one file at `path`."""
    try:
        process = subprocess.run(argv, capture_output=True, text=True, timeout=timeout_s)
    except OSError as exc:
        raise _spawn_error(argv, exc) from exc
    except subprocess.TimeoutExpired:
        return _timed_out(path, timeout_s)
    return _outcome(path, process.returncode, process.stdout, process.stderr)


def dispatch(
    files: Sequence[Union[Path, EmittedFile]],
    solver_command: str,
    jobs: int = 1,
    timeout_s: float = 300.0,
    write: Callable[[int], None] = lambda index: None,
    workers: Sequence[_Worker] = (),
) -> DispatchResult:
    """Run the solver over every file, `jobs` at a time.

    The calling thread writes the files: it calls `write` on each index
    in order and puts the index on one queue once `write` returned, and up
    to `jobs` solving threads take the indices from that queue, so a file
    is asked about only once written.  `verify` passes the `write` of
    `planned_files`, so the files written so far are solved while the
    next one is written.  The default writes nothing, for files that are
    written already.  The writer stops after the first unsat answer or
    once anything raised; what `write` raises is raised as the error of
    the file it was writing.

    Any solver command is started once per file, except the bundled
    evaluator's own (`bundled_solver_command`): on every platform, that
    one runs as `--serve` workers, and each thread's worker answers every
    file the thread takes.  `workers` are such workers started already:
    `verify` starts `min(jobs, CPUs)` of them before it parses.  At its
    first file, a thread takes one of them if any is left, or else starts
    its own; those no thread took are killed, not waited for, once the
    threads have stopped.  So a run starts at most `min(jobs, files)`
    evaluators, one fewer for each it takes (and one more after each
    worker that failed).  A file's time limit kills the worker, or the
    process that runs it alone.  Both give each file the same outcome.

    Files start in order, and a file is not started once an earlier one
    came back unsat.  Every file after the first unsat one is reported
    cancelled, whether or not it ran or was written, so the outcomes do
    not depend on timing.  A timeout, a nonzero exit status or an
    unparseable solver response is recorded as a failure of that file and
    makes the aggregate an error, never a pass; so does an empty list of
    files.  A `timeout_s` that `check_timeout` refuses, or `jobs` < 1,
    raises ValueError before any file is written or started, and leaves
    `workers` to the caller.  A solver that cannot be started raises
    SolverSpawnError: no further file starts, and the error of the
    earliest such file is raised.  Every process and thread it started,
    and every one of `workers` it did not leave to the caller, has ended
    when it returns or raises.
    """
    check_timeout(timeout_s)
    if jobs < 1:
        raise ValueError("jobs must be positive")
    paths = [f.path if isinstance(f, EmittedFile) else Path(f) for f in files]
    unsat_at: list[int] = []  # indices of the files that came back unsat
    serve = solver_command == bundled_solver_command()
    ready, taking = iter(workers), threading.Lock()  # a thread takes one at its first file
    outcomes: list[Optional[FileOutcome]] = [None] * len(paths)
    raised: dict[int, Exception] = {}  # file index -> what writing or running it raised
    written: SimpleQueue[Optional[int]] = SimpleQueue()  # then one None per thread

    def work() -> None:
        worker: Optional[_Worker] = None
        try:
            for index in iter(written.get, None):
                if raised:  # once a file raised, start no further file
                    return
                if any(i < index for i in unsat_at):  # the post-pass reports it cancelled
                    continue
                path = paths[index]
                try:
                    if serve:
                        if worker is None:
                            with taking:
                                worker = next(ready, None) or _Worker()
                        outcome = worker.ask(path, timeout_s)
                    else:
                        outcome = _run_once(_solver_argv(solver_command, path), path, timeout_s)
                except Exception as exc:  # re-raised below, once every thread stopped
                    raised[index] = exc
                    return
                if outcome.status == "unsat":
                    unsat_at.append(index)
                outcomes[index] = outcome
        finally:
            if worker is not None:
                worker.stop()

    threads = [threading.Thread(target=work) for _ in range(min(jobs, len(paths)))]
    for thread in threads:
        thread.start()
    try:
        for index in range(len(paths)):
            if unsat_at or raised:
                break
            try:
                write(index)
            except Exception as exc:  # re-raised below, once every thread stopped
                raised[index] = exc
                break
            written.put(index)
    finally:
        for thread in threads:
            written.put(None)
        for thread in threads:
            thread.join()
        for worker in ready:
            worker.stop(kill=True)
    if raised:
        raise raised[min(raised)]
    for i in range(min(unsat_at, default=len(paths)) + 1, len(paths)):
        outcomes[i] = FileOutcome(paths[i], "cancelled", "earlier file was unsat")
    return DispatchResult(outcomes=tuple(outcomes))
