"""Emission of the validity formula as partitioned SMT-LIB files, and
orchestration of an external solver over them.

The split of labor: this side computes only assumption sets and the
sign flags of linear combinations, folding them into the emitted text
as Boolean constants; every sum, product, comparison, floor/ceiling,
and integrality test is written out symbolically for the solver to
re-derive.  Each file is a ground script: one `(set-logic ALL)`, one
`(assert ...)` with no declared symbols, one `(check-sat)`, so `sat`
means "this slice of the formula holds".

Integral values are written as numerals (`7`, `(- 7)`), others as
`(/ p q)` or `(- (/ p q))`.  A `lin` or `rnd` conjunct writes each
combined coefficient sum and its bound sum once, in one flat
`(let ((a<j> S_j) ... (b B)) ...)`, and its tests refer to the names.

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
from functools import partial
from pathlib import Path
from typing import Optional, Sequence, Union

from .checker import RtpFlags
from .model import (
    Certificate,
    Constraint,
    Problem,
    Reason,
    Row,
    Sign,
    Unsplit,
    constraint_at,
    total_constraints,
)
from .rational import unlimited_int_digits

_RZERO = "0"
_RONE = "1"


def _frac(numerator: int, denominator: int) -> str:
    """numerator / denominator, denominator > 0, in lowest terms: an
    integral value as a numeral, any other as `(/ p q)`; a negative value
    as the negation of its magnitude."""
    if denominator != 1:
        g = math.gcd(numerator, denominator)
        numerator //= g
        denominator //= g
    magnitude = abs(numerator)
    text = str(magnitude) if denominator == 1 else f"(/ {magnitude} {denominator})"
    return f"(- {text})" if numerator < 0 else text


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
    a_exprs: dict[int, str],
    b_expr: str,
    eq: bool,
    geq: bool,
    leq: bool,
    target: Constraint,
) -> str:
    """Domination of a (possibly symbolic) source over a literal target;
    the source's sign flags are already folded."""
    if eq:
        absurd_tail: Optional[str] = f"(not (= {b_expr} {_RZERO}))"
    elif geq:
        absurd_tail = f"(> {b_expr} {_RZERO})"
    elif leq:
        absurd_tail = f"(< {b_expr} {_RZERO})"
    else:
        absurd_tail = None
    if absurd_tail is None:
        absurd = "false"
    else:
        zeros = [f"(= {a_exprs[j]} {_RZERO})" for j in sorted(a_exprs)]
        absurd = _conj(zeros + [absurd_tail])

    scale, terms = target.scale, target.terms
    support = sorted(set(a_exprs) | set(terms))
    same_lhs = [
        f"(= {a_exprs.get(j, _RZERO)} {_frac(terms.get(j, 0), scale)})" for j in support
    ]
    rhs = _frac(target.bound, scale)
    if target.sign is Sign.EQ:
        direct = "false" if not eq else _conj(same_lhs + [f"(= {b_expr} {rhs})"])
    elif target.sign is Sign.GEQ:
        direct = "false" if not geq else _conj(same_lhs + [f"(>= {b_expr} {rhs})"])
    else:
        direct = "false" if not leq else _conj(same_lhs + [f"(<= {b_expr} {rhs})"])
    return _disj([absurd, direct])


def _literal_exprs(constraint: Constraint) -> tuple[dict[int, str], str]:
    scale = constraint.scale
    a_exprs = {j: _frac(a, scale) for j, a in constraint.terms.items()}
    return a_exprs, _frac(constraint.bound, scale)


def _constraint_dom_expr(source: Constraint, target: Constraint) -> str:
    a_exprs, b_expr = _literal_exprs(source)
    s = source.sign.value
    return _dom_expr(a_exprs, b_expr, s == 0, s >= 0, s <= 0, target)


def _dis_expr(ci: Constraint, cj: Constraint, int_vars: frozenset[int]) -> str:
    si, sj = ci.sign.value, cj.sign.value
    if si == 0 or si + sj != 0:
        return "false"
    ai, bi = _literal_exprs(ci)
    aj, bj = _literal_exprs(cj)
    support = sorted(set(ai) | set(aj))
    parts = [f"(= {ai.get(j, _RZERO)} {aj.get(j, _RZERO)})" for j in support]
    for j in sorted(ai):
        if j in int_vars:
            parts.append(f"(is_int {ai[j]})")
        else:
            parts.append(f"(= {ai[j]} {_RZERO})")
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
        w = _frac(weight, multipliers.scale)
        scale = constraint.scale
        for j, a in sorted(constraint.terms.items()):
            a_terms.setdefault(j, []).append(f"(* {w} {_frac(a, scale)})")
        if constraint.bound:
            b_terms.append(f"(* {w} {_frac(constraint.bound, scale)})")
    a_exprs = {j: _sum(terms) for j, terms in a_terms.items()}
    return a_exprs, _sum(b_terms), geq, leq


def _dot(terms: dict[int, int], scale: int, point: Row) -> str:
    """sum_j (terms[j] / scale) * point[j] over the nonzero coordinates."""
    products = []
    for j, a in sorted(terms.items()):
        c = point.terms.get(j)
        if c:
            products.append(f"(* {_frac(a, scale)} {_frac(c, point.scale)})")
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


@unlimited_int_digits()
def der_constraint_expr(problem: Problem, certificate: Certificate, k: int) -> str:
    """Ground formula for the validity of derived constraint C_k; the
    assumption predicate is discharged at emission time."""
    derived = certificate.der[k - problem.m - 1]
    target = derived.constraint
    d = total_constraints(problem, certificate)

    if derived.reason is Reason.ASM:
        return "true"

    if derived.reason in (Reason.LIN, Reason.RND):
        assert isinstance(derived.data, Row)
        indices = sorted(derived.data.terms)
        if any(not 1 <= i <= d for i in indices):
            return "false"
        prv = [f"(< {i} {k})" for i in indices]
        a_sums, b_sum, geq, leq = _symbolic_combination(problem, certificate, derived.data)
        # each sum is written once, bound to a name the tests below refer to
        a_exprs = {j: f"a{j}" for j in a_sums}
        bindings = [(a_exprs[j], a_sums[j]) for j in sorted(a_sums)] + [("b", b_sum)]
        if derived.reason is Reason.LIN:
            dom = _dom_expr(a_exprs, "b", geq and leq, geq, leq, target)
            return _let(bindings, _conj(prv + [dom]))
        if geq and leq:  # an equality combination is never roundable
            return "false"
        roundable = []
        for j in sorted(a_exprs):
            if j in problem.int_vars:
                roundable.append(f"(is_int {a_exprs[j]})")
            else:
                roundable.append(f"(= {a_exprs[j]} {_RZERO})")
        # rounding keeps the absurdity test: ceil(b) > 0 iff b > 0, floor(b) < 0 iff b < 0
        rounded = _ceil("b") if geq else _floor("b")
        dom = _dom_expr(a_exprs, rounded, False, geq, leq, target)
        return _let(bindings, _conj(prv + roundable + [dom]))

    if derived.reason is Reason.UNS:
        assert isinstance(derived.data, Unsplit)
        data = derived.data
        if any(not 1 <= i <= d for i in data.as_tuple()):
            return "false"
        at = partial(constraint_at, problem, certificate)
        parts = [f"(> {k} {i})" for i in data.as_tuple()]
        parts += [_constraint_dom_expr(at(i), target) for i in (data.i1, data.i2)]
        parts.append(_dis_expr(at(data.l1), at(data.l2), problem.int_vars))
        return _conj(parts)

    # sol reasoning
    s = problem.sense.bound_sign.value
    scale, terms = problem.objective
    a_exprs = {j: _frac(a, scale) for j, a in terms.items()}
    branches = []
    for point in certificate.sol:
        b_expr = _dot(terms, scale, point.coords)
        branches.append(_dom_expr(a_exprs, b_expr, False, s >= 0, s <= 0, target))
    return _disj(branches)


@unlimited_int_digits()
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


@unlimited_int_digits()
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


class EmissionPlan(namedtuple("EmissionPlan", "block_size blocks")):
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
        count = len(certificate.der)
        if block_size is None:
            block_size = max(1, -(-count // max(1, workers)))
        if block_size < 1:
            raise ValueError("block size must be positive")
        m = problem.m
        blocks = tuple(
            (start, min(start + block_size - 1, m + count))
            for start in range(m + 1, m + count + 1, block_size)
        )
        return cls(block_size=block_size, blocks=blocks)


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


@unlimited_int_digits()
def emit(
    problem: Problem,
    certificate: Certificate,
    asets: frozenset[int],
    plan: EmissionPlan,
    out_dir: Union[str, Path],
) -> list[EmittedFile]:
    """Write the solution file, one file per block, and the final file.

    Emission is deterministic: identical inputs and plan produce
    byte-identical files.  Integers of any length are written, with
    the interpreter's digit limit lifted process-wide while this runs
    (`unlimited_int_digits`).
    """
    flags = RtpFlags.of(problem, certificate)  # raises before any file is written
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: list[EmittedFile] = []

    sol_path = out / "sol.smt2"
    _write_script(sol_path, sol_expr(problem, certificate, flags))
    files.append(EmittedFile(sol_path, "sol"))

    width = max(4, len(str(total_constraints(problem, certificate))))
    for first_k, last_k in plan.blocks:
        conjuncts = [
            der_constraint_expr(problem, certificate, k) for k in range(first_k, last_k + 1)
        ]
        path = out / f"der_{first_k:0{width}d}_{last_k:0{width}d}.smt2"
        _write_script(path, _conj(conjuncts))
        files.append(EmittedFile(path, "block", first_k, last_k))

    final_path = out / "final.smt2"
    _write_script(final_path, final_expr(problem, certificate, asets, flags))
    files.append(EmittedFile(final_path, "final"))
    return files


# --- dispatch ----------------------------------------------------------------


_CANCELLED = "earlier file was unsat"


class SolverSpawnError(Exception):
    """The solver command could not be started at all."""


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


class FileOutcome(namedtuple("FileOutcome", "path status detail", defaults=("",))):
    """A file's `Path` and what the solver made of it: status "sat",
    "unsat", "timeout", "error" or "cancelled", and a detail text."""

    __slots__ = ()


class DispatchResult(namedtuple("DispatchResult", "outcomes")):
    """One `FileOutcome` per file, in file order."""

    __slots__ = ()

    @property
    def aggregate(self) -> Aggregate:
        statuses = [o.status for o in self.outcomes]
        if any(s == "unsat" for s in statuses):
            return Aggregate.INVALID
        if all(s == "sat" for s in statuses):
            return Aggregate.VALID
        return Aggregate.ERROR


def _solver_argv(command: str, path: Path) -> list[str]:
    tokens = shlex.split(command)
    if not tokens:
        raise SolverSpawnError("empty solver command")
    if any("{}" in token for token in tokens):
        return [token.replace("{}", str(path)) for token in tokens]
    return tokens + [str(path)]


def _parse_solver_output(stdout: str) -> Optional[str]:
    lines = [line.strip() for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    first_token = lines[-1].split()[0].lower()
    if first_token in ("sat", "unsat", "unknown"):
        return first_token
    return None


def dispatch(
    files: Sequence[Union[Path, EmittedFile]],
    solver_command: str,
    jobs: int = 1,
    timeout_s: float = 300.0,
) -> DispatchResult:
    """Run the solver over every file, `jobs` at a time: up to `jobs`
    threads take the files' indices in order from one iterator.

    Files start in order, and a file is not started once an earlier one
    came back unsat.  Every file after the first unsat one is reported
    cancelled, whether or not it ran, so the outcomes do not depend on
    timing.  A timeout, a nonzero exit status or an unparseable solver
    response is recorded as a failure of that file and makes the
    aggregate an error, never a pass.  A `timeout_s` that `check_timeout`
    refuses, or `jobs` < 1, raises ValueError before any file starts.  A
    solver that cannot be started raises SolverSpawnError: no further
    file starts, and the error of the earliest such file is raised once
    every thread has stopped.
    """
    check_timeout(timeout_s)
    if jobs < 1:
        raise ValueError("jobs must be positive")
    paths = [f.path if isinstance(f, EmittedFile) else Path(f) for f in files]
    unsat_at: list[int] = []  # indices of the files that came back unsat

    def run_one(index: int) -> FileOutcome:
        path = paths[index]
        if any(i < index for i in unsat_at):
            return FileOutcome(path, "cancelled", _CANCELLED)
        argv = _solver_argv(solver_command, path)
        try:
            process = subprocess.run(argv, capture_output=True, text=True, timeout=timeout_s)
        except OSError as exc:
            raise SolverSpawnError(f"cannot start solver {argv[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired:
            return FileOutcome(path, "timeout", f"no answer within {timeout_s}s")
        stdout, stderr = process.stdout, process.stderr
        if process.returncode != 0:
            output = stderr.strip() or stdout.strip()
            detail = f"exit {process.returncode}" + (f": {output}" if output else "")
            return FileOutcome(path, "error", detail[:500])
        answer = _parse_solver_output(stdout)
        if answer == "sat":
            return FileOutcome(path, "sat")
        if answer == "unsat":
            unsat_at.append(index)
            return FileOutcome(path, "unsat")
        detail = answer or (stderr.strip() or stdout.strip() or "no output")
        return FileOutcome(path, "error", detail[:500])

    outcomes: list[Optional[FileOutcome]] = [None] * len(paths)
    raised: dict[int, Exception] = {}  # file index -> what running it raised
    indices = iter(range(len(paths)))
    lock = threading.Lock()

    def work() -> None:
        while not raised:  # once a file raised, start no further file
            with lock:
                index = next(indices, None)
            if index is None:
                return
            try:
                outcomes[index] = run_one(index)
            except Exception as exc:  # re-raised below, once every worker stopped
                raised[index] = exc

    workers = [threading.Thread(target=work) for _ in range(min(jobs, len(paths)))]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if raised:
        raise raised[min(raised)]
    first = next((i for i, o in enumerate(outcomes) if o.status == "unsat"), len(outcomes))
    for i in range(first + 1, len(outcomes)):
        outcomes[i] = FileOutcome(outcomes[i].path, "cancelled", _CANCELLED)
    return DispatchResult(outcomes=tuple(outcomes))
