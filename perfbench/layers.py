"""Traced in-process run: where the time of `check` and `verify` goes.

The run replays each route by calling the package's public functions in
the order the command line calls them, with a span around every call:

- check: `parse_certificate`, `compute_assumption_sets`,
  `sol_violations`, `der_violation` for each derivation (by reason),
  `final_violation`;
- verify: `parse_certificate`, `compute_assumption_sets`, `emit`,
  `dispatch` (the solver children).

A layer's self time is its span minus the spans nested in it.  Beside the
two routes it times calls that run inside them, each directly:
`linear_combination` for every lin/rnd step, `der_constraint_expr` for
every derivation, `smteval.run_script` on every emitted file, one solver
spawn on a trivial script, and the import of `viprcert.cli`.

The sum of a route's self times is reconciled against the wall time of
the same command run as a child process on the same certificates; the
remainder is interpreter start and import (measured) plus the rest of the
command (file read, argument parsing, output, the `--jobs` thread pool).
Tracing overhead is the measured cost of one span times the number of
spans recorded.

Both routes run on every workload's traced certificates, so every layer
has a figure on every workload, also where the workload's own commands
do not reach it.
"""

from __future__ import annotations

import io
import os
import shlex
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import SRC, judge

sys.path.insert(0, str(SRC))

from viprcert.algebra import linear_combination  # noqa: E402
from viprcert.checker import (  # noqa: E402
    RtpFlags,
    compute_assumption_sets,
    default_jobs,
    der_violation,
    final_violation,
    sol_violations,
)
from viprcert.cli import default_solver_command  # noqa: E402
from viprcert.model import Reason, constraint_at  # noqa: E402
from viprcert.parser import parse_certificate  # noqa: E402
from viprcert.smteval import run_script  # noqa: E402
from viprcert.smtgen import EmissionPlan, der_constraint_expr, dispatch, emit  # noqa: E402

REASONS = tuple(r.value for r in Reason)
PROBE_REPEATS = 5
TRACED = {"native-large": 1, "smt-medium": 2, "small-many": 10}   # certificates per run


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, root name]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][0] if self._stack else name
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def self_times(self) -> list[tuple[str, str, float, float]]:
        """(name, root, duration, self time) per span."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return [
            (name, root, end - start, end - start - children[i])
            for i, (name, start, end, _, root) in enumerate(self.spans)
        ]


def span_cost() -> float:
    """Seconds one begin/end pair adds, measured on empty spans."""
    tracer = Tracer()
    count = 20000
    started = time.perf_counter()
    tracer.begin("calibrate")
    for _ in range(count):
        tracer.begin("empty")
        tracer.end()
    tracer.end()
    return (time.perf_counter() - started) / count


def check_route(tracer: Tracer, path: Path):
    """The `check` command's calls; returns the first failure or None."""
    tracer.begin("check")
    data = path.read_bytes()
    tracer.begin("parser.parse")
    problem, certificate = parse_certificate(data)
    tracer.end()
    flags = RtpFlags.of(problem, certificate)
    tracer.begin("checker.asets")
    asets = compute_assumption_sets(problem, certificate)
    tracer.end()
    tracer.begin("checker.sol")
    failures = sol_violations(problem, certificate, flags)
    tracer.end()
    m = problem.m
    for offset, derived in enumerate(certificate.der):
        tracer.begin("checker.der." + derived.reason.value)
        violation = der_violation(problem, certificate, asets, m + 1 + offset)
        tracer.end()
        if violation is not None:
            failures.append(violation)
    tracer.begin("checker.final")
    violation = final_violation(problem, certificate, asets, flags)
    tracer.end()
    if violation is not None:
        failures.append(violation)
    tracer.end()
    return problem, certificate, len(data), (failures[0] if failures else None)


def verify_route(tracer: Tracer, path: Path, out_dir: Path, solver: str):
    """The `verify` command's calls; returns the model, the emitted files
    and the dispatch result."""
    jobs = default_jobs()
    tracer.begin("verify")
    data = path.read_bytes()
    tracer.begin("parser.parse")
    problem, certificate = parse_certificate(data)
    tracer.end()
    tracer.begin("checker.asets")
    asets = compute_assumption_sets(problem, certificate)
    tracer.end()
    tracer.begin("smtgen.emit")
    plan = EmissionPlan.create(problem, certificate, workers=jobs)
    files = emit(problem, certificate, asets, plan, out_dir)
    tracer.end()
    tracer.begin("dispatch.wall")
    result = dispatch(files, solver, jobs=jobs)
    tracer.end()
    tracer.end()
    return problem, certificate, files, result


def verify_output(files, result) -> tuple[int, str]:
    """Exit code and text the command line would print for this result."""
    labels = {f.path: f.label for f in files}
    lines = [f"{o.path} {labels.get(o.path, '')} {o.status}" for o in result.outcomes]
    lines.append(result.aggregate.value.upper())
    code = {"valid": 0, "invalid": 1}.get(result.aggregate.value, 3)
    return code, "\n".join(lines)


def median_wall(argv: list[str], env: dict) -> float:
    walls = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)


def run(workload: str, certs: list, work: Path, report: dict, cli) -> Outcome:
    """Trace the workload's first certificates; `cli(cert, command)` runs
    one command-line invocation and judges it."""

    outcome = Outcome()
    failures: list[str] = []
    tracer = Tracer()
    # solver children inherit this environment: the bundled evaluator,
    # importable from src
    os.environ.update({"PYTHONPATH": str(SRC), "TMPDIR": str(work / "tmp")})
    os.environ.pop("VIPRCERT_SOLVER", None)
    env = dict(os.environ)
    solver = default_solver_command()

    def record(ok: bool, what: str) -> None:
        outcome.attempted += 1
        if not ok:
            outcome.failed += 1
            failures.append(what)

    traced = certs[: TRACED[workload]]

    walls = {command: 0.0 for command in ("check", "verify")}
    counts = {command: 0 for command in ("check", "verify")}
    parsed_bytes = 0
    combine_s = 0.0
    for cert in traced:
        problem, certificate, size, first_failure = check_route(tracer, cert.path)
        parsed_bytes += size
        exp = cert.expected
        got = "VALID" if first_failure is None else (
            f"INVALID {first_failure.location} {first_failure.predicate_id} "
        )
        want = "VALID" if exp.valid else f"INVALID {exp.location} {exp.predicate} "
        record(got == want, f"in-process check {cert.item.name}: {got.strip()}")
        for derived in certificate.der:
            if derived.reason in (Reason.LIN, Reason.RND):
                started = time.perf_counter()
                linear_combination(derived.data, lambda i: constraint_at(problem, certificate, i))
                combine_s += time.perf_counter() - started
        for command in cert.item.commands:
            invocation = cli(cert, command)
            walls[command] += invocation.wall_s
            counts[command] += 1
            record(invocation.ok, f"{command} {cert.item.name}: {invocation.why}")

    expr_s = {reason: 0.0 for reason in REASONS}
    eval_s = 0.0
    emitted_bytes = emitted_files = smt_derivations = 0
    files_run = files_cancelled = 0
    for index, cert in enumerate(traced):
        out_dir = work / "smt" / str(index)
        problem, certificate, files, result = verify_route(tracer, cert.path, out_dir, solver)
        code, text = verify_output(files, result)
        ok, why = judge("verify", code, text, cert.expected)
        record(ok, f"in-process verify {cert.item.name}: {why}")
        m = problem.m
        for offset, derived in enumerate(certificate.der):
            started = time.perf_counter()
            der_constraint_expr(problem, certificate, m + 1 + offset)
            expr_s[derived.reason.value] += time.perf_counter() - started
        for emitted in files:
            script = emitted.path.read_text(encoding="utf-8")
            emitted_bytes += len(script.encode("utf-8"))
            started = time.perf_counter()
            run_script(script, out=io.StringIO())
            eval_s += time.perf_counter() - started
        emitted_files += len(files)
        smt_derivations += cert.derivations
        statuses = [o.status for o in result.outcomes]
        files_cancelled += statuses.count("cancelled")
        files_run += len(statuses) - statuses.count("cancelled")

    # fixed per-invocation costs
    trivial = work / "trivial.smt2"
    trivial.write_text("(check-sat)\n")
    spawn_s = median_wall(shlex.split(solver.replace("{}", shlex.quote(str(trivial)))), env)
    bare_s = median_wall([sys.executable, "-c", "pass"], env)
    import_s = median_wall([sys.executable, "-c", "import viprcert.cli"], env) - bare_s

    per_span = span_cost()
    spans = tracer.self_times()
    by_name: dict = {}
    for name, root, duration, own in spans:
        entry = by_name.setdefault((root, name), [0.0, 0.0, 0])
        entry[0] += duration
        entry[1] += own
        entry[2] += 1

    def total(root: str, name: str) -> float:
        return by_name.get((root, name), [0.0, 0.0, 0])[0]

    def count(root: str, name: str) -> int:
        return by_name.get((root, name), [0.0, 0.0, 0])[2]

    metrics: dict = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    parse_s = total("check", "parser.parse")
    put("parser.parse_s", parse_s, "s")
    put("parser.mb_per_s", parsed_bytes / 1e6 / parse_s, "MB/s")
    put("checker.asets_s", total("check", "checker.asets"), "s")
    put("checker.sol_s", total("check", "checker.sol"), "s")
    put("checker.final_s", total("check", "checker.final"), "s")
    for reason in REASONS:
        put(f"checker.der_s.{reason}", total("check", f"checker.der.{reason}"), "s")
        put(f"checker.der_n.{reason}", count("check", f"checker.der.{reason}"), "count")
    put("algebra.combine_s", combine_s, "s")
    put("smtgen.emit_s", total("verify", "smtgen.emit"), "s")
    for reason in REASONS:
        put(f"smtgen.expr_s.{reason}", expr_s[reason], "s")
    put("smtgen.bytes", emitted_bytes, "B")
    put("smtgen.bytes_per_deriv", emitted_bytes / smt_derivations, "B")
    put("smtgen.files", emitted_files, "count")
    put("smteval.eval_s", eval_s, "s")
    put("smteval.mb_per_s", emitted_bytes / 1e6 / eval_s, "MB/s")
    put("dispatch.wall_s", total("verify", "dispatch.wall"), "s")
    put("dispatch.files_run", files_run, "count")
    put("dispatch.files_cancelled", files_cancelled, "count")
    put("dispatch.spawn_s", spawn_s, "s")
    put("cli.import_s", import_s, "s")
    outcome.metrics = metrics

    # reconcile each command the workload runs against its child-process wall time
    reconcile = {}
    for command in ("check", "verify"):
        if not counts[command]:
            continue
        own = {}
        for (root, name), (_, self_s, _) in by_name.items():
            if root == command:
                layer = "route glue and file read" if name == command else name
                own[layer] = own.get(layer, 0.0) + self_s
        self_sum = sum(own.values())
        startup = counts[command] * (bare_s + import_s)
        remainder = walls[command] - self_sum
        reconcile[command] = {
            "invocations": counts[command],
            "wall_s": walls[command],
            "self_sum_s": self_sum,
            "self_s": dict(sorted(own.items(), key=lambda kv: -kv[1])),
            "remainder_s": remainder,
            "remainder": {
                "interpreter_start_and_import_s": startup,
                "other_s (argument parsing, output, temp files, --jobs thread pool)":
                    remainder - startup,
            },
            "self_share_of_wall": self_sum / walls[command],
        }
    report["traced"] = {
        "certificates": [c.item.name for c in traced],
        "reconcile": reconcile,
        "side_measurements_not_in_self_sums": [
            "algebra.combine_s", "smtgen.expr_s.*", "smteval.eval_s", "dispatch.spawn_s",
            "cli.import_s",
        ],
        "tracing_overhead": {
            "spans": len(spans),
            "per_span_s": per_span,
            "total_s": per_span * len(spans),
        },
        "failures": failures[:10],
    }
    return outcome
