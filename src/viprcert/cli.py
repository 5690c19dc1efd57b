"""Command-line entry point: check, emit, verify.

Exit codes: 0 the certificate is valid, 1 it is invalid, 2 the input
could not be parsed, 3 infrastructure failure (I/O, solver spawn or
timeout, degenerate empty constraint system, any unexpected internal
error).  A verdict is never conflated with an infrastructure failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from .checker import check_certificate_report, default_jobs
from .parser import ParseError, parse_certificate
from .spec import EmptyConstraintSystem, compute_assumption_sets

# `smtgen` (with `subprocess`) and `tempfile` are imported where `emit`
# and `verify` use them, so `check` does not load them; `smtgen` also
# holds the bundled evaluator's command, which it runs as workers.

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_FORMAT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

SOLVER_ENV_VAR = "VIPRCERT_SOLVER"


def default_solver_command() -> str:
    """Environment override, else the bundled ground-formula evaluator."""
    configured = os.environ.get(SOLVER_ENV_VAR)
    if configured:
        return configured
    from .smtgen import bundled_solver_command

    return bundled_solver_command()


def cmd_check(args: argparse.Namespace, data: bytes) -> int:
    started = time.perf_counter()
    problem, certificate = parse_certificate(data)
    parse_seconds = time.perf_counter() - started

    started = time.perf_counter()
    report = check_certificate_report(problem, certificate)
    check_seconds = time.perf_counter() - started

    verdict = report.verdict
    if args.format == "json":
        payload = {
            "verdict": "valid" if verdict.valid else "invalid",
            "location": None if verdict.valid else verdict.location,
            "predicate_id": verdict.predicate_id,
            "message": verdict.message,
            "solutions_checked": report.solutions_checked,
            "derivations_checked": report.derivations_checked,
            "timings": {"parse_s": parse_seconds, "check_s": check_seconds},
        }
        if args.diagnose:
            payload["failures"] = [
                {
                    "location": f.location,
                    "predicate_id": f.predicate_id,
                    "message": f.message,
                }
                for f in report.failures
            ]
        print(json.dumps(payload))
    else:
        if verdict.valid:
            print("VALID")
        else:
            print(
                f"INVALID {verdict.location} {verdict.predicate_id} {verdict.message}"
            )
            if args.diagnose:
                for failure in report.failures:
                    print(f"  {failure.location} {failure.predicate_id} {failure.message}")
        print(f"solutions checked: {report.solutions_checked}")
    return EXIT_VALID if verdict.valid else EXIT_INVALID


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _timeout_seconds(text: str) -> float:
    from .smtgen import check_timeout

    value = float(text)
    try:
        return check_timeout(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _plan(problem, certificate, block_size: Optional[int], jobs: int):
    """The assumption sets and the emission plan `emit` and `verify` write."""
    from .smtgen import EmissionPlan

    asets = compute_assumption_sets(problem, certificate)
    return asets, EmissionPlan.create(problem, certificate, block_size=block_size, workers=jobs)


def _total_bytes(files) -> int:
    """Bytes written across the given emitted files."""
    return sum(emitted.path.stat().st_size for emitted in files)


def _manifest_entry(emitted) -> dict:
    return {
        "path": str(emitted.path),
        "kind": emitted.kind,
        "first_k": emitted.first_k,
        "last_k": emitted.last_k,
    }


def cmd_emit(args: argparse.Namespace, data: bytes) -> int:
    from .smtgen import emit

    problem, certificate = parse_certificate(data)
    try:
        asets, plan = _plan(problem, certificate, args.block_size, args.jobs)
        files = emit(problem, certificate, asets, plan, args.out)
    except OSError as exc:
        print(f"cannot write to {args.out}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    if args.format == "json":
        payload = {"files": list(map(_manifest_entry, files)), "bytes": _total_bytes(files)}
        print(json.dumps(payload))
    else:
        for emitted in files:
            print(f"{emitted.path} {emitted.label}")
    return EXIT_VALID


def cmd_verify(args: argparse.Namespace, data: bytes) -> int:
    import tempfile

    from .smtgen import Aggregate, SolverSpawnError, dispatch, planned_files

    started = time.perf_counter()
    problem, certificate = parse_certificate(data)
    parse_seconds = time.perf_counter() - started
    solver = default_solver_command() if args.solver is None else args.solver
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="viprcert-") as scratch:
        try:
            # raises, before any file is written or solver started, on a
            # certificate it refuses; `dispatch` writes the files as it solves
            asets, plan = _plan(problem, certificate, args.block_size, args.jobs)
            files, write = planned_files(problem, certificate, asets, plan, scratch)
            result = dispatch(files, solver, jobs=args.jobs, timeout_s=args.timeout, write=write)
        except OSError as exc:
            print(f"cannot write SMT files: {exc}", file=sys.stderr)
            return EXIT_INTERNAL_ERROR
        except SolverSpawnError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL_ERROR
        elapsed = time.perf_counter() - started
        reports = list(zip(files, result.outcomes))  # one outcome per file, in file order
        if args.format == "json":
            # a cancelled file may or may not have been written: it never counts
            solved = [f for f, o in reports if o.status != "cancelled"]
            payload = {
                "verdict": result.aggregate.value,
                "files": [
                    {**_manifest_entry(f), "status": o.status, "detail": o.detail}
                    for f, o in reports
                ],
                "bytes": _total_bytes(solved),
                "timings": {"parse_s": parse_seconds, "verify_s": elapsed},
            }
            print(json.dumps(payload))
        else:
            for emitted, outcome in reports:
                detail = f" {outcome.detail}" if outcome.detail else ""
                print(f"{outcome.path} {emitted.label} {outcome.status}{detail}")
            print(result.aggregate.value.upper())
    if result.aggregate is Aggregate.VALID:
        return EXIT_VALID
    if result.aggregate is Aggregate.INVALID:
        return EXIT_INVALID
    return EXIT_INTERNAL_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viprcert",
        description="Skeptical verifier for VIPR 1.0 certificates of MILP results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate the certificate natively")
    check.add_argument("file")
    check.add_argument("--diagnose", action="store_true", help="report every failure")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.set_defaults(handler=cmd_check)

    emit_cmd = sub.add_parser("emit", help="write the formula as SMT-LIB files")
    emit_cmd.add_argument("file")
    emit_cmd.add_argument("--out", required=True, help="output directory")
    emit_cmd.add_argument("--block-size", type=_positive_int, default=None)
    emit_cmd.add_argument("--jobs", type=_positive_int, default=default_jobs())
    emit_cmd.add_argument("--format", choices=("text", "json"), default="text")
    emit_cmd.set_defaults(handler=cmd_emit)

    verify = sub.add_parser("verify", help="emit and dispatch to an SMT solver")
    verify.add_argument("file")
    verify.add_argument(
        "--solver",
        default=None,
        help="solver command; {} is replaced by the file path, otherwise the "
        f"path is appended (default: ${SOLVER_ENV_VAR} or the bundled evaluator)",
    )
    verify.add_argument("--jobs", type=_positive_int, default=default_jobs())
    verify.add_argument("--block-size", type=_positive_int, default=None)
    verify.add_argument(
        "--timeout", type=_timeout_seconds, default=300.0, help="seconds per file, in (0, 1e6]"
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # exit 1 must only ever mean "invalid certificate"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def _run(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_FORMAT_ERROR
    try:
        return args.handler(args, data)
    except ParseError as exc:
        print(
            f"parse error at line {exc.line}, column {exc.column}:"
            f" [{exc.kind.value}] {exc.message}",
            file=sys.stderr,
        )
        return EXIT_FORMAT_ERROR
    except EmptyConstraintSystem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
