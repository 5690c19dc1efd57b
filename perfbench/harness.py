"""Workloads, the closed loop over the command line, and the verdict gate."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 3
SETUP_MIN_S = 1.0        # small pools repeat more, so one hiccup is not the median
RUN_LIMIT_S = 170.0      # the whole run must end within 180 s
LOOP_LIMIT_S = 120.0     # never start an invocation after this


# --- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    """One certificate of a workload pool and the commands run on it."""

    name: str
    spec: gen.Spec
    model_seed: int
    forgery: Optional[str]
    commands: tuple


# why each one exists is recorded in BENCHMARK.json and README.md
WORKLOADS = ("native-large", "smt-medium", "small-many")


def _forgeries_for(kind: str) -> list[str]:
    kinds = ["lin", "rnd", "uns", "split"]
    if kind != "infeas":
        kinds += ["soldom", "feas"]
    if kind in ("lower", "upper", "optimal"):
        kinds.append("final")
    return kinds


def pool(workload: str, seed: int) -> list[Item]:
    """The workload's certificates; the same seed gives the same pool."""
    rng = random.Random(f"{workload}:{seed}")
    items = []
    if workload == "native-large":
        # one model, so every invocation does the same work: a valid
        # certificate and three forgeries of it
        spec = gen.Spec(n=100, m=300, derivations=5000, kind="optimal", split_depth=12)
        model_seed = rng.randrange(2**32)
        forgeries = [None] + rng.sample(_forgeries_for("optimal"), 3)
        for forgery in forgeries:
            items.append(Item(f"large-{forgery or 'valid'}", spec, model_seed, forgery, ("check",)))
    elif workload == "smt-medium":
        for t, (kind, forged) in enumerate(
            (("optimal", False), ("infeas", True), ("upper", False), ("optimal", True))
        ):
            spec = gen.Spec(n=50, m=150, derivations=2000, kind=kind, split_depth=8)
            forgery = rng.choice(_forgeries_for(kind)) if forged else None
            items.append(Item(f"medium{t}-{kind}-{forgery or 'valid'}", spec,
                              rng.randrange(2**32), forgery, ("verify",)))
    elif workload == "small-many":
        # shapes are fixed per position, so the seed changes content only
        for t in range(40):
            kind = gen.KINDS[t % len(gen.KINDS)]
            spec = gen.Spec(n=4 + t % 7, m=8 + 2 * (t % 7), derivations=20 + 10 * (t % 5),
                            kind=kind, split_depth=1 + t % 3)
            forgery = rng.choice(_forgeries_for(kind)) if t % 2 else None
            items.append(Item(f"small{t:02d}-{kind}-{forgery or 'valid'}", spec,
                              rng.randrange(2**32), forgery, ("check", "verify")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


@dataclass
class Cert:
    item: Item
    path: Path
    derivations: int
    expected: gen.Expected
    size: int
    reasons: dict
    max_assumptions: int


def write_pool(items: list[Item], out_dir: Path) -> tuple[list[Cert], str]:
    """Generate and write every certificate; returns them and a digest of
    the bytes written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    certs = []
    models: dict = {}
    for item in items:
        key = (item.spec, item.model_seed)
        if key not in models:
            models[key] = gen.build(item.spec, item.model_seed)
        model = models[key]
        text, expected = gen.render(model, item.forgery, item.model_seed)
        path = out_dir / f"{item.name}.vipr"
        path.write_bytes(text)
        digest.update(text)
        certs.append(Cert(item, path, model.derivations, expected, len(text), model.reasons,
                          model.max_assumptions))
    return certs, digest.hexdigest()


# --- running the command line ------------------------------------------------


@dataclass
class Invocation:
    cert: Cert
    command: str
    wall_s: float
    maxrss_mb: float
    ok: bool
    why: str


def child_env(work: Path, pythonpath: bool = True) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "VIPRCERT_SOLVER")}
    if pythonpath:
        # the package is not installed: the CLI and the solver children it
        # spawns both need src on the path
        env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_child(argv: list[str], env: dict, out_path: Path, timeout_s: float):
    """Run argv to completion; returns (wall seconds, child-tree max RSS in
    MB, exit code or None on timeout, stdout text)."""
    with open(out_path, "wb") as out:
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
            env=env, cwd=ROOT, start_new_session=True,
        )
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass    # ended on its own as the timer fired

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_text(encoding="utf-8", errors="replace")
    code = None if timed_out.is_set() else process.returncode
    return wall, usage.ru_maxrss / 1024.0, code, text


_OUTCOME = re.compile(
    r"^(?P<path>.+) (?P<label>sol|final|block\[(?P<a>\d+)\.\.(?P<b>\d+)\]) "
    r"(?P<status>sat|unsat|timeout|error|cancelled)(?: .*)?$"
)


def judge(command: str, code: Optional[int], output: str, expected: gen.Expected):
    """(ok, reason) for one invocation's exit code and output."""
    lines = [line for line in output.splitlines() if line.strip()]
    if code is None:
        return False, "timeout"
    if code not in (0, 1):
        return False, f"exit {code}: {' | '.join(lines[-3:])[:300]}"
    verdict = "valid" if code == 0 else "invalid"
    if expected.valid != (code == 0):
        return False, f"exit {code}, expected {'valid' if expected.valid else 'invalid'}"
    if command == "check":
        head = lines[0] if lines else ""
        want = "VALID" if expected.valid else f"INVALID {expected.location} {expected.predicate} "
        if not (head == want if expected.valid else head.startswith(want)):
            return False, f"first line {head[:200]!r}, expected {want!r}"
        return True, ""
    outcomes = [m for m in map(_OUTCOME.match, lines) if m]
    final_line = lines[-1] if lines else ""
    if final_line != verdict.upper() or not outcomes:
        return False, f"aggregate line {final_line[:200]!r}"
    statuses = [m["status"] for m in outcomes]
    if any(s in ("error", "timeout") for s in statuses):
        return False, f"solver statuses {statuses}"
    if expected.valid:
        return all(s == "sat" for s in statuses), f"statuses {statuses}"
    unsat = [m for m in outcomes if m["status"] == "unsat"]

    def at_location(m) -> bool:
        if expected.area == "block":
            return m["a"] is not None and int(m["a"]) <= expected.k <= int(m["b"])
        return m["label"] == expected.area

    if len(unsat) != 1 or not at_location(unsat[0]):
        return False, f"unsat files {[m['label'] for m in unsat]}, expected {expected.location}"
    return True, ""


def invoke(cert: Cert, command: str, work: Path, timeout_s: float, env: dict) -> Invocation:
    argv = [sys.executable, "-m", "viprcert.cli", command, str(cert.path)]
    wall, rss, code, text = run_child(argv, env, work / "child.out", timeout_s)
    ok, why = judge(command, code, text, cert.expected)
    return Invocation(cert, command, wall, rss, ok, why)


def gate_selftest(cert: Cert, work: Path) -> tuple[bool, str]:
    """The correctness gate must reject a verify whose solver children
    cannot import the package: they fail at once, and verify exits 3 fast."""
    argv = [
        sys.executable, "-c",
        "import sys; sys.path.insert(0, sys.argv.pop(1)); "
        "from viprcert.cli import main; sys.exit(main())",
        str(SRC), "verify", str(cert.path),
    ]
    _, _, code, text = run_child(argv, child_env(work, pythonpath=False), work / "gate.out", 60)
    ok, why = judge("verify", code, text, cert.expected)
    return (not ok and code == 3), why


# --- reporting -----------------------------------------------------------------


def loadavg() -> Optional[list[str]]:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment() -> dict:
    commit = None
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        # only this checkout's own repository, not one that encloses it
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "loadavg_start": loadavg(),
        "git_commit": commit,
        "platform": platform.platform(),
    }


def tail(values: list[float]) -> Optional[tuple[float, float, int]]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value, n); None when that percentile would not reach the
    median."""
    n = len(values)
    beyond = 10
    if n < 2 * beyond:
        return None
    ordered = sorted(values)
    rank = n - beyond            # ten samples strictly above this one
    percentile = 100.0 * rank / n
    return percentile, ordered[rank - 1], n


def summarize(invocations: list[Invocation]) -> dict:
    """Per-command figures for the readable report."""
    summary = {}
    for command in ("check", "verify"):
        runs = [i for i in invocations if i.command == command]
        if not runs:
            continue
        walls = [i.wall_s for i in runs]
        entry = {
            "invocations": len(runs),
            "derivs_per_s": sum(i.cert.derivations for i in runs) / sum(walls),
            "p50_s": statistics.median(walls),
            "failed": sum(not i.ok for i in runs),
        }
        t = tail(walls)
        if t is not None:
            entry["tail"] = {"percentile": round(t[0], 1), "s": t[1], "n": t[2]}
        summary[command] = entry
    return summary


def emit_result(report: dict, result: dict, workload: str, seed: int, detail: list) -> None:
    """Print the report and the result line; keep a copy with every
    invocation's wall time and RSS under the work directory."""
    report["environment"]["loadavg_end"] = loadavg()
    for key, value in report.items():
        print(f"# {key}: {json.dumps(value, default=str)}")
    (WORK / f"report-{workload}-{seed}-trace{report['trace']}.json").write_text(
        json.dumps({"report": report, "result": result, "invocations": detail}, indent=1,
                   default=str)
    )
    print(json.dumps(result))


# --- main ------------------------------------------------------------------------


def timed_loop(certs: list[Cert], seconds: float, work: Path, started: float) -> list[list]:
    """Closed loop, one client: the next invocation starts when the last one
    ended.  Returns the invocations grouped per certificate; every command
    of a certificate runs before the clock is read again."""
    env = child_env(work)
    groups = []
    loop_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if groups and (now - loop_start >= seconds or now - started >= LOOP_LIMIT_S):
            break
        cert = certs[len(groups) % len(certs)]
        group = []
        for command in cert.item.commands:
            timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - started))
            group.append(invoke(cert, command, work, timeout, env))
        groups.append(group)
    return groups


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Time viprcert to verdict on a seeded workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "viprcert" / "cli.py").is_file():
        print(f"error: no viprcert sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(),
        }
        items = pool(args.workload, args.seed)

        # set-up: generate and write the pool several times; same bytes each time
        setup_times, digests = [], []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            t0 = time.perf_counter()
            certs, digest = write_pool(items, work / "certs")
            setup_times.append(time.perf_counter() - t0)
            digests.append(digest)
        deterministic = len(set(digests)) == 1
        report["pool"] = {
            "certificates": len(certs),
            "derivations": [c.derivations for c in certs],
            "reasons": {r: sum(c.reasons.get(r, 0) for c in certs) for r in gen.REASONS},
            "max_assumption_set": max(c.max_assumptions for c in certs),
            "bytes": sum(c.size for c in certs),
            "sha256": digests[0],
            "same_bytes_each_setup": deterministic,
            "setup_s": setup_times,
        }

        # untimed: compile bytecode, and prove the gate rejects a broken solver path
        probe = write_pool([Item("probe", gen.Spec(6, 10, 20, "optimal", 1), args.seed, None,
                                 ("check",))], work / "probe")[0][0]
        warm = invoke(probe, "check", work, 60, child_env(work))
        gate_ok, gate_detail = gate_selftest(probe, work)
        report["gate"] = {"warm_up_ok": warm.ok, "rejects_missing_solver_path": gate_ok,
                          "detail": gate_detail}
        checks_ok = deterministic and warm.ok and gate_ok

        if args.trace:
            import layers  # noqa: PLC0415  (imports the package under test)

            def cli(cert: Cert, command: str) -> Invocation:
                timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - started))
                return invoke(cert, command, work, timeout, child_env(work))

            outcome = layers.run(args.workload, certs, work, report, cli)
            detail = []
            result = {
                "correct": checks_ok and outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
            }
        else:
            groups = timed_loop(certs, args.seconds, work, started)
            invocations = [i for group in groups for i in group]
            # a certificate's time to verdict: its commands, run in order
            verdict_s = [sum(i.wall_s for i in group) for group in groups]
            derivations = sum(i.cert.derivations for i in invocations)
            failures = [i for i in invocations if not i.ok]
            report["commands"] = summarize(invocations)
            report["failed_ratio"] = len(failures) / len(invocations)
            report["failures"] = [
                f"{i.command} {i.cert.item.name}: {i.why}" for i in failures[:10]
            ]
            detail = [[i.cert.item.name, i.command, i.wall_s, i.maxrss_mb] for i in invocations]
            result = {
                "correct": checks_ok and not failures,
                "attempted": len(invocations),
                "failed": len(failures),
                "metrics": {
                    "derivs_per_s": {"value": derivations / sum(verdict_s), "unit": "1/s"},
                    "verdict_p50_s": {"value": statistics.median(verdict_s), "unit": "s"},
                    "peak_rss_mb": {"value": max(i.maxrss_mb for i in invocations), "unit": "MB"},
                    "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                },
            }
        report["run_s"] = time.perf_counter() - started
        emit_result(report, result, args.workload, args.seed, detail)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)

