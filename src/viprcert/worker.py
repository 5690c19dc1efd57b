"""The bundled evaluator's `--serve` workers, and what a solver's exit
status and output make of a file.

Standard library only, and no package module: `verify` imports this
module before the parser and `smtgen`, and starts its workers before it
imports those, so that the workers' interpreters start while the parent
imports and parses (see `viprcert.cli`).  `smtgen` imports it back for
`dispatch`.
"""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
import threading
from collections import namedtuple
from typing import Optional


class SolverSpawnError(Exception):
    """The solver command could not be started at all."""


class FileOutcome(namedtuple("FileOutcome", "path status detail", defaults=("",))):
    """A file's `Path` and what the solver made of it: status "sat",
    "unsat", "timeout", "error" or "cancelled", and a detail text."""

    __slots__ = ()


def _parse_solver_output(stdout: str) -> Optional[str]:
    lines = [line.strip() for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    first_token = lines[-1].split()[0].lower()
    if first_token in ("sat", "unsat", "unknown"):
        return first_token
    return None


def _outcome(path, returncode: int, stdout: str, stderr: str) -> FileOutcome:
    """What a solver's exit status and output make of the file at `path`."""
    if returncode != 0:
        output = stderr.strip() or stdout.strip()
        detail = f"exit {returncode}" + (f": {output}" if output else "")
        return FileOutcome(path, "error", detail[:500])
    answer = _parse_solver_output(stdout)
    if answer in ("sat", "unsat"):
        return FileOutcome(path, answer)
    detail = answer or (stderr.strip() or stdout.strip() or "no output")
    return FileOutcome(path, "error", detail[:500])


def _timed_out(path, timeout_s: float) -> FileOutcome:
    return FileOutcome(path, "timeout", f"no answer within {timeout_s}s")


def _spawn_error(argv: list[str], exc: OSError) -> SolverSpawnError:
    return SolverSpawnError(f"cannot start solver {argv[0]!r}: {exc}")


def bundled_solver_command() -> str:
    """The bundled evaluator, `viprcert.smteval`, as a solver command.
    `dispatch` runs this command as one `--serve` worker per thread
    instead of once per file."""
    return f"{shlex.quote(sys.executable)} -m viprcert.smteval {{}}"


class _Worker:
    """A solving thread's bundled evaluator: one `smteval --serve`
    process that answers every file the thread takes (see
    `viprcert.smteval`).  `verify` starts up to `min(jobs, CPUs)` of
    them before it parses; a thread takes one of those at its first
    file, or else starts its own there.  A timer kills the worker when a
    file's time limit passes; a worker that times out, exits or answers
    outside the protocol is stopped, and the next file starts a new one.
    Its stderr is read only as it stops.  A `--serve` worker skips the
    interpreter's finalization when its stdin ends, so it exits at
    once."""

    def __init__(self, argv: Optional[list[str]] = None) -> None:
        # by default, the `--serve` form of `bundled_solver_command`
        self.argv = argv or [sys.executable, "-m", "viprcert.smteval", "--serve"]
        self.process: Optional[subprocess.Popen] = None

    def start(self) -> "_Worker":
        pipe = subprocess.PIPE
        try:
            self.process = subprocess.Popen(self.argv, stdin=pipe, stdout=pipe, stderr=pipe)
        except OSError as exc:
            raise _spawn_error(self.argv, exc) from exc
        return self

    def ask(self, path, timeout_s: float) -> FileOutcome:
        if self.process is None:
            self.start()
        process, expired = self.process, threading.Event()

        def expire() -> None:
            expired.set()
            process.kill()

        timer = threading.Timer(timeout_s, expire)  # it covers what is left of the start
        timer.start()
        try:
            try:
                process.stdin.write(json.dumps(str(path)).encode() + b"\n")
                process.stdin.flush()
            except OSError:  # it has exited (EPIPE, or EINVAL on Windows): the read says how
                pass
            line = process.stdout.readline()
        finally:
            timer.cancel()
            timer.join()  # it has killed the worker, or never will
        if expired.is_set():
            self.stop(kill=True)
            return _timed_out(path, timeout_s)
        if not line.endswith(b"\n"):  # it exited without an answer
            returncode, stderr = self.stop()
            return _outcome(path, returncode, "", stderr)
        try:
            answer = json.loads(line)
            returncode, stdout, stderr = answer
            if list(map(type, answer)) != [int, str, str]:
                raise TypeError
        except (ValueError, TypeError):
            self.stop(kill=True)
            return FileOutcome(path, "error", f"malformed worker answer: {line[:400]!r}")
        return _outcome(path, returncode, stdout, stderr)

    def stop(self, kill: bool = False) -> tuple[int, str]:
        """End the worker, at once if `kill` and otherwise by closing its
        stdin, and wait for it: its exit status and stderr."""
        process, self.process = self.process, None
        if process is None:
            return 0, ""
        if kill:
            process.kill()
        _, stderr = process.communicate()
        return process.returncode, stderr.decode(errors="replace")


def start_workers(count: int) -> list[_Worker]:
    """Up to `count` started workers: fewer if one cannot be started,
    which leaves that error to the first file a thread asks about."""
    workers: list[_Worker] = []
    try:
        for _ in range(count):
            workers.append(_Worker().start())
    except SolverSpawnError:
        pass
    return workers
