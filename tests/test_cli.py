from __future__ import annotations

import errno
import json
import os
import shlex
import subprocess
import sys
import threading

import pytest

from conftest import SOLVER_COMMAND, all_stopped, fixture_path
from test_scale_agreement import gen

from viprcert import cli, parser, smtgen
from viprcert.checker import check_certificate, final_violation, sol_violations
from viprcert.cli import main
from viprcert.parser import parse_certificate
from viprcert.smtgen import EmissionPlan, der_constraint_expr, emit, final_expr, sol_expr
from viprcert.spec import RtpFlags, compute_assumption_sets


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


COMMANDS = ("check", "emit", "verify")


def command_argv(command, path, tmp_path):
    """Arguments that run `command` on `path` up to reading and parsing."""
    extra = ["--out", str(tmp_path / "out")] if command == "emit" else []
    return [command, str(path), *extra]


def test_check_valid_fixture(capsys):
    code = main(["check", str(fixture_path("manipulated1"))])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "VALID"


def test_check_forged1(capsys):
    code = main(["check", str(fixture_path("forged1"))])
    out = capsys.readouterr().out
    assert code == 1
    headline = out.splitlines()[0]
    assert headline.startswith("INVALID Der(5) sol-domination")


def test_check_forged2_states_no_solution_was_checked(capsys):
    code = main(["check", str(fixture_path("forged2"))])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[0].startswith("INVALID Final der-final")
    assert "solutions checked: 0" in out


@pytest.mark.parametrize("command", COMMANDS)
def test_check_missing_file(command, tmp_path, capsys):
    assert main(command_argv(command, "missing.vipr", tmp_path)) == 2
    assert "missing.vipr" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_check_parse_error_reports_position(command, tmp_path, capsys):
    bad = tmp_path / "bad.vipr"
    bad.write_text("VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0.5\n")
    assert main(command_argv(command, bad, tmp_path)) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_check_json_format(capsys):
    code = main(["check", str(fixture_path("forged1")), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["verdict"] == "invalid"
    assert payload["location"] == "Der(5)"
    assert payload["predicate_id"] == "sol-domination"
    assert payload["solutions_checked"] == 1
    assert set(payload["timings"]) == {"parse_s", "check_s"}


def test_check_diagnose_lists_every_failure(tmp_path, capsys):
    # two bad derivations: diagnosis must show both, headline the first
    text = (
        "VER 1.0\nVAR 1\nx\nINT 1\n0\nOBJ min\n0\nCON 1 0\nC1 G 1 1 0 1\n"
        "RTP infeas\nSOL 0\nDER 2\n"
        "D1 G 5 1 0 1 { lin 1 0 1 } -1\n"
        "D2 G 1 0 { lin 1 0 1 } -1\n"
    )
    f = tmp_path / "two.vipr"
    f.write_text(text)
    code = main(["check", str(f), "--diagnose"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[0].startswith("INVALID Der(2)")
    assert sum("Der(" in line for line in out.splitlines()) >= 2


def test_emit_manifest(tmp_path, capsys):
    code = main(
        ["emit", str(fixture_path("cert0")), "--out", str(tmp_path), "--block-size", "3"]
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 6
    assert out[0].endswith(" sol")
    assert "block[4..6]" in out[1]
    assert out[-1].endswith(" final")


def test_emit_empty_der(tmp_path, capsys):
    code = main(["emit", str(fixture_path("forged2")), "--out", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 2


def test_emit_unwritable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["emit", str(fixture_path("cert0")), "--out", str(blocker / "sub")])
    assert code == 3
    assert capsys.readouterr().err


def test_verify_fixtures(capsys):
    assert main(["verify", str(fixture_path("manipulated1")), "--solver", SOLVER_COMMAND]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("VALID")
    assert main(["verify", str(fixture_path("forged2")), "--solver", SOLVER_COMMAND]) == 1
    out = capsys.readouterr().out
    assert "unsat" in out and out.strip().endswith("INVALID")


def test_verify_jobs_do_not_change_the_exit_code(capsys):
    codes = {
        main(
            [
                "verify",
                str(fixture_path("forged1")),
                "--solver",
                SOLVER_COMMAND,
                "--jobs",
                str(jobs),
            ]
        )
        for jobs in (1, 8)
    }
    capsys.readouterr()
    assert codes == {1}


def test_verify_solver_spawn_error(capsys):
    code = main(
        ["verify", str(fixture_path("cert0")), "--solver", "/no/such/solver {}"]
    )
    assert code == 3
    assert "cannot start solver" in capsys.readouterr().err


def test_verify_is_an_error_when_no_file_is_unsat_but_one_is_unknown(capsys):
    solver = f"{shlex.quote(sys.executable)} -c \"print('unknown')\" {{}}"
    argv = ["verify", str(fixture_path("cert0")), "--solver", solver]
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "ERROR" and all(line.endswith(" error unknown") for line in lines[:-1])
    assert main([*argv, "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "error"
    assert payload["files"] and {f["status"] for f in payload["files"]} == {"error"}


@pytest.mark.parametrize("solver", ["", " "])
def test_verify_empty_solver_command_is_an_infrastructure_failure(solver, monkeypatch, capsys):
    monkeypatch.setenv("VIPRCERT_SOLVER", SOLVER_COMMAND)
    assert main(["verify", str(fixture_path("cert0")), "--solver", solver]) == 3
    captured = capsys.readouterr()
    assert "empty solver command" in captured.err
    assert captured.out == ""


def test_verify_json(capsys):
    code = main(
        ["verify", str(fixture_path("forged2")), "--solver", SOLVER_COMMAND, "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["verdict"] == "invalid"
    statuses = {entry["kind"]: entry["status"] for entry in payload["files"]}
    assert statuses["final"] == "unsat"
    assert set(payload["timings"]) == {"parse_s", "verify_s"}
    assert all(seconds >= 0 for seconds in payload["timings"].values())


def test_emit_and_verify_json_report_the_bytes_written(tmp_path, capsys):
    sizing = ["--block-size", "2", "--jobs", "1", "--format", "json"]
    out = tmp_path / "out"
    assert main(["emit", str(fixture_path("cert0")), "--out", str(out), *sizing]) == 0
    emitted = json.loads(capsys.readouterr().out)
    on_disk = sum(path.stat().st_size for path in out.iterdir())
    assert emitted["bytes"] == on_disk > 0
    assert main(["verify", str(fixture_path("cert0")), "--solver", SOLVER_COMMAND, *sizing]) == 0
    verified = json.loads(capsys.readouterr().out)
    assert verified["bytes"] == on_disk


def test_verify_uses_env_solver_by_default(monkeypatch, capsys):
    monkeypatch.setenv("VIPRCERT_SOLVER", SOLVER_COMMAND)
    assert main(["verify", str(fixture_path("forged2"))]) == 1
    capsys.readouterr()


def test_verify_falls_back_to_bundled_evaluator(monkeypatch, capsys):
    monkeypatch.delenv("VIPRCERT_SOLVER", raising=False)
    assert main(["verify", str(fixture_path("manipulated1"))]) == 0
    capsys.readouterr()


def test_check_and_verify_exit_codes_agree_on_the_corpus(capsys):
    from conftest import CORPUS

    for name in CORPUS:
        path = str(fixture_path(name))
        native = main(["check", path])
        smt = main(["verify", path, "--solver", SOLVER_COMMAND])
        capsys.readouterr()
        assert native == smt, name


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "viprcert.cli", "check", str(fixture_path("cert0"))],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "VALID"


# Runs `main(argv)` in a fresh interpreter and prints, in the order
# given, which of the comma-separated modules it newly imported: modules
# present before the import of the CLI (a `.pth` file may preload some)
# do not count.
_COLD_START_PROBE = """\
import sys
before = set(sys.modules)
from viprcert.cli import main
code = main(sys.argv[2:])
print([m for m in sys.argv[1].split(",") if m in sys.modules and m not in before])
sys.exit(code)
"""


@pytest.mark.parametrize(
    "command, watched, loaded",
    [
        (
            "check",
            (
                "viprcert.checker",
                "viprcert.spec",
                "viprcert.smtgen",
                "viprcert.worker",
                "subprocess",
                "concurrent.futures",
                "dataclasses",
            ),
            ["viprcert.checker", "viprcert.spec"],
        ),
        (
            "verify",
            (
                "viprcert.checker",
                "viprcert.algebra",
                "viprcert.spec",
                "viprcert.smtgen",
                "concurrent.futures",
                "dataclasses",
            ),
            ["viprcert.spec", "viprcert.smtgen"],
        ),
    ],
)
def test_each_command_imports_only_the_code_it_runs(command, watched, loaded):
    argv = [command, str(fixture_path("cert0"))]
    result = subprocess.run(
        [sys.executable, "-c", _COLD_START_PROBE, ",".join(watched), *argv],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == repr(loaded)


# Runs `main(argv)` in a fresh interpreter and prints which of the parser
# and `smtgen` had been imported when the first process started.
_FIRST_POPEN_PROBE = """\
import subprocess, sys
real, seen = subprocess.Popen, []
def popen(*args, **kwargs):
    if not seen:
        seen.append([m for m in ("viprcert.parser", "viprcert.smtgen") if m in sys.modules])
    return real(*args, **kwargs)
subprocess.Popen = popen
from viprcert.cli import main
code = main(sys.argv[1:])
print(seen)
sys.exit(code)
"""


def test_verify_starts_its_first_worker_before_it_imports_the_parser_and_smtgen():
    env = {name: value for name, value in os.environ.items() if name != "VIPRCERT_SOLVER"}
    argv = ["verify", str(fixture_path("cert0"))]
    result = subprocess.run(
        [sys.executable, "-c", _FIRST_POPEN_PROBE, *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[[]]"


def test_the_smt_route_loads_no_native_checker():
    probe = "import json, sys, viprcert.smtgen; print(json.dumps(list(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert "viprcert.smtgen" in loaded
    assert not {"viprcert.checker", "viprcert.algebra"} & loaded


def test_the_block_size_help_names_the_default_block_cap():
    # written out in `cli`, so that `check` need not import `smtgen`
    assert f"ceil(derivations / {smtgen.DEFAULT_BLOCK_CAP})" in cli._BLOCK_SIZE


def test_nonpositive_block_size_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["emit", str(fixture_path("cert0")), "--out", str(tmp_path), "--block-size", "0"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf", "1e400", "1e7"])
def test_timeout_outside_its_range_is_a_usage_error(seconds, capsys):
    argv = ["verify", str(fixture_path("cert0")), "--solver", SOLVER_COMMAND]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--timeout", seconds])
    assert info.value.code == 2
    assert "--timeout" in capsys.readouterr().err


def test_verify_json_describes_files_as_emit_does(tmp_path, capsys):
    flags = ["--block-size", "3", "--jobs", "1", "--format", "json"]
    assert main(["emit", str(fixture_path("cert0")), "--out", str(tmp_path), *flags]) == 0
    manifest = json.loads(capsys.readouterr().out)["files"]
    assert main(["verify", str(fixture_path("cert0")), "--solver", SOLVER_COMMAND, *flags]) == 0
    verified = json.loads(capsys.readouterr().out)["files"]
    assert [(entry.pop("status"), entry.pop("detail")) for entry in verified] == [
        ("sat", "")
    ] * len(manifest)
    for entry in manifest + verified:  # verify writes to a temporary directory
        entry["path"] = os.path.basename(entry["path"])
    assert verified == manifest
    assert [entry["kind"] for entry in manifest] == ["sol", *["block"] * 4, "final"]


_NO_CONSTRAINTS = "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 0 0\nRTP infeas\nSOL 0\nDER 0\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_check_empty_constraint_system_is_an_internal_error(command, tmp_path, capsys):
    f = tmp_path / "empty.vipr"
    f.write_text(_NO_CONSTRAINTS)
    assert main(command_argv(command, f, tmp_path)) == 3
    assert capsys.readouterr().err
    if command == "emit":  # the failure leaves no partial output
        assert not list(tmp_path.glob("out/**/*.smt2"))


@pytest.mark.parametrize("command", COMMANDS)
def test_non_utf8_input_is_a_located_parse_error(command, tmp_path, capsys):
    bad = tmp_path / "latin1.vipr"
    bad.write_bytes(b"VER 1.0\nVAR 1\nx\xe9\n")
    assert main(command_argv(command, bad, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error at line 3, column 2: [UnexpectedToken]")
    assert "Traceback" not in err


def test_verify_report_is_the_same_on_every_run(capsys):
    reports = set()
    for _ in range(4):
        argv = ["verify", str(fixture_path("forged1")), "--jobs", "2", "--solver", SOLVER_COMMAND]
        assert main(argv) == 1
        # each run writes to its own temporary directory: keep the file names
        lines = capsys.readouterr().out.splitlines()
        reports.add(tuple(line.rsplit("/", 1)[-1] for line in lines))
    assert len(reports) == 1, reports


def test_verify_starts_no_worker_on_a_certificate_with_no_constraints(tmp_path, started, capsys):
    f = tmp_path / "empty.vipr"
    f.write_text(_NO_CONSTRAINTS)
    assert main(["verify", str(f), "--solver", SOLVER_COMMAND]) == 3
    assert "requires a last constraint" in capsys.readouterr().err
    assert started == []


@pytest.mark.parametrize("given", [True, False], ids=["solver-given", "bundled"])
def test_a_write_error_stops_verify_and_every_worker(given, started, monkeypatch, capsys):
    # cert0 has m = 3: at block size 1, block 2 is der_0005_0005.smt2
    write_script, ask, asked = smtgen._write_script, smtgen._Worker.ask, []

    def write_or_fail(path, expression):
        if path.name == "der_0005_0005.smt2":
            raise OSError(errno.ENOSPC, "No space left on device")
        write_script(path, expression)

    def logged_ask(worker, path, timeout_s):
        asked.append(path.name)
        return ask(worker, path, timeout_s)

    monkeypatch.setattr(smtgen, "_write_script", write_or_fail)
    monkeypatch.setattr(smtgen._Worker, "ask", logged_ask)
    monkeypatch.delenv("VIPRCERT_SOLVER", raising=False)
    before = threading.active_count()
    argv = ["verify", str(fixture_path("cert0")), "--block-size", "1", "--jobs", "2"]
    assert main([*argv, "--solver", SOLVER_COMMAND] if given else argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write SMT files: ") and "No space left" in captured.err
    assert captured.out == ""
    assert set(asked) <= {"sol.smt2", "der_0004_0004.smt2"}
    # each started at an asked file, or, with the bundled evaluator, before the parse
    early = 0 if given else min(2, cli.default_jobs())
    assert len(started) <= len(asked) + early and all_stopped(started)
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "text, code, err",
    [
        (
            fixture_path("cert0").read_text()[:300],
            2,
            "parse error at line 20, column 26: [BadIndex] unexpected end of input,"
            " expected derivation 5 constraint index\n",
        ),
        (
            _NO_CONSTRAINTS,
            3,
            "error: the relation to prove requires a last constraint, but there are none\n",
        ),
    ],
    ids=["parse-error", "refused-by-the-plan"],
)
def test_an_early_exit_of_verify_stops_every_worker_it_started(
    text, code, err, tmp_path, started, monkeypatch, capsys
):
    monkeypatch.delenv("VIPRCERT_SOLVER", raising=False)
    path = tmp_path / "early.vipr"
    path.write_text(text)
    assert main(["verify", str(path)]) == code
    assert capsys.readouterr() == ("", err)
    assert started and all_stopped(started)  # started before the parse


@pytest.mark.parametrize("given", ["option", "environment"])
def test_no_worker_starts_before_the_first_write_when_a_solver_is_given(
    given, started, monkeypatch, capsys
):
    write_script, at_first_write = smtgen._write_script, []

    def counting_write(path, expression):
        if not at_first_write:
            at_first_write.append(len(started))
        write_script(path, expression)

    monkeypatch.setattr(smtgen, "_write_script", counting_write)
    argv = ["verify", str(fixture_path("cert0"))]
    if given == "option":
        monkeypatch.delenv("VIPRCERT_SOLVER", raising=False)
        argv += ["--solver", SOLVER_COMMAND]
    else:
        monkeypatch.setenv("VIPRCERT_SOLVER", SOLVER_COMMAND)
    assert main(argv) == 0
    capsys.readouterr()
    assert at_first_write == [0]
    assert started and all_stopped(started)


def test_verify_starts_at_most_one_worker_per_cpu_before_the_parse(started, monkeypatch, capsys):
    monkeypatch.delenv("VIPRCERT_SOLVER", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parse, at_parse = parser.parse_certificate, []

    def counting_parse(data):
        at_parse.append(len(started))
        return parse(data)

    monkeypatch.setattr(parser, "parse_certificate", counting_parse)
    assert main(["verify", str(fixture_path("cert0")), "--jobs", "64"]) == 0
    capsys.readouterr()
    assert at_parse == [2] and all_stopped(started)


def test_a_worker_that_cannot_start_before_the_parse_is_the_error_of_the_first_file(
    monkeypatch, capsys
):
    monkeypatch.delenv("VIPRCERT_SOLVER", raising=False)
    monkeypatch.setattr(sys, "executable", "/no/such/python")
    assert main(["verify", str(fixture_path("cert0"))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot start solver '/no/such/python': ")


def _forged_generated_certificate(tmp_path):
    """A generated certificate whose step Der(26) is forged: at block size
    3 its block is the 5th of 12."""
    model = gen.build(gen.Spec(n=6, m=12, derivations=40, kind="lower", split_depth=2), 3)
    text, expected = gen.render(model, "lin", 3)
    assert expected.location == "Der(26)"
    path = tmp_path / "forged.vipr"
    path.write_bytes(text)
    return path


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_verify_json_reports_the_same_bytes_on_every_run(jobs, tmp_path, capsys):
    # the files after the unsat one are reported cancelled, written or not,
    # and `bytes` counts only the others
    cases = [(fixture_path("forged1"), "1", 1), (_forged_generated_certificate(tmp_path), "3", 12)]
    for path, block_size, blocks in cases:
        sizing = ["--block-size", block_size, "--jobs", str(jobs)]
        out = tmp_path / f"emitted-{block_size}"
        assert main(["emit", str(path), "--out", str(out), *sizing]) == 0
        capsys.readouterr()
        reports = set()
        for _ in range(5):
            argv = ["verify", str(path), "--solver", SOLVER_COMMAND, "--format", "json", *sizing]
            assert main(argv) == 1
            payload = json.loads(capsys.readouterr().out)
            files = [(os.path.basename(f["path"]), f["status"]) for f in payload["files"]]
            reports.add((payload["verdict"], tuple(files), payload["bytes"]))
        assert len(reports) == 1, reports
        ((verdict, files, size),) = reports
        statuses = [status for _, status in files]
        assert len(files) == blocks + 2 and statuses.count("unsat") == 1
        assert statuses[-1] == "cancelled"
        assert size == sum((out / name).stat().st_size for name, s in files if s != "cancelled")
        assert verdict == "invalid"


def _huge_infeasible_certificate(tmp_path):
    """x >= N and x <= N - 1 with a 5000-digit N: 0 >= 1 follows.  The
    digits stay text here, beyond the interpreter's default int limit."""
    digits = "1" + "0" * 4998
    text = (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 2 0\n"
        f"lo G {digits}7 1 0 1\nhi L {digits}6 1 0 1\n"
        "RTP infeas\nSOL 0\nDER 1\nabsurd G 1 0 { lin 2 0 1 1 -1 } -1\n"
    )
    path = tmp_path / "huge.vipr"
    path.write_text(text)
    return path


@pytest.mark.parametrize("command", ("check", "verify"))
def test_huge_literals_keep_the_verdict_exit_code(command, tmp_path, capsys, digit_limit):
    path = _huge_infeasible_certificate(tmp_path)
    extra = ["--solver", SOLVER_COMMAND] if command == "verify" else []
    assert main([command, str(path), *extra]) == 0
    captured = capsys.readouterr()
    assert "VALID" in captured.out.splitlines()
    assert "Traceback" not in captured.err


def test_library_calls_accept_huge_literals_on_their_own(tmp_path, digit_limit):
    """The library reads, prints and writes the 5000-digit literals the
    command line accepts, and leaves the interpreter's limit as it was."""
    limit = sys.get_int_max_str_digits()
    text = _huge_infeasible_certificate(tmp_path).read_text()
    problem, certificate = parse_certificate(text)
    assert check_certificate(problem, certificate).valid
    asets = compute_assumption_sets(problem, certificate)
    plan = EmissionPlan.create(problem, certificate)
    files = emit(problem, certificate, asets, plan, tmp_path / "smt")
    huge = "1" + "0" * 4998 + "7"
    assert any(huge in emitted.path.read_text() for emitted in files)
    # no derivation and a 5000-digit lower bound: the message prints it
    text = text[: text.index("RTP")] + f"RTP range {huge} inf\nSOL 0\nDER 0\n"
    verdict = check_certificate(*parse_certificate(text))
    assert verdict.location == "Final" and f">= {huge})" in verdict.message
    assert sys.get_int_max_str_digits() == limit


def test_check_and_emit_parts_print_huge_literals_on_their_own(digit_limit):
    """The per-part helpers the benchmark's tracer calls directly print a
    5000-digit bound and coordinate without a caller lifting the limit."""
    huge = "1" + "0" * 4998 + "7"
    text = (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n1 0 1\nCON 1 0\nc G 0 1 0 1\n"
        f"RTP range {huge} {huge}\nSOL 1\npt 1 0 {huge}1\nDER 1\nd G 0 OBJ {{ sol }} -1\n"
    )
    limit = sys.get_int_max_str_digits()
    problem, certificate = parse_certificate(text)
    flags = RtpFlags.of(problem, certificate)
    asets = compute_assumption_sets(problem, certificate)
    (bound,) = sol_violations(problem, certificate, flags)
    assert bound.message == f"no listed solution achieves objective value <= {huge}"
    assert f"(>= {huge})" in final_violation(problem, certificate, asets, flags).message
    assert f"{huge}1" in sol_expr(problem, certificate, flags)
    assert huge in final_expr(problem, certificate, asets, flags)
    assert f"{huge}1" in der_constraint_expr(problem, certificate, 2)
    assert sys.get_int_max_str_digits() == limit


_SMALL_CERTIFICATE = (
    "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n1 0 1\nCON 1 0\nc G 1 1 0 1\n"
    "RTP range -inf inf\nSOL 0\nDER 1\nd G 1 1 0 1 { lin 1 0 1 } -1\n"
)
_LONG, _DIGITS = 100_000, "9" * 5000

# (what the huge token replaces, the token, the kind, the message up to it)
HUGE_TOKENS = {
    "keyword": ("VAR", "V" * _LONG, "MissingSection", "expected 'VAR', found 'VVV"),
    "version": ("1.0", "1" * _LONG, "UnexpectedToken", "unsupported version '111"),
    "integer": ("VAR 1", "VAR " + "x" * _LONG, "BadCount", "expected variable count, found 'xxx"),
    "count": ("VAR 1", f"VAR -{_DIGITS}", "BadCount", "negative variable count: -999"),
    "sense": ("min", "m" * _LONG, "UnknownSense", "expected min or max, found 'mmm"),
    "sense-letter": ("c G", "c " + "G" * _LONG, "UnknownSense", "expected E, G or L, found 'GGG"),
    "index": ("1 0 1\nCON", f"1 {_DIGITS} 1\nCON", "BadIndex",
              "objective variable index 999"),
    "bound-count": ("CON 1 0", f"CON 1 {_DIGITS}", "BadCount", "bound-constraint count 999"),
    "relation": ("range", "r" * _LONG, "UnexpectedToken", "expected infeas or range, found 'rrr"),
    "reason": ("lin", "l" * _LONG, "UnknownReason", "unknown reason 'lll"),
    "trailing": ("} -1\n", "} -1\n" + "z" * _LONG, "TrailingGarbage",
                 "unexpected content after last derivation: 'zzz"),
    "decimal": ("c G 1", "c G " + "1" * 1_000_000 + ".5", "DecimalNotation",
                "decimal notation is not accepted, write a fraction instead: '111"),
    "zero-denominator": ("c G 1", f"c G {_DIGITS}/0", "UnexpectedToken",
                         "zero denominator: '999"),
    "malformed": ("c G 1", "c G " + "1" * _LONG + "x", "UnexpectedToken",
                  "not an integer or p/q fraction: '111"),
}


@pytest.mark.parametrize("case", HUGE_TOKENS)
def test_parse_errors_show_a_bounded_excerpt_of_a_huge_token(case, tmp_path, capsys, digit_limit):
    replaced, text, kind, message = HUGE_TOKENS[case]
    assert _SMALL_CERTIFICATE.count(replaced) == 1
    certificate = _SMALL_CERTIFICATE.replace(replaced, text)
    token = max(certificate.split(), key=len)
    line = certificate[: certificate.index(token)].count("\n") + 1
    column = certificate.index(token) - certificate.rfind("\n", 0, certificate.index(token))
    path = tmp_path / "bad.vipr"
    path.write_text(certificate)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error at line {line}, column {column}: [{kind}] {message}")
    assert f"... ({len(token)} characters)" in err
    assert len(err) < 250 and err.count("\n") == 1, err


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("viprcert.checker.failures", explode)
    assert main(["check", str(fixture_path("cert0"))]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
