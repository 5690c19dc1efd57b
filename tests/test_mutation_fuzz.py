"""Mutation fuzz of the command line: every input ends in a documented
exit code, never in a crash.

The fixtures and small certificates from the benchmark's generator are
mutated by a token swap, deletion or insertion, a truncation, bytes that
are not UTF-8, or a count, index or value replaced by a 5000-digit one.
`check --diagnose` runs on each mutant in process, and `verify` with the
bundled evaluator on about one in six.  Whatever the mutant:

- the exit code is 0-3, and `check` exits 3 only for a certificate with
  no constraint at all;
- no output contains `internal error`;
- every exit 2 names a line and a column inside the file;
- `verify` exits as `check` does: the two routes agree.
"""

from __future__ import annotations

import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import CORPUS, SOLVER_COMMAND, fixture_path
from test_scale_agreement import gen

from viprcert.cli import main
from viprcert.parser import parse_certificate
from viprcert.rational import is_integer_literal

BASES = [fixture_path(name).read_bytes() for name in CORPUS] + [
    gen.render(gen.build(gen.Spec(n=3, m=4, derivations=12, kind=kind, split_depth=2), 1))[0]
    for kind in gen.KINDS
]
HUGE = "9" * 5000
EDGE_TOKENS = [
    "0", "-1", "+2", "1/0", "0.5", "1_0", "٣", "{", "}", "OBJ", "x", "-inf", "inf",
    "lin", "rnd", "uns", "asm", "sol", "E", "G", "L", "DER", "SOL", "RTP", HUGE,
]
NOT_UTF8 = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xc3("]
MUTATIONS = ["swap", "delete", "insert", "truncate", "not-utf8", "huge"]
_LOCATED = re.compile(r"parse error at line (\d+), column (\d+):")


def _is_number(token: bytes) -> bool:
    return all(is_integer_literal(part) for part in token.decode().split("/", 1))


@st.composite
def mutants(draw) -> bytes:
    data = draw(st.sampled_from(BASES))
    spans = [m.span() for m in re.finditer(rb"\S+", data)]
    kind = draw(st.sampled_from(MUTATIONS))
    pick = st.integers(0, len(spans) - 1)
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data)))]
    if kind == "not-utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    tokens = [data[a:b] for a, b in spans]
    numbers = [i for i, token in enumerate(tokens) if _is_number(token)]
    if kind == "swap":  # of two numbers, half the time, which often still parses
        pool = draw(st.sampled_from([range(len(tokens)), numbers]))
        i, j = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif kind == "delete":
        tokens[draw(pick)] = b""
    elif kind == "insert":
        new = draw(st.sampled_from(EDGE_TOKENS)).encode() + b" "
        i = draw(pick)
        tokens[i] = new + tokens[i]
    else:  # a count, an index or a value, 5000 digits long
        huge = draw(st.sampled_from([HUGE, f"-{HUGE}", f"1/{HUGE}", f"{HUGE}/7"]))
        tokens[draw(st.sampled_from(numbers))] = huge.encode()
    gaps = [data[: spans[0][0]]] + [data[b:c] for (_, b), (c, _) in zip(spans, spans[1:])]
    return b"".join(gap + token for gap, token in zip(gaps, tokens)) + data[spans[-1][1] :]


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


def _assert_located(data: bytes, output: str) -> None:
    match = _LOCATED.search(output)
    assert match, output
    line, column = int(match.group(1)), int(match.group(2))
    lines = data.split(b"\n")
    assert 1 <= line <= len(lines), output
    assert 1 <= column <= len(lines[line - 1]) + 1, output  # a character is at least a byte


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.vipr"


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=mutants(), diagnose_format=st.sampled_from(["text", "json"]), verify=st.integers(0, 5))
def test_mutated_certificates_end_in_a_documented_exit_code(
    mutant_path, data, diagnose_format, verify
):
    mutant_path.write_bytes(data)
    code, output = _run(["check", str(mutant_path), "--diagnose", "--format", diagnose_format])
    assert code in (0, 1, 2, 3), output
    assert "internal error" not in output
    if code == 2:
        _assert_located(data, output)
    if code == 3:
        problem, certificate = parse_certificate(data)
        assert problem.m + len(certificate.der) == 0, output
    if verify == 0:
        argv = ["verify", str(mutant_path), "--solver", SOLVER_COMMAND, "--jobs", "1"]
        verify_code, verify_output = _run(argv)
        assert "internal error" not in verify_output
        assert verify_code == code, verify_output
        if code == 2:
            assert verify_output == output
