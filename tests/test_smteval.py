from __future__ import annotations

import io
import subprocess
import sys

import pytest

from conftest import SOLVER_COMMAND

from viprcert.rational import Rational
from viprcert.smteval import EvalError, evaluate, main, parse_script, run_script
from viprcert.smtgen import dispatch


def term(text: str):
    (node,) = parse_script(text)
    return node


def test_arithmetic():
    assert evaluate(term("(+ 1 2 3)")) == 6
    assert evaluate(term("(- 5)")) == -5
    assert evaluate(term("(- 5 1 1)")) == 3
    assert evaluate(term("(* 2 (/ 1 3))")) == Rational(2, 3)
    assert evaluate(term("(/ 1 4)")) == Rational(1, 4)


def test_floor_semantics_of_to_int():
    assert evaluate(term("(to_int (/ 1 2))")) == 0
    assert evaluate(term("(to_int (- (/ 1 2)))")) == -1
    assert evaluate(term("(- (to_int (- (/ 1 4))))")) == 1  # ceiling encoding
    assert evaluate(term("(to_real 3)")) == 3


def test_is_int():
    assert evaluate(term("(is_int (/ 4 2))")) is True
    assert evaluate(term("(is_int (/ 1 2))")) is False
    assert evaluate(term("(is_int 7)")) is True


def test_boolean_connectives():
    assert evaluate(term("(and true (or false true))")) is True


def test_chainable_comparisons():
    assert evaluate(term("(< 1 2 3)")) is True
    assert evaluate(term("(< 1 3 2)")) is False
    assert evaluate(term("(>= (/ 1 1) (/ 1 1) (/ 0 1))")) is True


def test_mixed_equality_is_rejected():
    with pytest.raises(EvalError):
        evaluate(term("(= true 1)"))


@pytest.mark.parametrize(
    "script",
    [
        "(assert (+ true 1))",
        "(assert (and 1 true))",
        "(assert (not 0))",
        "(assert (< true false))",
        "(assert (is_int false))",
        "(assert 1)",
        "(assert (= \u0661 1))",  # a digit, but not an ASCII one
        "(assert ())",
        "(assert ((and) true))",
        "true",
    ],
)
def test_ill_sorted_or_malformed_scripts_are_rejected(script):
    with pytest.raises(EvalError):
        run_script(script, out=io.StringIO())


@pytest.mark.parametrize("script", ["(check-sat)(assert true", "(assert true))"])
def test_unbalanced_parentheses_are_rejected(script):
    with pytest.raises(EvalError, match="unbalanced"):
        parse_script(script)
    with pytest.raises(EvalError, match="unbalanced"):
        run_script(script, out=io.StringIO())


def test_free_symbols_are_rejected():
    with pytest.raises(EvalError):
        evaluate(term("(+ x 1)"))


def test_division_by_zero_is_an_error():
    with pytest.raises(EvalError):
        evaluate(term("(/ 1 0)"))


def test_run_script_prints_sat_per_check():
    out = io.StringIO()
    ok = run_script("(set-logic ALL)(assert (= 1 1))(check-sat)", out=out)
    assert ok and out.getvalue() == "sat\n"
    out = io.StringIO()
    ok = run_script("(assert (= 1 2))(check-sat)", out=out)
    assert not ok and out.getvalue() == "unsat\n"


def test_unsupported_command_is_an_error():
    with pytest.raises(EvalError):
        run_script("(declare-const x Int)(check-sat)")


def test_command_line_interface(tmp_path):
    script = tmp_path / "ground.smt2"
    script.write_text("(set-logic ALL)\n(assert (>= (/ 1 4) (/ 0 1)))\n(check-sat)\n")
    result = subprocess.run(
        [sys.executable, "-m", "viprcert.smteval", str(script)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "sat"

    script.write_text("(assert (>= (/ 0 1) (/ 1 4)))\n(check-sat)\n")
    result = subprocess.run(
        [sys.executable, "-m", "viprcert.smteval", str(script)],
        capture_output=True,
        text=True,
    )
    assert result.stdout.strip() == "unsat"


# SMT-LIB beyond what `smtgen` emits; the evaluator must reject each one.
DROPPED_LANGUAGE = {
    "implies": "(assert (=> false false))",
    "xor": "(assert (xor true false))",
    "ite": "(assert (ite (< 1 2) (= 1 1) false))",
    "distinct": "(assert (distinct 1 2))",
    "abs": "(assert (= (abs 1) 1))",
    "decimal": "(assert (< 1.5 2))",
    "comment": "; header\n(assert true)",
    "quoted-symbol": "(assert (= |one| 1))",
    "echo": '(echo "x")',
    "set-info": "(set-info :status sat)",
    "exit": "(exit)",
}


@pytest.mark.parametrize("construct", DROPPED_LANGUAGE)
def test_dropped_language_fails_closed(construct, tmp_path):
    script = f"(set-logic ALL)\n{DROPPED_LANGUAGE[construct]}\n(check-sat)\n"
    with pytest.raises(EvalError):
        run_script(script, out=io.StringIO())
    path = tmp_path / "script.smt2"
    path.write_text(script)
    (outcome,) = dispatch([path], SOLVER_COMMAND, jobs=1, timeout_s=120).outcomes
    assert outcome.status == "error", outcome


@pytest.mark.parametrize("operator", ["is_int", "to_int", "to_real"])
def test_missing_operand_is_an_eval_error(operator):
    with pytest.raises(EvalError):
        evaluate(term(f"({operator})"))


def _main_output(script_bytes: bytes, tmp_path, capsys):
    path = tmp_path / "script.smt2"
    path.write_bytes(script_bytes)
    code = main([str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_arity_error_is_one_error_line(tmp_path, capsys):
    code, out, err = _main_output(b"(assert (is_int))\n(check-sat)\n", tmp_path, capsys)
    assert code == 1 and out == ""
    assert err.startswith('(error "') and err.count("\n") == 1


def test_undecodable_file_is_a_read_error(tmp_path, capsys):
    code, out, err = _main_output(b"(assert (= 1 1))\xff\n(check-sat)\n", tmp_path, capsys)
    assert code == 2 and out == ""
    assert err.startswith('(error "cannot read') and err.count("\n") == 1


def test_deep_nesting_is_an_eval_error(tmp_path, capsys):
    deep = "(not " * 5000 + "true" + ")" * 5000
    with pytest.raises(EvalError):
        run_script(f"(assert {deep})(check-sat)", out=io.StringIO())
    code, out, err = _main_output(f"(assert {deep})\n".encode(), tmp_path, capsys)
    assert code == 1 and err.startswith('(error "') and err.count("\n") == 1


def test_solver_child_loads_only_the_evaluator():
    heavy = ["parser", "checker", "smtgen", "model", "algebra", "oracle"]
    probe = (
        "import sys, viprcert.smteval; "
        f"print([m for m in {heavy!r} if 'viprcert.' + m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
