from __future__ import annotations

import io
import json
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, SOLVER_COMMAND, load_fixture
from test_scale_agreement import gen

from viprcert.parser import parse_certificate
from viprcert.rational import Rational, read_int
from viprcert.smteval import (
    _MANY,
    _OPERATORS,
    MAX_DEPTH,
    EvalError,
    _Reader,
    _tokens,
    main,
    run_script,
)
from viprcert.smtgen import EmissionPlan, dispatch, emit
from viprcert.spec import compute_assumption_sets


def evaluate(text: str):
    """The value of one term, read as the evaluator reads the operand of
    `(assert TERM)`: by `terms`, up to the `)` that closes the assert."""
    reader = _Reader(_tokens(text + ")"))
    values = reader.terms(1)
    assert next(reader.tokens, None) is None, "text left after the term"
    assert len(values) == 1, "not one term"
    return values[0]


def test_arithmetic():
    assert evaluate("(+ 1 2 3)") == 6
    assert evaluate("(- 5)") == -5
    assert evaluate("(- (- 5 1) 1)") == 3
    assert evaluate("(* 2 (/ 1 3))") == Rational(2, 3)
    assert evaluate("(/ 1 4)") == Rational(1, 4)


def test_floor_semantics_of_to_int():
    assert evaluate("(to_int (/ 1 2))") == 0
    assert evaluate("(to_int (- (/ 1 2)))") == -1
    assert evaluate("(- (to_int (- (/ 1 4))))") == 1  # ceiling encoding
    assert evaluate("(to_real 3)") == 3


def test_is_int():
    assert evaluate("(is_int (/ 4 2))") is True
    assert evaluate("(is_int (/ 1 2))") is False
    assert evaluate("(is_int 7)") is True


def test_boolean_connectives():
    assert evaluate("(and true (or false true))") is True


def test_chained_comparisons_are_rejected():
    # `emit` writes every comparison but `=` on two operands
    assert evaluate("(and (< 1 2) (< 2 3))") is True
    assert evaluate("(and (< 1 3) (< 3 2))") is False
    for term in ("(< 1 2 3)", "(< 1 3 2)", "(>= (/ 1 1) (/ 1 1) (/ 0 1))"):
        with pytest.raises(EvalError, match="given 3 operands"):
            evaluate(term)
    assert evaluate("(= 0 (- 1 1) (* 0 5))") is True


def test_mixed_equality_is_rejected():
    with pytest.raises(EvalError):
        evaluate("(= true 1)")


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


@pytest.mark.parametrize(
    "script",
    [
        "(check-sat)(assert true",
        "(assert true))",
        # the text ends inside a command or a let
        "(",
        "(set-logic",
        "(assert (let",
        "(assert (let ((a 1)",
    ],
)
def test_unbalanced_parentheses_are_rejected(script):
    with pytest.raises(EvalError, match="unbalanced"):
        run_script(script, out=io.StringIO())


def test_numerals_of_any_length_are_read(digit_limit):
    huge = "7" * 5000  # past CPython's default int <-> str digit limit
    assert run_script(
        f"(assert (and (< 1 {huge}) (< {huge} (+ {huge} 1))))(check-sat)", out=io.StringIO()
    )


def test_free_symbols_are_rejected():
    with pytest.raises(EvalError):
        evaluate("(+ x 1)")


def test_division_by_zero_is_an_error():
    with pytest.raises(EvalError):
        evaluate("(/ 1 0)")


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

    # the script a solver start is timed on (perfbench/layers.py)
    script.write_text("(check-sat)\n")
    result = subprocess.run(
        [sys.executable, "-m", "viprcert.smteval", str(script)],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "sat\n", "")


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
    "set-logic-without-name": "(set-logic)",
    "set-logic-two-names": "(set-logic A B)",
    "set-logic-a-term": "(set-logic (+ 1 2))",
    "set-logic-open-paren": "(set-logic ( )",
    "set-logic-close-paren": "(set-logic ) )",
    "check-sat-with-operand": "(check-sat 1)",
    # operators `smtgen` writes, on operand counts or sorts it never writes
    "and-empty": "(assert (and))",
    "or-one-operand": "(assert (or true))",
    "plus-empty": "(assert (= (+) 0))",
    "times-empty": "(assert (= (*) 1))",
    "times-three": "(assert (= (* 1 2 3) 6))",
    "less-three": "(assert (< 1 2 3))",
    "minus-three": "(assert (= (- 5 1 1) 3))",
    "divide-three": "(assert (= (/ 12 2 3) 2))",
    "equal-booleans": "(assert (= true false))",
    "other-logic": "(set-logic QF_LRA)",
}


@pytest.mark.parametrize("construct", DROPPED_LANGUAGE)
def test_dropped_language_fails_closed(construct, tmp_path, capsys):
    script = f"(set-logic ALL)\n{DROPPED_LANGUAGE[construct]}\n(check-sat)\n"
    with pytest.raises(EvalError):
        run_script(script, out=io.StringIO())
    path = tmp_path / "script.smt2"
    path.write_text(script)
    assert main([str(path)]) == 1  # `viprcert-smteval FILE`
    out, err = capsys.readouterr()
    assert out == "" and err.startswith('(error "') and err.count("\n") == 1
    (outcome,) = dispatch([path], SOLVER_COMMAND, jobs=1, timeout_s=120).outcomes
    assert outcome.status == "error", outcome


@pytest.mark.parametrize("operator", ["is_int", "to_int", "to_real"])
def test_missing_operand_is_an_eval_error(operator):
    with pytest.raises(EvalError):
        evaluate(f"({operator})")


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


def test_rejected_script_prints_nothing_on_stdout(tmp_path, capsys):
    code, out, err = _main_output(b"(check-sat)(exit)\n", tmp_path, capsys)
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


def test_solver_child_loads_only_the_evaluator(tmp_path):
    heavy = ["parser", "checker", "smtgen", "model", "algebra"]
    probe = (
        "import sys, viprcert.smteval; "
        f"print([m for m in {heavy!r} if 'viprcert.' + m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
    # a `--serve` worker, as `dispatch` starts it, after answering a file
    script = tmp_path / "script.smt2"
    script.write_text("(set-logic ALL)\n(assert (< 1 2))\n(check-sat)\n")
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "viprcert.smteval", "--serve"],
        input=json.dumps(str(script)) + "\n",
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout) == [0, "sat\n", ""]
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert "viprcert.rational" in imported  # `-m` runs smteval itself as `__main__`
    assert [m for m in heavy if "viprcert." + m in imported] == []


def test_let_binds_names_in_its_body():
    assert evaluate("(let ((a 2) (b (/ 1 2))) (= (* a b) 1))") is True
    assert evaluate("(let ((a1 (+ 1 2)) (b (- 3))) (and (is_int a1) (< b 0) (< 0 a1)))") is True
    assert evaluate("(let ((b (/ 7 2))) (to_real (to_int b)))") == 3


def test_a_bare_symbol_has_no_value():
    with pytest.raises(EvalError):
        evaluate("x")


def test_names_do_not_leak_across_commands():
    with pytest.raises(EvalError):
        run_script("(assert (let ((a true)) a))(assert a)(check-sat)", out=io.StringIO())


def test_sibling_lets_do_not_share_names():
    siblings = "(and (let ((a 1)) (= a 1)) (let ((a 2)) (= a 2)) (let ((b 3)) (= b 3)))"
    assert evaluate(siblings) is True
    with pytest.raises(EvalError):
        evaluate("(and (let ((a true)) a) (let ((b true)) a))")


def _nots(depth: int, atom: str) -> str:
    return "(not " * depth + atom + ")" * depth


# `let` outside the flat form `smtgen` writes; each must be rejected.
LET_FAIL_CLOSED = {
    "empty-bindings": "(let () true)",
    "binding-without-term": "(let ((a)) true)",
    "binding-with-two-terms": "(let ((a 1 2)) true)",
    "bindings-not-a-list": "(let (a 1) true)",
    "binding-name-parenthesized": "(let (((a) 1)) true)",
    "binding-name-a-term": "(let (((and) 1)) true)",
    "binding-term-not-a-value": "(let ((a (b 1))) true)",
    "binding-atom-not-a-binding": "(let ((a 1) b) true)",
    "duplicate-name": "(let ((a 1) (a 1)) (= a 1))",
    "name-numeral": "(let ((1 2)) true)",
    "name-true": "(let ((true false)) true)",
    "name-false": "(let ((false true)) false)",
    "name-operator": "(let ((and true)) true)",
    "name-arithmetic": "(let ((+ 1)) true)",
    "name-let": "(let ((let 1)) true)",
    "name-not-ascii": "(let ((á 1)) true)",
    "name-symbol-chars": "(let ((a-b 1)) true)",
    "term-sees-own-list": "(let ((a 1) (b a)) (= b 1))",
    "reference-after-close": "(and (let ((a true)) a) a)",
    "body-missing": "(let ((a true)))",
    "body-two-terms": "(let ((a true)) a a)",
    "body-not-a-term": "(let ((a true)) (c 1))",
    "bindings-an-atom": "(let true true)",
    "bindings-a-term": "(let (and) true)",
    "body-before-bindings": "(let true ((a true)))",
    "nested-in-body": "(let ((a 1)) (let ((b 2)) (= a b)))",
    "nested-in-binding": "(let ((a (let ((b 2)) b))) (= a 2))",
    "shadowing": "(let ((a 1)) (let ((a 2)) (= a 2)))",
    # one level too deep: assert, let, binding list and binding take four levels
    "deep-through-let": "(let ((a " + _nots(MAX_DEPTH - 3, "true") + ")) a)",
    # one level too deep: assert and let take two
    "body-one-too-deep": "(let ((a true)) " + _nots(MAX_DEPTH - 1, "a") + ")",
}


@pytest.mark.parametrize("case", LET_FAIL_CLOSED)
def test_let_fails_closed(case, tmp_path):
    script = f"(set-logic ALL)\n(assert {LET_FAIL_CLOSED[case]})\n(check-sat)\n"
    with pytest.raises(EvalError):
        run_script(script, out=io.StringIO())
    path = tmp_path / "script.smt2"
    path.write_text(script)
    (outcome,) = dispatch([path], SOLVER_COMMAND, jobs=1, timeout_s=120).outcomes
    assert outcome.status == "error", outcome


def test_a_let_whose_binding_list_would_nest_too_deep_is_rejected():
    # the let's own check: its binding list and first binding take two more
    # levels, though the binding's term is an atom that no level check sees
    def nested(nots: int) -> str:
        return f"(assert {_nots(nots, '(let ((a true)) a)')})(check-sat)"

    assert run_script(nested(MAX_DEPTH - 4), out=io.StringIO())
    for nots in (MAX_DEPTH - 3, MAX_DEPTH - 2):
        with pytest.raises(EvalError, match=f"terms nest deeper than {MAX_DEPTH}"):
            run_script(nested(nots), out=io.StringIO())


@pytest.mark.parametrize(
    "term, error",
    [
        ("", "assert takes one Boolean term"),
        ("true false", "assert takes one Boolean term"),
        ("1", "assert takes one Boolean term"),
        ("(let ((a)) true)", "let binding is not (symbol term)"),
        ("(let ((a true false)) a)", "let binding is not (symbol term)"),
        ("(let ((a true)))", "let takes one body term"),
        ("(let ((a true)) a a)", "let takes one body term"),
    ],
)
def test_each_reader_of_terms_checks_the_count(term, error):
    with pytest.raises(EvalError) as raised:
        run_script(f"(assert {term})(check-sat)", out=io.StringIO())
    assert str(raised.value) == error


def test_let_levels_count_toward_the_depth_limit():
    # outside a let, a term deeper than the binding term of `deep-through-let` is within it
    deep = _nots(MAX_DEPTH - 2, "true")
    assert run_script(f"(assert (or {deep} true))(check-sat)", out=io.StringIO())
    # one level less than the cases `deep-through-let` and `body-one-too-deep`
    in_binding = "(let ((a " + _nots(MAX_DEPTH - 4, "true") + ")) a)"
    in_body = "(let ((a true)) " + _nots(MAX_DEPTH - 2, "a") + ")"
    for term in (in_binding, in_body):
        assert run_script(f"(assert {term})(check-sat)", out=io.StringIO())


# --- tokenizer ----------------------------------------------------------------

_REGEX_TOKEN = re.compile(r"[()]|[^()\s]+")


def regex_tokens(text: str) -> list[str]:
    """The tokens as the evaluator once read them."""
    return [match.group() for match in _REGEX_TOKEN.finditer(text)]


PIECES = ["(", ")", "(let", "and", "a12", "b", "(/", "14", "3)", "-", "to_int", "á", "x.y"]
SEPARATORS = ["", " ", "  ", "\t", "\n", "\r\n", "\n\n", "\r\n\r\n", " ", " ",
              "　", "\x0b\x0c", "\x1c", "\x85", " "]


@st.composite
def layouts(draw):
    """Script-like text: emitter tokens, glued or split by any whitespace."""
    pieces = draw(st.lists(st.sampled_from(PIECES), max_size=40))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(pieces) + 1,
                         max_size=len(pieces) + 1))
    return seps[0] + "".join(p + s for p, s in zip(pieces, seps[1:]))


@settings(max_examples=300)
@given(layouts())
def test_split_tokens_match_the_regex_tokens(text):
    assert _tokens(text) == regex_tokens(text)


def test_split_and_regex_agree_on_every_code_point():
    text = "x".join(map(chr, range(0x110000)))
    assert _tokens(text) == regex_tokens(text)


# --- the `--serve` worker --------------------------------------------------------


def _serve(paths) -> list:
    """One `--serve` worker's answers to `paths`, all sent to it at once."""
    result = subprocess.run(
        [sys.executable, "-m", "viprcert.smteval", "--serve"],
        input="".join(json.dumps(str(path)) + "\n" for path in paths),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (result.returncode, result.stderr) == (0, "")
    return [json.loads(line) for line in result.stdout.splitlines()]


def test_a_worker_answers_every_file_as_the_command_does(tmp_path, capsys):
    paths = []
    for name in CORPUS:
        problem, certificate = load_fixture(name)
        plan = EmissionPlan.create(problem, certificate, block_size=1)
        asets = compute_assumption_sets(problem, certificate)
        paths += [f.path for f in emit(problem, certificate, asets, plan, tmp_path / name)]
    scripts = [f"(set-logic ALL)\n{command}\n(check-sat)\n" for command in DROPPED_LANGUAGE.values()]
    scripts += [f"(set-logic ALL)\n(assert {term})\n(check-sat)\n" for term in LET_FAIL_CLOSED.values()]
    for i, script in enumerate(scripts):
        paths.append(tmp_path / f"rejected{i}.smt2")
        paths[-1].write_text(script)
    paths.append(tmp_path / "undecodable.smt2")
    paths[-1].write_bytes(b"(assert (= 1 1))\xff\n(check-sat)\n")
    paths += [tmp_path / "missing.smt2", tmp_path]  # no such file; a directory
    random.Random(15).shuffle(paths)
    answers = _serve(paths)
    assert len(answers) == len(paths)
    statuses = set()
    for path, answer in zip(paths, answers):
        status = main([str(path)])
        captured = capsys.readouterr()
        assert answer == [status, captured.out, captured.err], path
        statuses.add(status)
    assert statuses == {0, 1, 2}


def test_a_worker_stops_at_a_line_that_is_not_a_path(tmp_path):
    script = tmp_path / "script.smt2"
    script.write_text("(assert true)(check-sat)")
    for bad in ("not json", "7", '["a.smt2"]'):
        result = subprocess.run(
            [sys.executable, "-m", "viprcert.smteval", "--serve"],
            input=f"{json.dumps(str(script))}\n{bad}\n{json.dumps(str(script))}\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert [json.loads(line) for line in result.stdout.splitlines()] == [[0, "sat\n", ""]]
        assert result.stderr.startswith('(error "not a JSON string')


# --- the inline term loop against the per-token reader ---------------------------


class PerTokenReader(_Reader):
    """The reference reader: each token read through `_next` and each
    atom through its own `atom`, the sorts checked as a set, and no unary
    `-` taken apart from the other operators, as the evaluator read terms
    before it read numerals inline."""

    def terms(self, depth: int):
        values = []
        while (token := self._next()) != ")":
            values.append(self.application(depth + 1) if token == "(" else self.atom(token))
        return values

    def atom(self, token: str):
        value = self.known.get(token)
        if value is not None:
            return value
        if token.isdigit() and token.isascii():
            return read_int(token)
        raise EvalError(f"unknown symbol {token!r} (script is not ground)")

    def application(self, depth: int):
        if depth > MAX_DEPTH:
            raise EvalError(f"terms nest deeper than {MAX_DEPTH}")
        head = self._next()
        if head == "let":
            return self.let(depth)
        try:
            sorts, fewest, most, meaning = _OPERATORS[head]
        except KeyError:
            raise EvalError(f"unsupported operator {head!r}") from None
        values = self.terms(depth)
        if not fewest <= len(values) <= most:
            raise EvalError(f"{head} given {len(values)} operands")
        if not set(map(type, values)) <= sorts:
            raise EvalError(f"{head} applied to an operand of the wrong sort")
        return meaning(values)


def _read(reader_class, text: str, as_term: bool):
    """What a reader makes of a script, or of the terms of a text closed
    by one more `)`: the answers, or each value with its type and the
    token after the `)`, or the error text."""
    reader = reader_class(_tokens(text + ")" if as_term else text))
    try:
        if not as_term:
            return reader.script()
        values = reader.terms(1)
    except EvalError as exc:
        return "error", str(exc)
    return [(type(value), value) for value in values], next(reader.tokens, None)


def assert_reads_as_the_per_token_reader(text: str, as_term: bool = False) -> None:
    assert _read(_Reader, text, as_term) == _read(PerTokenReader, text, as_term), text


def _emitted_scripts(out_dir) -> list[str]:
    """Every file emitted from the fixtures and from small generated
    certificates of each kind, valid and forged, at block size 1 and at
    the default."""
    models = [load_fixture(name) for name in CORPUS]
    for kind in gen.KINDS:
        model = gen.build(gen.Spec(n=6, m=12, derivations=40, kind=kind, split_depth=3), 1)
        for forgery in (None, "rnd", "split"):
            models.append(parse_certificate(gen.render(model, forgery, 1)[0]))
    scripts = []
    for i, (problem, certificate) in enumerate(models):
        asets = compute_assumption_sets(problem, certificate)
        for block_size in (1, None):
            plan = EmissionPlan.create(problem, certificate, block_size=block_size, workers=2)
            files = emit(problem, certificate, asets, plan, out_dir / f"{i}-{block_size}")
            scripts += [f.path.read_text() for f in files]
    return scripts


@pytest.fixture(scope="module")
def emitted_scripts(tmp_path_factory):
    return _emitted_scripts(tmp_path_factory.mktemp("emitted"))


def _operand_counts(scripts) -> dict[str, set[int]]:
    """How many operands each head is given in `scripts`, counted token by
    token: the reader takes `(- numeral)` apart from `_OPERATORS`, so only
    a walk over the tokens sees every application.  A let's binding list
    counts under the head `(`, each binding under its name."""
    counts: dict[str, set[int]] = {}
    for script in scripts:
        open_terms: list[list] = []  # [head, operands so far] of each open `(`
        for token in _tokens(script):
            if open_terms and open_terms[-1][0] is None:  # the token after `(`
                open_terms[-1][0] = token
                if token != "(":
                    continue
            if token == ")":
                head, operands = open_terms.pop()
                counts.setdefault(head, set()).add(operands)
                continue
            if open_terms:
                open_terms[-1][1] += 1
            if token == "(":
                open_terms.append([None, 0])
        assert open_terms == []
    return counts


def test_the_operator_table_admits_exactly_the_emitted_operand_counts(
    emitted_scripts, tmp_path
):
    from conftest import random_valid_certificate

    rng = random.Random(2718)
    scripts = list(emitted_scripts)
    for i in range(30):
        problem, certificate = random_valid_certificate(rng)
        asets = compute_assumption_sets(problem, certificate)
        for block_size in (1, None):
            plan = EmissionPlan.create(problem, certificate, block_size=block_size, workers=2)
            files = emit(problem, certificate, asets, plan, tmp_path / f"{i}-{block_size}")
            scripts += [f.path.read_text() for f in files]
    counts = _operand_counts(scripts)
    for head, (_, fewest, most, _) in _OPERATORS.items():
        emitted = counts[head]
        widest = max(emitted) if max(emitted) <= 2 else _MANY
        assert (fewest, most) == (min(emitted), widest), head
    assert all(script.startswith("(set-logic ALL)\n") for script in scripts)
    assert counts["set-logic"] == {1}


def test_emitted_files_read_as_the_per_token_reader_reads_them(emitted_scripts):
    answers = set()
    for script in emitted_scripts:
        assert_reads_as_the_per_token_reader(script)
        answers.update(_read(_Reader, script, as_term=False))
    assert answers == {True, False}  # the forged certificates have unsat files


def test_rejected_language_reads_as_the_per_token_reader_reads_it():
    scripts = [f"(set-logic ALL)\n{command}\n(check-sat)\n" for command in DROPPED_LANGUAGE.values()]
    scripts += [f"(set-logic ALL)\n(assert {term})\n(check-sat)\n" for term in LET_FAIL_CLOSED.values()]
    for script in scripts:
        assert _read(_Reader, script, as_term=False)[0] == "error"
        assert_reads_as_the_per_token_reader(script)


# atoms of every kind the reader tells apart: numerals, non-ASCII digits
# (`int` reads some, `isdigit` accepts others), Booleans, unknown and
# signed or decimal symbols, and tokens that are not atoms
TERM_ATOMS = ["0", "1", "7", "12", "0007", "٣", "²", "７", "true", "false",
              "x", "a1", "b", "-1", "1.5", "let", ")"]
TERM_HEADS = [*_OPERATORS, "let", "foo", "=>", "1", "("]
TERM_EDGES = ["(-)", "(- true)", "(- (/ 1 2))", "(- 3)", "(- (- 3))", "(- 1 true)",
              "(/ 1 0)", "(/ (- 1) 4)", "(= 0 true)", "(= true false 1)", "(< 1 (/ 1 2) true)",
              "(* 2 (/ 1 2))", "(let ((b 2)) (- b))", "(let ((b true)) (- b))", "(+ (- 1)"]


@st.composite
def terms(draw, depth: int = 0):
    """Term-like text: an atom, an edge case, a deep chain of one
    operator, or an application of any head to any operands."""
    choice = draw(st.integers(0, 9 if depth < 4 else 2))
    if choice <= 1:
        return draw(st.sampled_from(TERM_ATOMS))
    if choice == 2:
        return draw(st.sampled_from(TERM_EDGES))
    if choice == 3:
        head = draw(st.sampled_from(["-", "not", "to_real", "to_int", "+"]))
        nest = draw(st.integers(MAX_DEPTH - 3, MAX_DEPTH + 1))
        return f"({head} " * nest + draw(terms(depth + 1)) + ")" * nest
    head = draw(st.sampled_from(TERM_HEADS))
    operands = draw(st.lists(terms(depth + 1), max_size=4))
    return f"({' '.join([head, *operands])})"


@settings(max_examples=400)
@given(terms())
def test_terms_read_as_the_per_token_reader_reads_them(term):
    assert_reads_as_the_per_token_reader(term, as_term=True)
    assert_reads_as_the_per_token_reader(f"(set-logic ALL)(assert {term})(check-sat)")


def test_the_edge_terms_keep_their_values_and_errors():
    assert evaluate("(- 3)") == -3 and type(evaluate("(- 3)")) is int
    assert evaluate("(- (/ 1 2))") == Rational(-1, 2)
    assert evaluate("(/ (- 1) 4)") == Rational(-1, 4)
    assert evaluate("(/ (* (- 5) (- 2)) 2)") == 5 and type(evaluate("(/ 10 2)")) is int
    for term, error in [("(-)", "- given 0 operands"),
                        ("(- true)", "- applied to an operand of the wrong sort"),
                        ("(- ٣)", "unknown symbol '٣' (script is not ground)"),
                        ("(- 1", "unbalanced '('"),
                        ("(", "unbalanced '('")]:
        with pytest.raises(EvalError) as raised:  # an open assert: each error comes before its end
            run_script(f"(assert {term}", out=io.StringIO())
        assert str(raised.value) == error


def test_emitted_files_nest_at_most_eleven_deep(emitted_scripts):
    # the depth the reader counts: every `(`, the command's included
    deepest = 0
    for script in emitted_scripts:
        depth = 0
        for token in _tokens(script):
            depth += (token == "(") - (token == ")")
            deepest = max(deepest, depth)
    # the rounded bound of a `rnd` step in a block: assert, and, let, and, or,
    # and, >=, to_real, -, to_int, -
    assert deepest == 11
    assert 11 < MAX_DEPTH
