"""Evaluator for the ground SMT-LIB scripts that `viprcert.smtgen` writes.

A script with no declared symbols is a Boolean function of its
constants, so where no SMT solver is installed this command stands in
for one: it evaluates every `(assert ...)` over exact rationals and
answers `sat` exactly when all asserted terms are true.  It decides the
SMT route's verdict, so it reads the emitter's language and nothing else,
each construct where the emitter writes it: the commands
`(set-logic ALL)`, `(assert TERM)` and `(check-sat)`; atoms `true`,
`false` and numerals (ASCII digit strings); operators `not to_real
to_int is_int` on one operand, `< <= > >= * /` on two, `-` on one or
two, `and or + =` on two or more, with `=` over numbers only; and the flat
`(let ((name term) ...) body)`, with distinct names that are not bound
already.  Anything else, an operand of the wrong sort or count, division
by zero or nesting deeper than `MAX_DEPTH` is an `EvalError`.

Usage: viprcert-smteval FILE  (or `python -m viprcert.smteval FILE`).
Prints one answer per `(check-sat)` and exits 0; a rejected script
prints nothing on stdout and one `(error "...")` line on stderr, and
exits 1; an unreadable FILE exits 2.

Usage: viprcert-smteval --serve  (or `python -m viprcert.smteval --serve`).
Evaluates many files in one process, as `viprcert.smtgen.dispatch` runs
the bundled evaluator: each stdin line is a path as a JSON string, and
each answer is one stdout line, the JSON list `[status, stdout, stderr]`
of what `viprcert-smteval PATH` would exit with and print.  Each file is
read afresh, so nothing carries from one file to the next.  While
serving, the process writes nothing else on stdout and nothing on
stderr; it exits 0 at the end of stdin, and exits 2 with one
`(error "...")` line on stderr at a line that is not a JSON string.
"""

from __future__ import annotations

import io
import json
import math
import operator
import sys
from fractions import Fraction
from typing import Callable, Union

from .rational import read_int

Value = Union[bool, int, Fraction]

MAX_DEPTH = 100  # emitted files nest at most 11 deep (tests/test_smteval.py pins it)


class EvalError(Exception):
    """The script is outside the evaluated language or has no value."""


def _tokens(text: str) -> list[str]:
    r"""The tokens of `[()]|[^()\s]+`: `str.split` and `re`'s `\s` agree
    on what is whitespace."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _chain(compare) -> Callable[[list], bool]:
    return lambda values: all(map(compare, values, values[1:]))


def _divide(values: list) -> Value:
    dividend, divisor = values
    if divisor == 0:
        raise EvalError("division by zero")
    if dividend % divisor == 0:  # integral quotients stay Python ints
        return dividend // divisor
    return Fraction(dividend, divisor)


_BOOL, _NUMBER = frozenset({bool}), frozenset({int, Fraction})
_MANY = sys.maxsize
# operator -> (operand sorts, fewest operands, most operands, meaning), as
# `smtgen` writes them (tests/test_smteval.py pins the counts)
_OPERATORS = {
    "not": (_BOOL, 1, 1, lambda v: not v[0]),
    "and": (_BOOL, 2, _MANY, all),
    "or": (_BOOL, 2, _MANY, any),
    "=": (_NUMBER, 2, _MANY, _chain(operator.eq)),
    "<": (_NUMBER, 2, 2, _chain(operator.lt)),
    "<=": (_NUMBER, 2, 2, _chain(operator.le)),
    ">": (_NUMBER, 2, 2, _chain(operator.gt)),
    ">=": (_NUMBER, 2, 2, _chain(operator.ge)),
    "+": (_NUMBER, 2, _MANY, sum),
    "-": (_NUMBER, 1, 2, lambda v: -v[0] if len(v) == 1 else v[0] - v[1]),
    "*": (_NUMBER, 2, 2, math.prod),
    "/": (_NUMBER, 2, 2, _divide),
    "to_real": (_NUMBER, 1, 1, lambda v: Fraction(v[0])),
    "to_int": (_NUMBER, 1, 1, lambda v: math.floor(v[0])),
    "is_int": (_NUMBER, 1, 1, lambda v: v[0].denominator == 1),
}


_RESERVED = frozenset({"let", "true", "false", *_OPERATORS})


class _Reader:
    """Reads a script's tokens once, front to back, by recursive descent:
    each construct is read where the emitter writes it, each application
    is applied as its `)` is read, so no tree is kept, and `terms` reads
    every term: operands, asserted terms, let bindings and let bodies.

    `let` is the flat form `smtgen` writes: a non-empty list of distinct
    `(name term)` bindings, in which the terms see no name of that list,
    and one body term, in which the names are in scope until the let
    closes.  A let inside another let is rejected, so no name is ever
    shadowed.  `depth` counts the parentheses open around what is read,
    binding lists and bindings included."""

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = iter(tokens)
        # also the let's names, and every numeral read so far (no name is a numeral)
        self.known: dict[str, Value] = {"true": True, "false": False}
        self.in_let = False

    def _next(self) -> str:
        token = next(self.tokens, None)
        if token is None:
            raise EvalError("unbalanced '('")
        return token

    def _expect(self, token: str, error: str) -> None:
        if self._next() != token:
            raise EvalError(error)

    def script(self) -> list[bool]:
        """The answer to each check-sat: whether every assert before it holds."""
        holds, answers = True, []
        for token in self.tokens:
            if token != "(":
                raise EvalError("unbalanced ')'" if token == ")" else f"{token!r} is not a command")
            command = self._next()
            if command == "assert":
                values = self.terms(1)
                if len(values) != 1 or type(values[0]) is not bool:
                    raise EvalError("assert takes one Boolean term")
                holds = holds and values[0]
                continue  # `terms` has read the assert's `)`
            if command == "check-sat":
                answers.append(holds)
            elif command == "set-logic":
                if self._next() != "ALL":
                    raise EvalError("set-logic takes only ALL")
            else:
                raise EvalError(f"unsupported command {command!r}")
            self._expect(")", f"{command} given too many operands")
        return answers

    def terms(self, depth: int) -> list[Value]:
        """The values of the terms up to the next `)`, which is read."""
        values, known = [], self.known
        for token in self.tokens:
            if token == ")":
                return values
            if token == "(":
                values.append(self.application(depth + 1))
            elif (value := known.get(token)) is not None:
                values.append(value)
            elif token.isdigit() and token.isascii():
                try:
                    known[token] = value = int(token)  # each numeral is read once per script
                except ValueError:  # past the interpreter's digit limit
                    value = read_int(token)
                values.append(value)
            else:
                raise EvalError(f"unknown symbol {token!r} (script is not ground)")
        raise EvalError("unbalanced '('")

    def application(self, depth: int) -> Value:
        """The value of `(op operand ...)` or of a let, whose `(` is read."""
        if depth > MAX_DEPTH:
            raise EvalError(f"terms nest deeper than {MAX_DEPTH}")
        head = next(self.tokens, None)
        if head == "let":
            return self.let(depth)
        try:
            sorts, fewest, most, meaning = _OPERATORS[head]
        except KeyError:
            if head is None:
                raise EvalError("unbalanced '('") from None
            raise EvalError(f"unsupported operator {head!r}") from None
        values = self.terms(depth)
        if head == "-" and len(values) == 1 and type(values[0]) is int:  # a negative numeral
            return -values[0]
        if not fewest <= len(values) <= most:
            raise EvalError(f"{head} given {len(values)} operands")
        for value in values:
            if type(value) not in sorts:
                raise EvalError(f"{head} applied to an operand of the wrong sort")
        return meaning(values)

    def let(self, depth: int) -> Value:
        """The value of `(let ((name term) ...) body)`, whose `(let` is read."""
        if self.in_let:
            raise EvalError("let inside another let")
        self.in_let = True
        if depth + 2 > MAX_DEPTH:  # the binding list and its first binding
            raise EvalError(f"terms nest deeper than {MAX_DEPTH}")
        self._expect("(", "let takes a binding list first")
        bound: dict[str, Value] = {}
        while (token := self._next()) == "(":
            name = self._next()
            if not (name.isascii() and name.isidentifier()) or name in _RESERVED:
                raise EvalError(f"let cannot bind {name!r}")
            if name in bound:
                raise EvalError("let binds a name twice")
            values = self.terms(depth + 2)
            if len(values) != 1:
                raise EvalError("let binding is not (symbol term)")
            bound[name] = values[0]
        if token != ")" or not bound:
            raise EvalError("let bindings must be a non-empty list of (symbol term)")
        self.known.update(bound)
        values = self.terms(depth)
        if len(values) != 1:
            raise EvalError("let takes one body term")
        for name in bound:
            del self.known[name]
        self.in_let = False
        return values[0]


def run_script(text: str, out=sys.stdout) -> bool:
    """Read the whole script, then print one answer per check-sat; True
    when every answer is sat.  A rejected script prints nothing.
    Numerals of any length are read (`rational.read_int`)."""
    answers = _Reader(_tokens(text)).script()
    for holds in answers:
        print("sat" if holds else "unsat", file=out)
    return all(answers)


def evaluate_file(path: str, out, err) -> int:
    """Evaluate the script at `path`, printing its answers on `out` and
    an error on `err`; the exit status of `viprcert-smteval path`."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"(error \"cannot read {path}: {exc}\")", file=err)
        return 2
    try:
        run_script(text, out)
    except EvalError as exc:
        print(f"(error \"{exc}\")", file=err)
        return 1
    return 0


def serve() -> int:
    """Answer each stdin line, a path as a JSON string, with one stdout
    line `[status, stdout, stderr]`: what `evaluate_file` returns and prints."""
    for line in sys.stdin:
        try:
            path = json.loads(line)
        except ValueError:
            path = None
        if not isinstance(path, str):
            print(f"(error \"not a JSON string: {line.strip()[:100]}\")", file=sys.stderr)
            return 2
        out, err = io.StringIO(), io.StringIO()
        status = evaluate_file(path, out, err)
        sys.stdout.write(json.dumps([status, out.getvalue(), err.getvalue()]) + "\n")
        sys.stdout.flush()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["--serve"]:
        return serve()
    if len(args) != 1:
        print("usage: viprcert-smteval FILE | viprcert-smteval --serve", file=sys.stderr)
        return 2
    return evaluate_file(args[0], sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
