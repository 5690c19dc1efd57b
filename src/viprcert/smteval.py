"""Evaluator for the ground SMT-LIB scripts that `viprcert.smtgen` writes.

A script with no declared symbols is a Boolean function of its
constants, so where no SMT solver is installed this command stands in
for one: it evaluates every `(assert ...)` over exact rationals and
answers `sat` exactly when all asserted terms are true.  It decides the
SMT route's verdict, so it reads the emitter's language and nothing else:
commands `set-logic`, `assert` and `check-sat`; atoms `true`, `false`
and numerals (ASCII digit strings); operators
`and or not = < <= > >= + - * / to_real to_int is_int`.  Anything else,
an operand of the wrong sort or count, division by zero or nesting
deeper than `MAX_DEPTH` is an `EvalError`.

Usage: viprcert-smteval FILE  (or `python -m viprcert.smteval FILE`).
Prints one answer per `(check-sat)` and exits 0; on a rejected script it
prints one `(error "...")` line and exits 1; an unreadable FILE exits 2.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction
from typing import Callable, Union

from .rational import unlimited_int_digits

Node = Union[str, list]
Value = Union[bool, int, Fraction]

MAX_DEPTH = 100  # emitted files nest at most 14 deep

_TOKEN = re.compile(r"[()]|[^()\s]+")


class EvalError(Exception):
    """The script is outside the evaluated language or has no value."""


def _fold(text: str, close: Callable[[list], object]) -> list:
    """The script's top-level applications as token lists, in which every
    nested application is replaced by `close` of it, innermost first."""
    stack: list[list] = []
    top: list = []
    for match in _TOKEN.finditer(text):
        token = match.group()
        if token == "(":
            if len(stack) == MAX_DEPTH:
                raise EvalError(f"terms nest deeper than {MAX_DEPTH}")
            stack.append(top)
            top = []
        elif token == ")":
            if not stack:
                raise EvalError("unbalanced ')'")
            done, top = top, stack.pop()
            top.append(close(done) if stack else done)
        else:
            top.append(token)
    if stack:
        raise EvalError("unbalanced '('")
    return top


def parse_script(text: str) -> list[Node]:
    """The script's top-level terms as nested lists of tokens."""
    return _fold(text, lambda node: node)


def _atom(token: str) -> Value:
    if token.isdigit() and token.isascii():
        return int(token)
    if token == "true" or token == "false":
        return token == "true"
    raise EvalError(f"unknown symbol {token!r} (script is not ground)")


def _chain(compare) -> Callable[[list], bool]:
    return lambda values: all(map(compare, values, values[1:]))


def _equal(values: list) -> bool:
    if len({isinstance(v, bool) for v in values}) > 1:
        raise EvalError("= applied to mixed Boolean/numeric operands")
    return all(values[0] == v for v in values[1:])


def _divide(values: list) -> Value:
    dividend, divisor = values[0], math.prod(values[1:])
    if divisor == 0:
        raise EvalError("division by zero")
    if dividend % divisor == 0:  # integral quotients stay Python ints
        return dividend // divisor
    return Fraction(dividend, divisor)


_BOOL, _NUMBER = frozenset({bool}), frozenset({int, Fraction})
_MANY = sys.maxsize
# operator -> (operand sorts, fewest operands, most operands, meaning)
_OPERATORS = {
    "not": (_BOOL, 1, 1, lambda v: not v[0]),
    "and": (_BOOL, 0, _MANY, all),
    "or": (_BOOL, 0, _MANY, any),
    "=": (_BOOL | _NUMBER, 2, _MANY, _equal),
    "<": (_NUMBER, 2, _MANY, _chain(operator.lt)),
    "<=": (_NUMBER, 2, _MANY, _chain(operator.le)),
    ">": (_NUMBER, 2, _MANY, _chain(operator.gt)),
    ">=": (_NUMBER, 2, _MANY, _chain(operator.ge)),
    "+": (_NUMBER, 0, _MANY, sum),
    "-": (_NUMBER, 1, _MANY, lambda v: -v[0] if len(v) == 1 else v[0] - sum(v[1:])),
    "*": (_NUMBER, 0, _MANY, math.prod),
    "/": (_NUMBER, 2, _MANY, _divide),
    "to_real": (_NUMBER, 1, 1, lambda v: Fraction(v[0])),
    "to_int": (_NUMBER, 1, 1, lambda v: math.floor(v[0])),
    "is_int": (_NUMBER, 1, 1, lambda v: v[0].denominator == 1),
}


def _apply(node: list) -> Value:
    """Value of an application whose operands are atoms or values."""
    try:
        sorts, fewest, most, meaning = _OPERATORS[node[0]]
    except (IndexError, KeyError, TypeError):
        raise EvalError(f"unsupported operator in {node[:1]!r}") from None
    values = [_atom(x) if isinstance(x, str) else x for x in node[1:]]
    if not fewest <= len(values) <= most:
        raise EvalError(f"{node[0]} given {len(values)} operands")
    if not set(map(type, values)) <= sorts:
        raise EvalError(f"{node[0]} applied to an operand of the wrong sort")
    return meaning(values)


def evaluate(node: Node) -> Value:
    """Value of a term given as a tree from `parse_script`."""
    if isinstance(node, str):
        return _atom(node)
    return _apply(node[:1] + [evaluate(operand) for operand in node[1:]])


def run_script(text: str, out=sys.stdout) -> bool:
    """Run the script as it is read; True when every check-sat printed sat."""
    assertions_hold = True
    all_sat = True
    for command in _fold(text, _apply):
        name = command[0] if isinstance(command, list) and command else None
        if name == "assert" and len(command) == 2:
            value = _apply(["and", command[1]])  # the term, checked Boolean
            assertions_hold = assertions_hold and value
        elif name == "check-sat":
            all_sat = all_sat and assertions_hold
            print("sat" if assertions_hold else "unsat", file=out)
        elif name != "set-logic":
            raise EvalError(f"unsupported command {name!r} or operand count")
    return all_sat


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: viprcert-smteval FILE", file=sys.stderr)
        return 2
    try:
        with open(args[0], encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"(error \"cannot read {args[0]}: {exc}\")", file=sys.stderr)
        return 2
    try:
        with unlimited_int_digits():
            run_script(text)
    except EvalError as exc:
        print(f"(error \"{exc}\")", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
