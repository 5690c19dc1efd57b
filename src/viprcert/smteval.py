"""Evaluator for the ground SMT-LIB scripts that `viprcert.smtgen` writes.

A script with no declared symbols is a Boolean function of its
constants, so where no SMT solver is installed this command stands in
for one: it evaluates every `(assert ...)` over exact rationals and
answers `sat` exactly when all asserted terms are true.  It decides the
SMT route's verdict, so it reads the emitter's language and nothing else:
commands `set-logic`, `assert` and `check-sat`; atoms `true`, `false`
and numerals (ASCII digit strings); operators
`and or not = < <= > >= + - * / to_real to_int is_int`; and the flat
`(let ((name term) ...) body)`, with distinct names that are not bound
already.  Anything else, an operand of the wrong sort or count, division
by zero or nesting deeper than `MAX_DEPTH` is an `EvalError`.

Usage: viprcert-smteval FILE  (or `python -m viprcert.smteval FILE`).
Prints one answer per `(check-sat)` and exits 0; on a rejected script it
prints one `(error "...")` line and exits 1; an unreadable FILE exits 2.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import Callable, Union

from .rational import unlimited_int_digits

Node = Union[str, list]
Value = Union[bool, int, Fraction]

MAX_DEPTH = 100  # emitted files nest at most 11 deep


class EvalError(Exception):
    """The script is outside the evaluated language or has no value."""


def _tokens(text: str) -> list[str]:
    r"""The tokens of `[()]|[^()\s]+`: `str.split` and `re`'s `\s` agree
    on what is whitespace."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _fold(
    tokens: list[str], known: dict, unknown: Callable, close: Callable, stack: list
) -> list:
    """The script's top-level applications as lists, one frame per open
    parenthesis.  An operand token is read as its value in `known`, else
    as `unknown(token, frame)`; a nested application becomes `close` of
    it, innermost first, called while its enclosing frames are still on
    `stack`."""
    top: list = []
    for token in tokens:
        if token == "(":
            if len(stack) == MAX_DEPTH:
                raise EvalError(f"terms nest deeper than {MAX_DEPTH}")
            stack.append(top)
            top = []
        elif token == ")":
            if not stack:
                raise EvalError("unbalanced ')'")
            done = close(top) if len(stack) > 1 else top
            top = stack.pop()
            top.append(done)
        elif top:
            value = known.get(token)
            top.append(unknown(token, top) if value is None else value)
        else:
            top.append(token)  # the head: an operator, a command or a name to bind
    if stack:
        raise EvalError("unbalanced '('")
    return top


def parse_script(text: str) -> list[Node]:
    """The script's top-level terms as nested lists of tokens."""
    return _fold(_tokens(text), {}, lambda token, frame: token, lambda node: node, [])


def _chain(compare) -> Callable[[list], bool]:
    return lambda values: all(map(compare, values, values[1:]))


def _equal(values: list) -> bool:
    sorts = set(map(type, values))
    if bool in sorts and len(sorts) > 1:
        raise EvalError("= applied to mixed Boolean/numeric operands")
    return values.count(values[0]) == len(values)


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


class _Binding(tuple):
    """`(name value)` read inside a let's binding list."""


class _Scope(tuple):
    """The names a let's binding list has put in scope."""


class _Evaluator:
    """Reads a script in one pass: operands are resolved as they are read,
    and each application is applied as its `)` is read, so no tree is kept.

    `let` is the flat form `smtgen` writes: a non-empty list of distinct
    `(name term)` bindings, in which the terms see no name of that list,
    and one body term, in which the names are in scope until the let
    closes.  A let inside another let is rejected, so no name is ever
    shadowed."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.known: dict[str, Value] = {"true": True, "false": False}

    def commands(self, tokens: list[str]) -> list:
        return _fold(tokens, self.known, self._unknown, self._close, self.stack)

    def _unknown(self, token: str, frame: list):
        if token.isdigit() and token.isascii():
            value = self.known[token] = int(token)
            return value
        if len(self.stack) == 1 and frame[0] == "set-logic":
            return token  # the logic's name, which is not evaluated
        raise EvalError(f"unknown symbol {token!r} (script is not ground)")

    def _close(self, node: list) -> Value:
        try:
            sorts, fewest, most, meaning = _OPERATORS[node[0]]
        except (IndexError, KeyError):
            return self._let_part(node)
        values = node[1:]
        if not fewest <= len(values) <= most:
            raise EvalError(f"{node[0]} given {len(values)} operands")
        if not set(map(type, values)) <= sorts:
            raise EvalError(f"{node[0]} applied to an operand of the wrong sort")
        return meaning(values)

    def _let_part(self, node: list):
        """A let, its binding list, or one of its bindings; anything else
        is an unsupported operator."""
        parent, grandparent = self.stack[-1], self.stack[-2]
        if node[:1] == ["let"]:
            if len(node) != 3 or type(node[1]) is not _Scope:
                raise EvalError("let takes one binding list and one body term")
            for name in node[1]:
                del self.known[name]
            return node[2]
        if parent == ["let"]:
            if not node or not all(type(b) is _Binding for b in node):
                raise EvalError("let bindings must be a non-empty list of (symbol term)")
            names = [name for name, _ in node]
            if len(set(names)) != len(names):
                raise EvalError("let binds a name twice")
            if sum(frame[:1] == ["let"] for frame in self.stack) > 1:
                raise EvalError("let inside another let")
            self.known.update(node)
            return _Scope(names)
        if grandparent == ["let"]:
            if len(node) != 2:
                raise EvalError("let binding is not (symbol term)")
            # an operator or `let` in the name's place was read as an application
            name = node[0]
            if not (isinstance(name, str) and name.isascii() and name.isidentifier()) or (
                name in ("true", "false")
            ):
                raise EvalError(f"let cannot bind {name!r}")
            return _Binding(node)
        raise EvalError(f"unsupported operator in {node[:1]!r}")


def _flatten(node: Node) -> list[str]:
    if isinstance(node, str):
        return [node]
    return ["(", *(token for operand in node for token in _flatten(operand)), ")"]


def evaluate(node: Node) -> Value:
    """Value of a term given as a tree from `parse_script`."""
    ((_, value),) = _Evaluator().commands(["(", "assert", *_flatten(node), ")"])
    return value


def run_script(text: str, out=sys.stdout) -> bool:
    """Run the script as it is read; True when every check-sat printed sat."""
    assertions_hold = True
    all_sat = True
    for command in _Evaluator().commands(_tokens(text)):
        name = command[0] if isinstance(command, list) and command else None
        if name == "assert" and len(command) == 2:
            if type(command[1]) is not bool:
                raise EvalError("assert applied to a term that is not Boolean")
            assertions_hold = assertions_hold and command[1]
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
