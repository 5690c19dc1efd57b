"""Evaluator for ground (variable-free) SMT-LIB v2 scripts.

On scripts with no declared symbols a solver acts purely as a Boolean
function evaluator, so this small command is a drop-in stand-in where
no full SMT solver is installed: it reads a script, evaluates every
`(assert ...)` over exact rationals, and answers `sat` exactly when all
asserted terms are true.  It understands the core Boolean connectives
and mixed integer/real arithmetic (`+ - * / to_int to_real is_int`,
comparisons, `ite`), which covers the emitted certificate formulas and
the obvious neighborhood around them.

Usage: viprcert-smteval FILE  (or `python -m viprcert.smteval FILE`).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterator, Union

from .rational import unlimited_int_digits

Node = Union[str, list]
Value = Union[bool, int, Fraction]


class EvalError(Exception):
    pass


_ATOM_INT = re.compile(r"[0-9]+\Z")
_ATOM_DECIMAL = re.compile(r"[0-9]+\.[0-9]+\Z")


def tokenize(text: str) -> Iterator[str]:
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in "() \t\r\n":
            if ch in "()":
                yield ch
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise EvalError("unterminated quoted symbol")
            yield text[i : j + 1]
            i = j + 1
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise EvalError("unterminated string literal")
            yield text[i : j + 1]
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in "() \t\r\n;":
                j += 1
            yield text[i:j]
            i = j


def parse_script(text: str) -> list[Node]:
    stack: list[list] = [[]]
    for token in tokenize(text):
        if token == "(":
            stack.append([])
        elif token == ")":
            if len(stack) == 1:
                raise EvalError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(token)
    if len(stack) != 1:
        raise EvalError("unbalanced '('")
    return stack[0]


def _is_number(value: Value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _number(node: Node) -> Value:
    value = evaluate(node)
    if not _is_number(value):
        raise EvalError(f"expected a number, got {value!r}")
    return value


def _boolean(node: Node) -> bool:
    value = evaluate(node)
    if not isinstance(value, bool):
        raise EvalError(f"expected a Boolean, got {value!r}")
    return value


def evaluate(node: Node) -> Value:
    if isinstance(node, str):
        if node == "true":
            return True
        if node == "false":
            return False
        if _ATOM_INT.match(node):
            return int(node)
        if _ATOM_DECIMAL.match(node):
            return Fraction(node)
        raise EvalError(f"unknown symbol {node!r} (script is not ground)")
    if not node:
        raise EvalError("empty application")
    head = node[0]
    if not isinstance(head, str):
        raise EvalError("higher-order application not supported")
    args = node[1:]

    if head == "not":
        if len(args) != 1:
            raise EvalError("not takes one argument")
        return not _boolean(args[0])
    if head == "and":
        return all(_boolean(a) for a in args)
    if head == "or":
        return any(_boolean(a) for a in args)
    if head == "=>":
        if not args:
            raise EvalError("=> needs arguments")
        values = [_boolean(a) for a in args]
        result = values[-1]
        for value in reversed(values[:-1]):
            result = (not value) or result
        return result
    if head == "xor":
        result = False
        for a in args:
            result ^= _boolean(a)
        return result
    if head == "ite":
        if len(args) != 3:
            raise EvalError("ite takes three arguments")
        return evaluate(args[1]) if _boolean(args[0]) else evaluate(args[2])
    if head == "=":
        values = [evaluate(a) for a in args]
        if len(values) < 2:
            raise EvalError("= needs at least two arguments")
        kinds = {isinstance(v, bool) for v in values}
        if len(kinds) > 1:
            raise EvalError("= applied to mixed Boolean/numeric arguments")
        return all(values[0] == v for v in values[1:])
    if head == "distinct":
        values = [evaluate(a) for a in args]
        return len(set(values)) == len(values)
    if head in ("<", "<=", ">", ">="):
        values = [_number(a) for a in args]
        if len(values) < 2:
            raise EvalError(f"{head} needs at least two arguments")
        ops = {
            "<": lambda x, y: x < y,
            "<=": lambda x, y: x <= y,
            ">": lambda x, y: x > y,
            ">=": lambda x, y: x >= y,
        }
        return all(ops[head](x, y) for x, y in zip(values, values[1:]))
    if head == "+":
        total: Value = 0
        for a in args:
            total = total + _number(a)
        return total
    if head == "*":
        product: Value = 1
        for a in args:
            product = product * _number(a)
        return product
    if head == "-":
        if not args:
            raise EvalError("- needs arguments")
        if len(args) == 1:
            return -_number(args[0])
        result = _number(args[0])
        for a in args[1:]:
            result = result - _number(a)
        return result
    if head == "/":
        if len(args) < 2:
            raise EvalError("/ needs at least two arguments")
        result = Fraction(_number(args[0]))
        for a in args[1:]:
            divisor = _number(a)
            if divisor == 0:
                raise EvalError("division by zero")
            result = result / divisor
        return result
    if head == "to_real":
        return Fraction(_number(args[0]))
    if head == "to_int":
        value = _number(args[0])
        return value if isinstance(value, int) else value.__floor__()
    if head == "is_int":
        value = _number(args[0])
        return isinstance(value, int) or value.denominator == 1
    if head == "abs":
        return abs(_number(args[0]))
    raise EvalError(f"unsupported operator {head!r}")


def run_script(text: str, out=sys.stdout) -> bool:
    """Execute the script; returns True when every check-sat printed sat."""
    assertions_hold = True
    all_sat = True
    for command in parse_script(text):
        if not isinstance(command, list) or not command:
            raise EvalError("top-level commands must be applications")
        name = command[0]
        if name in ("set-logic", "set-info", "set-option"):
            continue
        if name == "exit":
            break
        if name == "echo":
            continue
        if name == "assert":
            if len(command) != 2:
                raise EvalError("assert takes one term")
            if not _boolean(command[1]):
                assertions_hold = False
            continue
        if name == "check-sat":
            answer = "sat" if assertions_hold else "unsat"
            all_sat = all_sat and assertions_hold
            print(answer, file=out)
            continue
        raise EvalError(f"unsupported command {name!r}")
    return all_sat


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: viprcert-smteval FILE", file=sys.stderr)
        return 2
    try:
        text = open(args[0], encoding="utf-8").read()
    except OSError as exc:
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
