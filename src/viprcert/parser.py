"""Reader and writer for the VIPR 1.0 certificate text format.

Parsing is a single whitespace-tokenized pass with no semantic checks:
indices are range-checked against the declared counts and shifted from
the file's 0-based convention to the model's 1-based one, and that is
all.  Whether the certificate actually proves anything is the checker's
business, strictly separated from this module.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterator, Optional, Union

from .model import (
    Certificate,
    Constraint,
    DerivedConstraint,
    LinearExpr,
    Multipliers,
    Problem,
    Reason,
    Rtp,
    Sense,
    Sign,
    SolutionPoint,
    Unsplit,
)
from .rational import (
    DecimalNotationError,
    Rational,
    RationalSyntaxError,
    format_rational,
    parse_rational,
)

VERSION_TOKEN = "1.0"


class ParseErrorKind(Enum):
    UNEXPECTED_TOKEN = "UnexpectedToken"
    DECIMAL_NOTATION = "DecimalNotation"
    BAD_COUNT = "BadCount"
    BAD_INDEX = "BadIndex"
    UNKNOWN_SENSE = "UnknownSense"
    UNKNOWN_REASON = "UnknownReason"
    MISSING_SECTION = "MissingSection"
    TRAILING_GARBAGE = "TrailingGarbage"


class ParseError(Exception):
    """Syntax error; line and column point at the offending token."""

    def __init__(self, line: int, column: int, kind: ParseErrorKind, message: str):
        super().__init__(f"{kind.value} at line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.kind = kind
        self.message = message


class _Token:
    __slots__ = ("text", "line", "column")

    def __init__(self, text: str, line: int, column: int):
        self.text = text
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(r"\S+")
_INT_RE = re.compile(r"[+-]?\d+\Z")


class _TokenStream:
    """Whitespace-insensitive token stream with 1-based positions."""

    def __init__(self, text: str):
        self._tokens = list(self._tokenize(text))
        self._pos = 0
        if self._tokens:
            last = self._tokens[-1]
            self._eof_line = last.line
            self._eof_column = last.column + len(last.text)
        else:
            self._eof_line = 1
            self._eof_column = 1

    @staticmethod
    def _tokenize(text: str) -> Iterator[_Token]:
        for lineno, line in enumerate(text.split("\n"), start=1):
            for match in _TOKEN_RE.finditer(line):
                yield _Token(match.group(), lineno, match.start() + 1)

    def peek(self) -> Optional[_Token]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def next(self, context: str, kind: ParseErrorKind = ParseErrorKind.UNEXPECTED_TOKEN) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError(
                self._eof_line, self._eof_column, kind, f"unexpected end of input, expected {context}"
            )
        self._pos += 1
        return token

    def error(self, token: _Token, kind: ParseErrorKind, message: str) -> ParseError:
        return ParseError(token.line, token.column, kind, message)


class _Parser:
    def __init__(self, text: str):
        self.stream = _TokenStream(text)

    # --- token-level primitives -------------------------------------------

    def keyword(self, expected: str, kind: ParseErrorKind = ParseErrorKind.MISSING_SECTION) -> None:
        token = self.stream.next(f"{expected!r}", kind)
        if token.text != expected:
            raise self.stream.error(token, kind, f"expected {expected!r}, found {token.text!r}")

    def name(self, context: str) -> str:
        return self.stream.next(context).text

    def integer(self, context: str, kind: ParseErrorKind) -> tuple[_Token, int]:
        """The next token, which must be an integer, and its value."""
        token = self.stream.next(context, kind)
        if not _INT_RE.match(token.text):
            raise self.stream.error(token, kind, f"expected {context}, found {token.text!r}")
        return token, int(token.text)

    def count(self, context: str) -> int:
        token, value = self.integer(context, ParseErrorKind.BAD_COUNT)
        if value < 0:
            raise self.stream.error(token, ParseErrorKind.BAD_COUNT, f"negative {context}: {value}")
        return value

    def rational(self, context: str) -> Rational:
        return self.rational_value(self.stream.next(context))

    def rational_value(self, token: _Token) -> Rational:
        try:
            return parse_rational(token.text)
        except DecimalNotationError as exc:
            raise self.stream.error(token, ParseErrorKind.DECIMAL_NOTATION, str(exc)) from exc
        except RationalSyntaxError as exc:
            raise self.stream.error(token, ParseErrorKind.UNEXPECTED_TOKEN, str(exc)) from exc

    def shifted_index(self, limit: int, context: str) -> int:
        """0-based file index in [0, limit), returned 1-based."""
        token, value = self.integer(context, ParseErrorKind.BAD_INDEX)
        if not 0 <= value < limit:
            raise self.stream.error(
                token, ParseErrorKind.BAD_INDEX, f"{context} {value} outside [0, {limit - 1}]"
            )
        return value + 1

    def sense_letter(self, context: str) -> Sign:
        token = self.stream.next(context, ParseErrorKind.UNKNOWN_SENSE)
        try:
            return Sign.from_letter(token.text)
        except ValueError:
            raise self.stream.error(
                token, ParseErrorKind.UNKNOWN_SENSE, f"expected E, G or L, found {token.text!r}"
            ) from None

    def term_list(self, n: int, what: str, objective: Optional[LinearExpr]) -> LinearExpr:
        """`t  j_1 c_1 ... j_t c_t` with 0-based variable indices.

        When `objective` is given, the single keyword OBJ may replace the
        whole list, denoting the objective's coefficients.
        """
        if objective is not None:
            ahead = self.stream.peek()
            if ahead is not None and ahead.text == "OBJ":
                self.stream.next("OBJ")
                return objective
        t = self.count(f"{what} term count")
        terms: dict[int, Rational] = {}
        for _ in range(t):
            token = self.stream.peek()
            j = self.shifted_index(n, f"{what} variable index")
            if j in terms:
                raise self.stream.error(
                    token, ParseErrorKind.BAD_INDEX, f"duplicate variable index {j - 1} in {what}"
                )
            terms[j] = self.rational(f"{what} coefficient")
        return LinearExpr(terms)

    # --- sections ----------------------------------------------------------

    def parse(self) -> tuple[Problem, Certificate]:
        self.keyword("VER")
        version = self.stream.next("version number")
        if version.text != VERSION_TOKEN:
            raise self.stream.error(
                version,
                ParseErrorKind.UNEXPECTED_TOKEN,
                f"unsupported version {version.text!r}, expected {VERSION_TOKEN!r}",
            )

        self.keyword("VAR")
        n = self.count("variable count")
        var_names = tuple(self.name("variable name") for _ in range(n))

        self.keyword("INT")
        int_count = self.count("integer-variable count")
        int_vars = frozenset(self.shifted_index(n, "integer variable index") for _ in range(int_count))

        self.keyword("OBJ")
        sense_token = self.stream.next("objective sense", ParseErrorKind.UNKNOWN_SENSE)
        if sense_token.text not in ("min", "max"):
            raise self.stream.error(
                sense_token,
                ParseErrorKind.UNKNOWN_SENSE,
                f"expected min or max, found {sense_token.text!r}",
            )
        sense = Sense(sense_token.text)
        objective = self.term_list(n, "objective", objective=None)

        self.keyword("CON")
        m = self.count("constraint count")
        bound_token, bound_count = self.integer("bound-constraint count", ParseErrorKind.BAD_COUNT)
        if not 0 <= bound_count <= m:
            raise self.stream.error(
                bound_token,
                ParseErrorKind.BAD_COUNT,
                f"bound-constraint count {bound_count} outside [0, {m}]",
            )
        constraints = tuple(self.constraint_body(n, objective, f"constraint {i}") for i in range(m))

        rtp = self.parse_rtp()

        self.keyword("SOL")
        sol_count = self.count("solution count")
        sol = tuple(self.solution_point(n, i) for i in range(sol_count))

        self.keyword("DER")
        der_count = self.count("derived-constraint count")
        d = m + der_count
        der = tuple(self.derived_constraint(n, d, objective, i) for i in range(der_count))

        trailing = self.stream.peek()
        if trailing is not None:
            raise self.stream.error(
                trailing,
                ParseErrorKind.TRAILING_GARBAGE,
                f"unexpected content after last derivation: {trailing.text!r}",
            )

        problem = Problem(
            n=n,
            var_names=var_names,
            int_vars=int_vars,
            sense=sense,
            objective=objective,
            constraints=constraints,
            bound_count=bound_count,
        )
        certificate = Certificate(rtp=rtp, sol=sol, der=der)
        return problem, certificate

    def constraint_body(self, n: int, objective: LinearExpr, what: str) -> Constraint:
        name = self.name(f"{what} name")
        sign = self.sense_letter(f"{what} sense")
        rhs = self.rational(f"{what} right-hand side")
        lhs = self.term_list(n, what, objective)
        return Constraint(name=name, lhs=lhs, sign=sign, rhs=rhs)

    def parse_rtp(self) -> Rtp:
        self.keyword("RTP")
        token = self.stream.next("relation to prove")
        if token.text == "infeas":
            return Rtp.make_infeasible()
        if token.text != "range":
            raise self.stream.error(
                token,
                ParseErrorKind.UNEXPECTED_TOKEN,
                f"expected infeas or range, found {token.text!r}",
            )
        lb_token = self.stream.next("lower bound")
        lb = None if lb_token.text == "-inf" else self.rational_value(lb_token)
        ub_token = self.stream.next("upper bound")
        ub = None if ub_token.text == "inf" else self.rational_value(ub_token)
        return Rtp.make_range(lb, ub)

    def solution_point(self, n: int, ordinal: int) -> SolutionPoint:
        what = f"solution {ordinal}"
        name = self.name(f"{what} name")
        t = self.count(f"{what} term count")
        coords: dict[int, Rational] = {}
        for _ in range(t):
            token = self.stream.peek()
            j = self.shifted_index(n, f"{what} variable index")
            if j in coords:
                raise self.stream.error(
                    token, ParseErrorKind.BAD_INDEX, f"duplicate variable index {j - 1} in {what}"
                )
            coords[j] = self.rational(f"{what} value")
        return SolutionPoint(name=name, coords=coords)

    def derived_constraint(
        self, n: int, d: int, objective: LinearExpr, ordinal: int
    ) -> DerivedConstraint:
        what = f"derivation {ordinal}"
        constraint = self.constraint_body(n, objective, what)
        self.keyword("{", ParseErrorKind.UNEXPECTED_TOKEN)
        reason_token = self.stream.next("reason", ParseErrorKind.UNKNOWN_REASON)
        try:
            reason = Reason(reason_token.text)
        except ValueError:
            raise self.stream.error(
                reason_token,
                ParseErrorKind.UNKNOWN_REASON,
                f"unknown reason {reason_token.text!r}",
            ) from None

        data: Union[None, Multipliers, Unsplit]
        if reason in (Reason.ASM, Reason.SOL):
            data = None
        elif reason in (Reason.LIN, Reason.RND):
            c = self.count(f"{what} multiplier count")
            weights: dict[int, Rational] = {}
            for _ in range(c):
                token = self.stream.peek()
                i = self.shifted_index(d, f"{what} constraint index")
                if i in weights:
                    raise self.stream.error(
                        token,
                        ParseErrorKind.BAD_INDEX,
                        f"duplicate constraint index {i - 1} in {what}",
                    )
                weights[i] = self.rational(f"{what} multiplier")
            data = Multipliers(weights)
        else:  # uns: exactly four indices, no weights
            i1 = self.shifted_index(d, f"{what} unsplit index")
            l1 = self.shifted_index(d, f"{what} unsplit index")
            i2 = self.shifted_index(d, f"{what} unsplit index")
            l2 = self.shifted_index(d, f"{what} unsplit index")
            data = Unsplit(i1, l1, i2, l2)
        self.keyword("}", ParseErrorKind.UNEXPECTED_TOKEN)
        _, legacy = self.integer(f"{what} index attribute", ParseErrorKind.UNEXPECTED_TOKEN)
        return DerivedConstraint(constraint=constraint, reason=reason, data=data, legacy_index=legacy)


def parse_certificate(source: Union[str, bytes]) -> tuple[Problem, Certificate]:
    """Parse VIPR 1.0 text into (Problem, Certificate)."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    return _Parser(source).parse()


# --- serialization ----------------------------------------------------------


def _format_terms(expr: LinearExpr) -> str:
    parts = [str(len(expr.terms))]
    for j, c in expr.items_sorted():
        parts.append(f"{j - 1} {format_rational(c)}")
    return " ".join(parts)


def _format_constraint(constraint: Constraint) -> str:
    return (
        f"{constraint.name} {constraint.sign.letter} "
        f"{format_rational(constraint.rhs)} {_format_terms(constraint.lhs)}"
    )


def _format_reason(derived: DerivedConstraint) -> str:
    if derived.reason in (Reason.ASM, Reason.SOL):
        return f"{{ {derived.reason.value} }}"
    if isinstance(derived.data, Multipliers):
        parts = [derived.reason.value, str(len(derived.data.weights))]
        for i, w in derived.data.items_sorted():
            parts.append(f"{i - 1} {format_rational(w)}")
        return "{ " + " ".join(parts) + " }"
    assert isinstance(derived.data, Unsplit)
    indices = " ".join(str(i - 1) for i in derived.data.as_tuple())
    return f"{{ uns {indices} }}"


def serialize_certificate(problem: Problem, certificate: Certificate) -> str:
    """Emit the model back in the VIPR 1.0 grammar; reparsing it yields
    a structurally identical model (legacy index attributes included)."""
    lines = ["VER 1.0"]
    lines.append(f"VAR {problem.n}")
    if problem.var_names:
        lines.append(" ".join(problem.var_names))
    lines.append(f"INT {len(problem.int_vars)}")
    if problem.int_vars:
        lines.append(" ".join(str(j - 1) for j in sorted(problem.int_vars)))
    lines.append(f"OBJ {problem.sense.value}")
    lines.append(_format_terms(problem.objective))
    lines.append(f"CON {problem.m} {problem.bound_count}")
    for constraint in problem.constraints:
        lines.append(_format_constraint(constraint))
    rtp = certificate.rtp
    if rtp.infeasible:
        lines.append("RTP infeas")
    else:
        lb = "-inf" if rtp.lb is None else format_rational(rtp.lb)
        ub = "inf" if rtp.ub is None else format_rational(rtp.ub)
        lines.append(f"RTP range {lb} {ub}")
    lines.append(f"SOL {len(certificate.sol)}")
    for point in certificate.sol:
        parts = [point.name, str(len(point.coords))]
        for j, v in sorted(point.coords.items()):
            parts.append(f"{j - 1} {format_rational(v)}")
        lines.append(" ".join(parts))
    lines.append(f"DER {len(certificate.der)}")
    for derived in certificate.der:
        lines.append(
            f"{_format_constraint(derived.constraint)} "
            f"{_format_reason(derived)} {derived.legacy_index}"
        )
    return "\n".join(lines) + "\n"
