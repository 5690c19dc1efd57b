"""Reader and writer for the VIPR 1.0 certificate text format.

Parsing is a single whitespace-tokenized pass with no semantic checks:
indices are range-checked against the declared counts and shifted from
the file's 0-based convention to the model's 1-based one, and that is
all.  Whether the certificate actually proves anything is the checker's
business, strictly separated from this module.

Every `index value` list is read straight to an integer row: a
constraint body to a `model.Constraint`, the objective, a solution point
and a multiplier list to a `model.Row`; an `OBJ` body is the row of
`Row.bound`.  The serializer prints each value `a_j / D` from the row.

The text is split a chunk of about `CHUNK` characters at a time, so a
parse holds a bounded window of tokens, never those of the whole file;
a token's position is its global index in `text.split()`.
"""

from __future__ import annotations

import gc
import math
import re
from enum import Enum
from typing import Optional, Union

from .model import (
    Certificate,
    Constraint,
    DerivedConstraint,
    Problem,
    Reason,
    Row,
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
    is_integer_literal,
    parse_rational,
    unlimited_int_digits,
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


_TOKEN_RE = re.compile(r"\S+")

# text enters the token window this many characters at a time, up to and
# including the next whitespace character, so no token is cut
CHUNK = 1 << 16
_SPACE = re.compile(r"\s")

# valid `p` and `p/q` values joined by single spaces: `\d` is exactly the
# Unicode Nd digits `str.isdecimal` accepts, and a denominator needs an
# ASCII digit 1-9, so it is not zero; any other value is checked by
# `parse_rational`
_VALUE = r"[+-]?\d+(?:/[+-]?\d*[1-9]\d*)?"
_VALUES = re.compile(f"{_VALUE}(?: {_VALUE})*")


def _token_position(text: str, index: int) -> tuple[int, int]:
    """1-based line and column of token `index` of `text.split()`.

    Lines end at "\n" only; any other whitespace, "\r" included, is part
    of a line.  Positions are only needed for an error, so they are found
    by rescanning the text rather than stored per token.
    """
    seen = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        count = len(line.split())
        if index < seen + count:
            match = list(_TOKEN_RE.finditer(line))[index - seen]
            return lineno, match.start() + 1
        seen += count
    raise IndexError(f"token {index} outside the text's {seen} tokens")


def _ratios(values: list[str]) -> tuple[int, list[int]]:
    """Valid `p` or `p/q` values over their least common denominator D:
    (D, [p * D / q, ...])."""
    if "/" not in "".join(values):
        return 1, list(map(int, values))
    parts = [value.partition("/") for value in values]
    denominators = [int(q) if q else 1 for _, _, q in parts]
    scale = math.lcm(*denominators)  # positive; exact for a negative q too
    return scale, [int(p) * (scale // q) for (p, _, _), q in zip(parts, denominators)]


class _Parser:
    """Recursive descent over the text's tokens through a bounded window:
    `tokens` holds them from global index `base` on, `pos` is the global
    index of the next one, and `text[:offset]` has entered the window."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str] = []
        self.base = self.pos = self.offset = 0

    # --- token-level primitives -------------------------------------------

    def _fill(self, need: int) -> None:
        """Make the window hold `need` tokens from `pos` on, or all that
        the text has left, dropping the tokens already read."""
        read = self.pos - self.base
        if read + need <= len(self.tokens):
            return
        del self.tokens[:read]
        self.base = self.pos
        while len(self.tokens) < need and self.offset < len(self.text):
            cut = _SPACE.search(self.text, self.offset + CHUNK)
            end = cut.end() if cut else len(self.text)
            self.tokens += self.text[self.offset : end].split()
            self.offset = end

    def error(self, kind: ParseErrorKind, message: str, index: Optional[int] = None) -> ParseError:
        """Error located at token `index`, by default the last token read."""
        line, column = _token_position(self.text, self.pos - 1 if index is None else index)
        return ParseError(line, column, kind, message)

    def peek(self) -> Optional[str]:
        self._fill(1)
        i = self.pos - self.base
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self, context: str, kind: ParseErrorKind = ParseErrorKind.UNEXPECTED_TOKEN) -> str:
        i = self.pos - self.base
        if i == len(self.tokens):
            self._fill(1)
            i = 0
            if not self.tokens:  # just past the text's last token, if any
                end = self.text.rstrip()
                line, column = end.count("\n") + 1, len(end) - end.rfind("\n")
                raise ParseError(line, column, kind, f"unexpected end of input, expected {context}")
        self.pos += 1
        return self.tokens[i]

    def keyword(self, expected: str, kind: ParseErrorKind = ParseErrorKind.MISSING_SECTION) -> None:
        text = self.next(f"{expected!r}", kind)
        if text != expected:
            raise self.error(kind, f"expected {expected!r}, found {text!r}")

    def name(self, context: str) -> str:
        return self.next(context)

    def integer(self, context: str, kind: ParseErrorKind) -> int:
        text = self.next(context, kind)
        if not is_integer_literal(text):
            raise self.error(kind, f"expected {context}, found {text!r}")
        return int(text)

    def count(self, context: str) -> int:
        value = self.integer(context, ParseErrorKind.BAD_COUNT)
        if value < 0:
            raise self.error(ParseErrorKind.BAD_COUNT, f"negative {context}: {value}")
        return value

    def rational_value(self, text: str) -> Rational:
        """The last token read, `text`, as a rational."""
        try:
            return parse_rational(text)
        except DecimalNotationError as exc:
            raise self.error(ParseErrorKind.DECIMAL_NOTATION, str(exc)) from exc
        except RationalSyntaxError as exc:
            raise self.error(ParseErrorKind.UNEXPECTED_TOKEN, str(exc)) from exc

    def shifted_index(self, limit: int, context: str) -> int:
        """0-based file index in [0, limit), returned 1-based."""
        value = self.integer(context, ParseErrorKind.BAD_INDEX)
        if not 0 <= value < limit:
            raise self.error(
                ParseErrorKind.BAD_INDEX, f"{context} {value} outside [0, {limit - 1}]"
            )
        return value + 1

    def sense_letter(self, context: str) -> Sign:
        text = self.next(context, ParseErrorKind.UNKNOWN_SENSE)
        try:
            return Sign.from_letter(text)
        except ValueError:
            raise self.error(
                ParseErrorKind.UNKNOWN_SENSE, f"expected E, G or L, found {text!r}"
            ) from None

    def pairs(
        self, count: int, limit: int, what: str, index_kind: str, value_kind: str
    ) -> tuple[list[int], list[str]]:
        """`count` pairs `i v`: a 0-based index below `limit`, returned
        1-based and at most once, and the token of a valid rational value.
        Distinct indices below `limit` number at most `limit`, so a longer
        count goes token by token without filling the window for it."""
        self._fill(2 * min(count, limit))
        start = self.pos - self.base
        end = start + 2 * count
        indices = self.tokens[start:end:2]
        values = self.tokens[start + 1 : end : 2]
        if len(values) == count and all(map(str.isdecimal, indices)):
            keys = list(map((1).__add__, map(int, indices)))
            distinct = not count or (max(keys) <= limit and len(set(keys)) == count)
            if distinct and _VALUES.fullmatch(" ".join(values)):
                self.pos += 2 * count
                return keys, values
        # anything else (a signed index, say) goes token by token and
        # raises the located error, if there is one
        checked: dict[int, str] = {}
        for _ in range(count):
            i = self.shifted_index(limit, f"{what} {index_kind} index")
            if i in checked:
                raise self.error(
                    ParseErrorKind.BAD_INDEX, f"duplicate {index_kind} index {i - 1} in {what}"
                )
            checked[i] = self.next(f"{what} {value_kind}")
            self.rational_value(checked[i])
        return list(checked), list(checked.values())

    def row(self, count: int, limit: int, what: str, index_kind: str, value_kind: str) -> Row:
        """`pairs` read as an integer row."""
        keys, values = self.pairs(count, limit, what, index_kind, value_kind)
        scale, numbers = _ratios(values)
        return Row(scale, dict(zip(keys, numbers)))

    # --- sections ----------------------------------------------------------

    def parse(self) -> tuple[Problem, Certificate]:
        self.keyword("VER")
        version = self.next("version number")
        if version != VERSION_TOKEN:
            raise self.error(
                ParseErrorKind.UNEXPECTED_TOKEN,
                f"unsupported version {version!r}, expected {VERSION_TOKEN!r}",
            )

        self.keyword("VAR")
        n = self.count("variable count")
        var_names = tuple(self.name("variable name") for _ in range(n))

        self.keyword("INT")
        int_count = self.count("integer-variable count")
        int_vars = frozenset(self.shifted_index(n, "integer variable index") for _ in range(int_count))

        self.keyword("OBJ")
        sense_text = self.next("objective sense", ParseErrorKind.UNKNOWN_SENSE)
        if sense_text not in ("min", "max"):
            raise self.error(
                ParseErrorKind.UNKNOWN_SENSE, f"expected min or max, found {sense_text!r}"
            )
        sense = Sense(sense_text)
        t = self.count("objective term count")
        objective = self.row(t, n, "objective", "variable", "coefficient")

        self.keyword("CON")
        m = self.count("constraint count")
        bound_count = self.integer("bound-constraint count", ParseErrorKind.BAD_COUNT)
        if not 0 <= bound_count <= m:
            raise self.error(
                ParseErrorKind.BAD_COUNT, f"bound-constraint count {bound_count} outside [0, {m}]"
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

        trailing = self.peek()
        if trailing is not None:
            raise self.error(
                ParseErrorKind.TRAILING_GARBAGE,
                f"unexpected content after last derivation: {trailing!r}",
                self.pos,
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

    def constraint_body(self, n: int, objective: Row, what: str) -> Constraint:
        """`name sense rhs` and then `t j_1 c_1 ... j_t c_t` with 0-based
        variable indices, or the single keyword OBJ for the objective's
        coefficients."""
        name = self.name(f"{what} name")
        sign = self.sense_letter(f"{what} sense")
        rhs = self.next(f"{what} right-hand side")
        if _VALUES.fullmatch(rhs) is None:
            self.rational_value(rhs)  # raises the located error, if there is one
        if self.peek() == "OBJ":
            self.pos += 1
            return objective.bound(name, sign, parse_rational(rhs))
        t = self.count(f"{what} term count")
        keys, values = self.pairs(t, n, what, "variable", "coefficient")
        scale, numbers = _ratios([rhs, *values])
        terms = dict(zip(keys, numbers[1:]))
        if 0 in terms.values():
            terms = {j: a for j, a in terms.items() if a}
        return Constraint(name, sign, scale, terms, numbers[0])

    def parse_rtp(self) -> Rtp:
        self.keyword("RTP")
        relation = self.next("relation to prove")
        if relation == "infeas":
            return Rtp.make_infeasible()
        if relation != "range":
            raise self.error(
                ParseErrorKind.UNEXPECTED_TOKEN, f"expected infeas or range, found {relation!r}"
            )
        lb_text = self.next("lower bound")
        lb = None if lb_text == "-inf" else self.rational_value(lb_text)
        ub_text = self.next("upper bound")
        ub = None if ub_text == "inf" else self.rational_value(ub_text)
        return Rtp.make_range(lb, ub)

    def solution_point(self, n: int, ordinal: int) -> SolutionPoint:
        what = f"solution {ordinal}"
        name = self.name(f"{what} name")
        t = self.count(f"{what} term count")
        return SolutionPoint(name, self.row(t, n, what, "variable", "value"))

    def derived_constraint(
        self, n: int, d: int, objective: Row, ordinal: int
    ) -> DerivedConstraint:
        what = f"derivation {ordinal}"
        constraint = self.constraint_body(n, objective, what)
        self.keyword("{", ParseErrorKind.UNEXPECTED_TOKEN)
        reason_text = self.next("reason", ParseErrorKind.UNKNOWN_REASON)
        try:
            reason = Reason(reason_text)
        except ValueError:
            raise self.error(
                ParseErrorKind.UNKNOWN_REASON, f"unknown reason {reason_text!r}"
            ) from None

        data: Union[None, Row, Unsplit]
        if reason in (Reason.ASM, Reason.SOL):
            data = None
        elif reason in (Reason.LIN, Reason.RND):
            c = self.count(f"{what} multiplier count")
            data = self.row(c, d, what, "constraint", "multiplier")
        else:  # uns: exactly four indices, no weights
            i1 = self.shifted_index(d, f"{what} unsplit index")
            l1 = self.shifted_index(d, f"{what} unsplit index")
            i2 = self.shifted_index(d, f"{what} unsplit index")
            l2 = self.shifted_index(d, f"{what} unsplit index")
            data = Unsplit(i1, l1, i2, l2)
        self.keyword("}", ParseErrorKind.UNEXPECTED_TOKEN)
        legacy = self.integer(f"{what} index attribute", ParseErrorKind.UNEXPECTED_TOKEN)
        return DerivedConstraint(constraint=constraint, reason=reason, data=data, legacy_index=legacy)


def _decode(data: bytes) -> str:
    """The bytes as UTF-8 text; an undecodable byte is a parse error
    located at its line and column."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, exc.start) + 1
        column = len(data[line_start : exc.start].decode("utf-8")) + 1
        raise ParseError(
            line,
            column,
            ParseErrorKind.UNEXPECTED_TOKEN,
            f"input is not valid UTF-8 at byte 0x{data[exc.start]:02x}: {exc.reason}",
        ) from None


@unlimited_int_digits()
def parse_certificate(source: Union[str, bytes]) -> tuple[Problem, Certificate]:
    """Parse VIPR 1.0 text into (Problem, Certificate).

    Literals of any length are read, with the interpreter's digit limit
    lifted process-wide while this runs (`unlimited_int_digits`).  Cyclic
    garbage collection is paused too: the parse frees no cycles, so
    collections during it only cost time.
    """
    if isinstance(source, bytes):
        source = _decode(source)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _Parser(source).parse()
    finally:
        if enabled:
            gc.enable()


# --- serialization ----------------------------------------------------------


def _format_ratio(numerator: int, scale: int) -> str:
    """numerator / scale, scale > 0, in lowest terms as `format_rational`
    prints it: `p` or `p/q`."""
    g = math.gcd(numerator, scale)
    if g == scale:
        return str(numerator // g)
    return f"{numerator // g}/{scale // g}"


def _format_terms(row: Union[Constraint, Row]) -> str:
    """`t j_1 c_1 ... j_t c_t` of a row's values, 0-based."""
    parts = [str(len(row.terms))]
    for j, a in sorted(row.terms.items()):
        parts.append(f"{j - 1} {_format_ratio(a, row.scale)}")
    return " ".join(parts)


def _format_constraint(constraint: Constraint) -> str:
    rhs = _format_ratio(constraint.bound, constraint.scale)
    return f"{constraint.name} {constraint.sign.letter} {rhs} {_format_terms(constraint)}"


def _format_reason(derived: DerivedConstraint) -> str:
    if derived.reason in (Reason.ASM, Reason.SOL):
        return f"{{ {derived.reason.value} }}"
    if isinstance(derived.data, Row):
        return f"{{ {derived.reason.value} {_format_terms(derived.data)} }}"
    assert isinstance(derived.data, Unsplit)
    indices = " ".join(str(i - 1) for i in derived.data.as_tuple())
    return f"{{ uns {indices} }}"


@unlimited_int_digits()
def serialize_certificate(problem: Problem, certificate: Certificate) -> str:
    """Emit the model back in the VIPR 1.0 grammar; reparsing it yields
    a structurally identical model (legacy index attributes included).
    Integers of any length are printed, with the interpreter's digit
    limit lifted process-wide while this runs (`unlimited_int_digits`)."""
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
        lines.append(f"{point.name} {_format_terms(point.coords)}")
    lines.append(f"DER {len(certificate.der)}")
    for derived in certificate.der:
        lines.append(
            f"{_format_constraint(derived.constraint)} "
            f"{_format_reason(derived)} {derived.legacy_index}"
        )
    return "\n".join(lines) + "\n"
