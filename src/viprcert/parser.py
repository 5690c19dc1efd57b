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

Two kinds of record are read from one slice of tokens: every `index
value` list, once its count is read, and each derivation, whose length
follows from its counts.  Anything unexpected sends the record, from its
first token (a list, from its first pair), to the token-by-token reader,
the one place an error is located.

The text is split a chunk of about `CHUNK` characters at a time, so a
parse holds a bounded window of tokens, never those of the whole file;
a token's position is its global index in `text.split()`.
"""

from __future__ import annotations

import gc
import math
import re
from enum import Enum
from typing import Any, Callable, Optional, Union

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
    _SIGN_BY_LETTER,
)
from .rational import (
    DecimalNotationError,
    Rational,
    RationalSyntaxError,
    excerpt,
    format_ratio,
    format_rational,
    is_integer_literal,
    parse_rational,
    read_int,
    write_int,
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

_REASONS = {reason.value: reason for reason in Reason}


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


def _ratios(values: list[str]) -> Optional[tuple[int, list[int]]]:
    """`p` and `p/q` values over their least common denominator D:
    (D, [p * D / q, ...]), or None unless all are valid.  `int` reads
    what `is_integer_literal` accepts, a sign and Unicode decimal digits,
    and also `_` between digits: so values with no `_` that `int` reads,
    with no zero `q`, are valid; `row` reads those past `int`'s digit limit."""
    joined = " ".join(values)
    if "_" in joined:
        return None
    try:
        if "/" not in joined:
            return 1, list(map(int, values))
        numerators, denominators = [], []
        for value in values:
            p, slash, q = value.partition("/")
            numerators.append(int(p))
            denominators.append(int(q) if slash else 1)
    except ValueError:  # an empty `p` or `q` too
        return None
    if 0 in denominators:
        return None
    scale = math.lcm(*denominators)  # positive; exact for a negative q too
    return scale, [p * (scale // q) for p, q in zip(numerators, denominators)]


def _keyed(indices: list[str], numbers: list[int], keys: dict[str, int]) -> Optional[dict]:
    """`{keys[i]: a}` over indices and numbers in order, or None on a repeat or a non-key."""
    try:
        terms = dict(zip(map(keys.__getitem__, indices), numbers))
    except KeyError:
        return None
    return terms if len(terms) == len(indices) else None


def _row(record: list[str], start: int, end: int, keys: dict[str, int]) -> Optional[Row]:
    """`record[start:end]`, the pairs `(i v)^t` of a list, or None."""
    ratios = _ratios(record[start + 1 : end : 2])
    terms = ratios and _keyed(record[start:end:2], ratios[1], keys)
    return None if terms is None else Row(ratios[0], terms)


class _Parser:
    """Recursive descent over the text's tokens through a bounded window:
    `tokens` holds them from global index `base` on, `pos` is the global
    index of the next one, and `text[:offset]` has entered the window."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str] = []
        self.base = self.pos = self.offset = 0
        # each 0-based index text a record may hold, to its 1-based index:
        # every variable, and each constraint before the derivation read
        self.variables: dict[str, int] = {}
        self.earlier: dict[str, int] = {}

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

    def peek(self, offset: int = 0) -> Optional[str]:
        """The token `offset` places past `pos`, or None past the end."""
        i = self.pos - self.base + offset
        if i >= len(self.tokens):
            self._fill(offset + 1)
            i = self.pos - self.base + offset
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
            raise self.error(kind, f"expected {expected!r}, found {excerpt(text)}")

    def integer(self, context: str, kind: ParseErrorKind) -> int:
        text = self.next(context, kind)
        if not is_integer_literal(text):
            raise self.error(kind, f"expected {context}, found {excerpt(text)}")
        return read_int(text)

    def count(self, context: str) -> int:
        value = self.integer(context, ParseErrorKind.BAD_COUNT)
        if value < 0:
            raise self.error(
                ParseErrorKind.BAD_COUNT, f"negative {context}: {excerpt(write_int(value), str)}"
            )
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
                ParseErrorKind.BAD_INDEX,
                f"{context} {excerpt(write_int(value), str)} outside [0, {limit - 1}]",
            )
        return value + 1

    def sense_letter(self, context: str) -> Sign:
        text = self.next(context, ParseErrorKind.UNKNOWN_SENSE)
        if text not in _SIGN_BY_LETTER:
            raise self.error(
                ParseErrorKind.UNKNOWN_SENSE, f"expected E, G or L, found {excerpt(text)}"
            )
        return _SIGN_BY_LETTER[text]

    def row(self, count: int, keys: dict[str, int], limit: int, *context: str) -> Row:
        """`count` pairs `i v` as a row: a 0-based index below `limit`, at
        most once, and a rational value.  As a derivation is, every list is
        read from one slice, here its pairs once each index is a text of
        `keys`, so a count past `len(keys)` fills nothing; else by `pairs`,
        whose messages say `context`."""
        row = count <= len(keys) and self._take(
            2 * count, lambda record: _row(record, 0, 2 * count, keys)
        )
        return row or self.pairs(count, limit, *context)

    def pairs(self, count: int, limit: int, what: str, index_kind: str, value_kind: str) -> Row:
        """`row`, token by token: it locates the first error, and reads
        `+1` indices, Unicode digits and literals past `int`'s digit limit."""
        checked: dict[int, Rational] = {}
        for _ in range(count):
            i = self.shifted_index(limit, f"{what} {index_kind} index")
            if i in checked:
                raise self.error(
                    ParseErrorKind.BAD_INDEX, f"duplicate {index_kind} index {i - 1} in {what}"
                )
            checked[i] = self.rational_value(self.next(f"{what} {value_kind}"))
        scale = math.lcm(*(v.denominator for v in checked.values()))
        return Row(scale, {i: v.numerator * scale // v.denominator for i, v in checked.items()})

    # --- records read from one slice, or None -------------------------------

    def _span(self, offset: int, keys: dict[str, int]) -> int:
        """`offset` plus the tokens of the list `t (i v)^t` there, or 0 unless
        `t` is decimal and at most `len(keys)`, so a larger one fills nothing:
        a derivation's slice holds its lists whole, `row` takes only pairs."""
        count = self.peek(offset)
        t = read_int(count) if count and count.isdecimal() else -1
        return offset + 1 + 2 * t if 0 <= t <= len(keys) else 0

    def _take(self, length: int, read: Callable[[list[str]], Any]) -> Any:
        """`read` of the next `length` tokens, stepped past, or None."""
        self._fill(length)
        start = self.pos - self.base
        record = self.tokens[start : start + length]
        value = read(record) if len(record) == length else None
        if value is not None:
            self.pos += length
        return value

    def _constraint(self, record: list[str], end: int) -> Optional[Constraint]:
        """`record[:end]`, a body `name sense rhs (OBJ | t (j c)^t)`, or None."""
        name, letter, rhs = record[:3]
        sign = _SIGN_BY_LETTER.get(letter)
        ratios = _ratios(record[5:end:2] + [rhs])
        if sign is None or ratios is None:
            return None
        scale, numbers = ratios
        if record[3] == "OBJ":
            return self.objective.bound(name, sign, Rational(numbers[0], scale))
        terms = _keyed(record[4:end:2], numbers, self.variables)
        return None if terms is None else Constraint(name, sign, scale, terms, numbers[-1])

    def fast_derivation(self) -> Optional[DerivedConstraint]:
        """`body { reason data } index`, the body `name sense rhs (OBJ | t (j c)^t)`."""
        body = 4 if self.peek(3) == "OBJ" else self._span(3, self.variables)
        reason = _REASONS.get(self.peek(body + 1)) if body else None
        end = 0 if reason is None else body + (8 if reason is Reason.UNS else 4)
        if reason in (Reason.LIN, Reason.RND):
            end = self._span(body + 2, self.earlier)
            end = end and end + 2
        if end:
            return self._take(end, lambda record: self._derivation(record, body, reason))
        return None

    def _derivation(self, record: list[str], body: int, reason: Reason):
        """`record`, a derivation of valid length, or None."""
        if record[body] != "{" or record[-2] != "}" or not is_integer_literal(record[-1]):
            return None
        data = None
        if reason is Reason.UNS:
            data = list(map(self.earlier.get, record[body + 2 : -2]))
            data = None if None in data else Unsplit(*data)
        elif reason in (Reason.LIN, Reason.RND):
            data = _row(record, body + 3, len(record) - 2, self.earlier)
        constraint = self._constraint(record, body)
        if constraint is None or (data is None) != (reason in (Reason.ASM, Reason.SOL)):
            return None
        return DerivedConstraint(constraint, reason, data, read_int(record[-1]))

    # --- sections ----------------------------------------------------------

    def parse(self) -> tuple[Problem, Certificate]:
        self.keyword("VER")
        version = self.next("version number")
        if version != VERSION_TOKEN:
            raise self.error(
                ParseErrorKind.UNEXPECTED_TOKEN,
                f"unsupported version {excerpt(version)}, expected {VERSION_TOKEN!r}",
            )

        self.keyword("VAR")
        n = self.count("variable count")
        var_names = tuple(self.next("variable name") for _ in range(n))
        self.variables = {str(j): j + 1 for j in range(n)}

        self.keyword("INT")
        int_count = self.count("integer-variable count")
        int_vars = frozenset(self.shifted_index(n, "integer variable index") for _ in range(int_count))

        self.keyword("OBJ")
        sense_text = self.next("objective sense", ParseErrorKind.UNKNOWN_SENSE)
        if sense_text not in ("min", "max"):
            raise self.error(
                ParseErrorKind.UNKNOWN_SENSE, f"expected min or max, found {excerpt(sense_text)}"
            )
        sense = Sense(sense_text)
        objective = self.objective = self.row(
            self.count("objective term count"), self.variables, n, "objective", "variable",
            "coefficient",
        )

        self.keyword("CON")
        m = self.count("constraint count")
        bound_count = self.integer("bound-constraint count", ParseErrorKind.BAD_COUNT)
        if not 0 <= bound_count <= m:
            raise self.error(
                ParseErrorKind.BAD_COUNT,
                f"bound-constraint count {excerpt(write_int(bound_count), str)} outside [0, {m}]",
            )
        constraints = tuple(self.constraint_body(n, f"constraint {i}") for i in range(m))

        rtp = self.parse_rtp()

        self.keyword("SOL")
        sol_count = self.count("solution count")
        sol = tuple(self.solution_point(n, i) for i in range(sol_count))

        self.keyword("DER")
        der_count = self.count("derived-constraint count")
        d = m + der_count
        self.earlier = {str(k): k + 1 for k in range(m)}
        der = []
        for i in range(der_count):
            der.append(self.fast_derivation() or self.derived_constraint(n, d, i))
            self.earlier[str(m + i)] = m + i + 1

        trailing = self.peek()
        if trailing is not None:
            raise self.error(
                ParseErrorKind.TRAILING_GARBAGE,
                f"unexpected content after last derivation: {excerpt(trailing)}",
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
        certificate = Certificate(rtp=rtp, sol=sol, der=tuple(der))
        return problem, certificate

    def constraint_body(self, n: int, what: str) -> Constraint:
        """`name sense rhs` and then `t j_1 c_1 ... j_t c_t` with 0-based
        variable indices, or the single keyword OBJ for the objective's
        coefficients."""
        name = self.next(f"{what} name")
        sign = self.sense_letter(f"{what} sense")
        value = self.rational_value(self.next(f"{what} right-hand side"))
        if self.peek() == "OBJ":
            self.pos += 1
            return self.objective.bound(name, sign, value)
        t = self.count(f"{what} term count")
        return self.row(t, self.variables, n, what, "variable", "coefficient").bound(
            name, sign, value
        )

    def parse_rtp(self) -> Rtp:
        self.keyword("RTP")
        relation = self.next("relation to prove")
        if relation == "infeas":
            return Rtp.make_infeasible()
        if relation != "range":
            raise self.error(
                ParseErrorKind.UNEXPECTED_TOKEN,
                f"expected infeas or range, found {excerpt(relation)}",
            )
        lb_text = self.next("lower bound")
        lb = None if lb_text == "-inf" else self.rational_value(lb_text)
        ub_text = self.next("upper bound")
        ub = None if ub_text == "inf" else self.rational_value(ub_text)
        return Rtp.make_range(lb, ub)

    def solution_point(self, n: int, ordinal: int) -> SolutionPoint:
        what = f"solution {ordinal}"
        name = self.next(f"{what} name")
        t = self.count(f"{what} term count")
        return SolutionPoint(name, self.row(t, self.variables, n, what, "variable", "value"))

    def derived_constraint(self, n: int, d: int, ordinal: int) -> DerivedConstraint:
        what = f"derivation {ordinal}"
        constraint = self.constraint_body(n, what)
        self.keyword("{", ParseErrorKind.UNEXPECTED_TOKEN)
        reason_text = self.next("reason", ParseErrorKind.UNKNOWN_REASON)
        reason = _REASONS.get(reason_text)
        if reason is None:
            raise self.error(
                ParseErrorKind.UNKNOWN_REASON, f"unknown reason {excerpt(reason_text)}"
            )

        data: Union[None, Row, Unsplit] = None
        if reason in (Reason.LIN, Reason.RND):
            c = self.count(f"{what} multiplier count")
            data = self.row(c, self.earlier, d, what, "constraint", "multiplier")
        elif reason is Reason.UNS:  # exactly four indices, no weights
            data = Unsplit(*(self.shifted_index(d, f"{what} unsplit index") for _ in range(4)))
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


def parse_certificate(source: Union[str, bytes]) -> tuple[Problem, Certificate]:
    """Parse VIPR 1.0 text into (Problem, Certificate).

    Literals of any length are read (`rational.read_int`).  Cyclic
    garbage collection is paused while this runs: the parse frees no
    cycles, so collections during it only cost time.
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


def _format_terms(row: Union[Constraint, Row]) -> str:
    """`t j_1 c_1 ... j_t c_t` of a row's values, 0-based."""
    parts = [str(len(row.terms))]
    for j, a in sorted(row.terms.items()):
        parts.append(f"{j - 1} {format_ratio(a, row.scale)}")
    return " ".join(parts)


def _format_constraint(constraint: Constraint) -> str:
    rhs = format_ratio(constraint.bound, constraint.scale)
    return f"{constraint.name} {constraint.sign.letter} {rhs} {_format_terms(constraint)}"


def _format_reason(derived: DerivedConstraint) -> str:
    if derived.reason in (Reason.ASM, Reason.SOL):
        return f"{{ {derived.reason.value} }}"
    if isinstance(derived.data, Row):
        return f"{{ {derived.reason.value} {_format_terms(derived.data)} }}"
    assert isinstance(derived.data, Unsplit)
    indices = " ".join(str(i - 1) for i in derived.data)
    return f"{{ uns {indices} }}"


def serialize_certificate(problem: Problem, certificate: Certificate) -> str:
    """Emit the model back in the VIPR 1.0 grammar; reparsing it yields
    a structurally identical model (legacy index attributes included).
    Integers of any length are printed (`rational.write_int`)."""
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
            f"{_format_reason(derived)} {write_int(derived.legacy_index)}"
        )
    return "\n".join(lines) + "\n"
