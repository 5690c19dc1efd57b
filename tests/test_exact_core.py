"""Differential tests of the exact core against plain references.

- The integer-scaled combination, domination, roundability, rounding and
  split test of `viprcert.algebra` against the `Fraction` implementation
  they replaced, kept here as the reference.
- `parse_rational` against its regular-expression definition.
- The parser's one-slice record readers against its token-by-token path
  on all four list kinds and on whole derivations, constraint bodies and
  solution points at every window size, and every list kind's row
  against `parse_rational` plus `scaled_row`; valid generated
  certificates never reach the token-by-token readers.
- Parse-error positions, which the parser computes only when it raises,
  against an eager tokenizer that records every token's line and column.
- The parser's bounded token window, at several chunk sizes, against a
  reader that holds every token of the text in one list.
- The package keeps no rational view of a row, and no second list type:
  `check` builds no `Fraction` per multiplier or coordinate, nor does the
  serializer per printed value, which prints each ratio with
  `rational.format_ratio`, the one p/q printer.
"""

from __future__ import annotations

import contextlib
import math
import re
from fractions import Fraction
from typing import Callable, Iterator
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CORPUS, fixture_path, load_fixture
from rows import constraint, lhs, multipliers, rhs, scaled_row
from test_parser import BROKEN
from test_scale_agreement import gen

from viprcert.algebra import (
    PseudoConstraint,
    constraint_dominates,
    is_split_disjunction,
    linear_combination,
)
from viprcert import model, parser, rational
from viprcert.checker import failures
from viprcert.model import Constraint, Row, Sign
from viprcert.parser import (
    ParseError,
    ParseErrorKind,
    _token_position,
    parse_certificate,
    serialize_certificate,
)
from viprcert.rational import RationalSyntaxError, parse_rational
from viprcert.spec import RtpFlags

# --- Fraction reference for the constraint algebra ----------------------------


def reference_dominates(terms, bound, eq, geq, leq, target: Constraint) -> bool:
    if not terms:
        if eq:
            absurd = bound != 0
        elif geq:
            absurd = bound > 0
        elif leq:
            absurd = bound < 0
        else:
            absurd = False
        if absurd:
            return True
    if terms != lhs(target):
        return False
    if target.sign is Sign.EQ:
        return eq and bound == rhs(target)
    if target.sign is Sign.GEQ:
        return geq and bound >= rhs(target)
    return leq and bound <= rhs(target)


def reference_combination(
    weights: Row, resolve: Callable[[int], Constraint]
) -> tuple[dict[int, Fraction], Fraction, bool, bool]:
    """The combined coefficients, with no zero among them, and bound."""
    accumulated: dict[int, Fraction] = {}
    bound = Fraction(0)
    geq = True
    leq = True
    for i, weight in sorted(lhs(weights).items()):
        constraint = resolve(i)
        weighted_sign = weight * constraint.sign.value
        if weighted_sign < 0:
            geq = False
        if weighted_sign > 0:
            leq = False
        for j, coefficient in lhs(constraint).items():
            accumulated[j] = accumulated.get(j, Fraction(0)) + weight * coefficient
        bound += weight * rhs(constraint)
    return {j: c for j, c in accumulated.items() if c}, bound, geq, leq


def reference_roundable(terms, eq: bool, int_vars) -> bool:
    if eq:
        return False
    return all(j in int_vars and c.denominator == 1 for j, c in terms.items())


def reference_rnd_dominance(terms, bound, geq, leq, target) -> bool:
    rounded = math.ceil(bound) if geq else math.floor(bound)
    return reference_dominates(terms, Fraction(rounded), False, geq, leq, target)


def reference_split(ci: Constraint, cj: Constraint, int_vars) -> bool:
    if lhs(ci) != lhs(cj):
        return False
    for j, coefficient in lhs(ci).items():
        if j not in int_vars or coefficient.denominator != 1:
            return False
    if rhs(ci).denominator != 1 or rhs(cj).denominator != 1:
        return False
    si = ci.sign.value
    sj = cj.sign.value
    if si == 0 or si + sj != 0:
        return False
    if si == 1:
        return rhs(ci) == rhs(cj) + 1
    return rhs(ci) == rhs(cj) - 1


# --- random rows: mixed denominators, negative weights, cancellations ---------

N_VARS = 4
INT_VARS = frozenset({1, 2, 3})
denominators = st.sampled_from([1, 1, 1, 2, 3, 4, 5, 6, 7, 12])
rationals = st.builds(Fraction, st.integers(-30, 30), denominators)
nonzero = rationals.filter(bool)
signs = st.sampled_from(list(Sign))


@st.composite
def constraints(draw):
    terms = {j: draw(rationals) for j in range(1, N_VARS + 1) if draw(st.booleans())}
    return constraint("r", terms, draw(signs), draw(rationals))


def scaled_copy(c: Constraint, factor: Fraction) -> Constraint:
    """factor * c, with the relation flipped for a negative factor."""
    sign = Sign(c.sign.value * (1 if factor > 0 else -1))
    terms = {j: v * factor for j, v in lhs(c).items()}
    return constraint("scaled", terms, sign, rhs(c) * factor)


@st.composite
def combinations(draw):
    """A pool of constraints and multipliers over it.  A cancelling pair
    (w on c, -w / f on f * c) is added half the time, so the pair's
    terms vanish exactly."""
    pool = draw(st.lists(constraints(), min_size=1, max_size=5))
    weights = {
        i + 1: draw(rationals) for i in range(len(pool)) if draw(st.booleans())
    }
    if draw(st.booleans()):
        a = draw(st.integers(1, len(pool)))
        factor = draw(nonzero)
        w = draw(nonzero)
        pool.append(scaled_copy(pool[a - 1], factor))
        if draw(st.booleans()):
            weights = {}
        weights[a] = w
        weights[len(pool)] = -w / factor
    return pool, multipliers(weights)


@st.composite
def targets_near(draw, terms: dict[int, Fraction], bound: Fraction):
    """Usually the combination itself under some relation and a nearby
    bound, sometimes an unrelated constraint."""
    if draw(st.integers(0, 4)) == 0:
        return draw(constraints())
    shift = draw(st.sampled_from([0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 3)]))
    return constraint("t", terms, draw(signs), bound + shift)


@settings(max_examples=400)
@given(combinations(), st.data())
def test_combination_domination_and_rounding_match_the_fraction_reference(case, data):
    pool, weights = case
    resolve = lambda i: pool[i - 1]  # noqa: E731
    combo = linear_combination(weights, resolve)
    terms, bound, geq, leq = reference_combination(weights, resolve)
    assert (lhs(combo), rhs(combo), combo.geq, combo.leq) == (terms, bound, geq, leq)
    assert combo.eq == (geq and leq)

    target = data.draw(targets_near(terms, bound))
    eq = geq and leq
    assert combo.dominates(target) == reference_dominates(terms, bound, eq, geq, leq, target)
    assert combo.roundable(INT_VARS) == reference_roundable(terms, eq, INT_VARS)
    rounded_target = data.draw(targets_near(terms, Fraction(math.ceil(bound))))
    for t in (target, rounded_target):
        want = reference_rnd_dominance(terms, bound, geq, leq, t)
        assert combo.rounded_dominates(t) == want
        # the same over the least scale
        canonical = PseudoConstraint(*scaled_row(terms, bound), geq, leq)
        assert canonical.rounded_dominates(t) == want


@settings(max_examples=400)
@given(constraints(), st.booleans(), st.booleans(), st.data())
def test_public_domination_and_roundability_match_the_fraction_reference(
    source, geq, leq, data
):
    # the flags are drawn independently of the source's sign
    terms, bound = lhs(source), rhs(source)
    target = data.draw(targets_near(terms, bound))
    eq = geq and leq
    pseudo = PseudoConstraint(source.scale, source.terms, source.bound, geq, leq)
    assert pseudo.dominates(target) == reference_dominates(terms, bound, eq, geq, leq, target)
    s = source.sign.value
    assert constraint_dominates(source, target) == reference_dominates(
        terms, bound, s == 0, s >= 0, s <= 0, target
    )
    assert pseudo.roundable(INT_VARS) == reference_roundable(terms, eq, INT_VARS)


@st.composite
def split_pairs(draw):
    """Mostly near-splits: integral rows with opposite relations and
    bounds one apart, then perturbed."""
    base = draw(constraints())
    if draw(st.booleans()):
        return base, draw(constraints())
    terms = {j: Fraction(v.numerator) for j, v in lhs(base).items()}
    b = Fraction(draw(st.integers(-5, 5)))
    low = constraint("l", terms, Sign.LEQ, b + draw(st.sampled_from([0, 0, 1, Fraction(1, 2)])))
    high = constraint("h", terms, Sign.GEQ, b + 1)
    return (low, high) if draw(st.booleans()) else (high, low)


@settings(max_examples=400)
@given(split_pairs())
@example((  # 0 <= 0 and 0 >= 1/2: bounds one apart only once scaled
    constraint("l", {}, Sign.LEQ, Fraction(0)),
    constraint("h", {}, Sign.GEQ, Fraction(1, 2)),
))
def test_split_disjunction_matches_the_fraction_reference(pair):
    ci, cj = pair
    assert is_split_disjunction(ci, cj, INT_VARS) == reference_split(ci, cj, INT_VARS)


# --- parse_rational against its regular-expression definition --------------

_INTEGER = re.compile(r"[+-]?\d+\Z")
_FRACTION = re.compile(r"([+-]?\d+)/([+-]?\d+)\Z")


def reference_parse_rational(token: str) -> Fraction:
    from viprcert.rational import (
        DecimalNotationError,
        MalformedNumberError,
        ZeroDenominatorError,
    )

    if "." in token:
        raise DecimalNotationError(
            f"decimal notation is not accepted, write a fraction instead: {token!r}"
        )
    if _INTEGER.match(token):
        return Fraction(int(token))
    m = _FRACTION.match(token)
    if m is None:
        raise MalformedNumberError(f"not an integer or p/q fraction: {token!r}")
    denominator = int(m.group(2))
    if denominator == 0:
        raise ZeroDenominatorError(f"zero denominator: {token!r}")
    return Fraction(int(m.group(1)), denominator)


def _outcome(parse, token):
    try:
        return parse(token)
    except RationalSyntaxError as exc:
        return type(exc), str(exc)


EDGE_TOKENS = [
    "+", "-", "", "1_0", "٣", "1/-2", "-0/5", "3/0", "+-1", "--1", "1/", "/1",
    "1//2", "²", "½", "-٣/٤", "0x1", "1e3", "1.5", ".", "1/2.0", "+0/-0",
    "-00/+007", "7", "-7", "+7", "14/3", "-6/4", "1/2/3", "inf", "-inf",
]


@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_parse_rational_matches_the_regex_definition_on_edge_tokens(token):
    assert _outcome(parse_rational, token) == _outcome(reference_parse_rational, token)


@settings(max_examples=500)
@given(st.text(alphabet="0123456789+-/._x٣²", max_size=8))
def test_parse_rational_matches_the_regex_definition(token):
    assert _outcome(parse_rational, token) == _outcome(reference_parse_rational, token)


# --- the list reader against the token-by-token path and the reference -------

# each list kind: the text before it, and a valid list for its place; there
# are d = 3 constraints as there are n = 3 variables, so every list's
# indices range over 0..2
LISTS = {
    "objective": ("VER 1.0\nVAR 3\nx y z\nINT 0\nOBJ min\n", "2 0 1/2 2 -3"),
    "constraint": ("\nCON 1 0\nC1 G ", "1 1 0 1"),
    "solution": ("\nRTP range -inf inf\nSOL 1\npt ", "0"),
    "multipliers": ("\nDER 2\nD0 G 0 0 { asm } -1\nD1 G 0 0 { lin ", "1 0 1"),
}
# the lists read to a `Row`
ROW_LISTS = ("objective", "solution", "multipliers")


def list_certificate(kind: str, tokens: str, cut: bool = False) -> str:
    """A certificate whose list of `kind` is `tokens`: `rhs t j c ...` for
    a constraint body, `t i v ...` otherwise.  With `cut`, the text ends
    right after it."""
    text = ""
    for name, (before, valid) in LISTS.items():
        text += before + (tokens if name == kind else valid)
        if cut and name == kind:
            return text
    return text + " } -1\n"


def _parse_outcome(text: str, token_path: bool = False):
    """The parsed model, or the error's kind, position and message; with
    `token_path` no record is taken in one slice, so every record is read
    token by token."""
    forced = mock.patch.object(parser._Parser, "_take", lambda *_: None)
    with forced if token_path else contextlib.nullcontext():
        try:
            return parse_certificate(text)
        except ParseError as exc:
            return exc.kind, exc.line, exc.column, exc.message


def _row_outcome(body: str, token_path: bool = False):
    """The parsed row of `C1 G <body>`, or the error's outcome."""
    outcome = _parse_outcome(list_certificate("constraint", body), token_path)
    if isinstance(outcome[0], ParseErrorKind):
        return outcome
    constraint = outcome[0].constraints[0]
    return constraint.scale, constraint.terms, constraint.bound


def _list_row(kind: str, problem, certificate) -> Row:
    """The parsed `Row` of the `kind` list."""
    if kind == "objective":
        return problem.objective
    return certificate.sol[0].coords if kind == "solution" else certificate.der[-1].data


def _list_outcome(kind: str, listed: str, token_path: bool = False):
    """The parsed row of `listed` as the `kind` list, or the error's outcome."""
    outcome = _parse_outcome(list_certificate(kind, listed), token_path)
    if isinstance(outcome[0], ParseErrorKind):
        return outcome
    return tuple(_list_row(kind, *outcome))


def reference_row(rhs: str, pairs: list[tuple[str, str]]):
    """`parse_rational` and `scaled_row` over a body known to be valid."""
    values = {int(j) + 1: parse_rational(v) for j, v in pairs}
    return scaled_row({j: v for j, v in values.items() if v}, parse_rational(rhs))


def reference_list(pairs: list[tuple[str, str]]):
    """The reference row of a valid objective, solution or multiplier
    list, reduced: `(D, {i: a_i})` over the least D."""
    scale, terms, _ = reference_row("0", pairs)
    g = math.gcd(scale, *terms.values())
    return scale // g, {j: a // g for j, a in terms.items()}


BIG = "7" * 5000  # past CPython's default int <-> str digit limit
BIG_INT = 7 * (10**5000 - 1) // 9
ROW_CASES = [
    # (rhs, pairs, expected row or error kind)
    ("+0", [("0", "-0/5"), ("2", "+0")], (1, {}, 0)),
    ("-0/5", [], (1, {}, 0)),
    ("0", [("0", "0"), ("1", "0/7")], (1, {}, 0)),
    ("3/-4", [("0", "-3/-4")], (4, {1: 3}, -3)),
    ("2/2", [("0", "2/2"), ("1", "-4/2")], (1, {1: 1, 2: -2}, 1)),
    ("6/4", [("0", "3/2"), ("2", "9/6")], (2, {1: 3, 3: 3}, 3)),
    ("٣", [("٠", "٣/٤"), ("٢", "-١")], (4, {1: 3, 3: -4}, 12)),
    (BIG, [("0", f"-{BIG}/3"), ("1", "1/3")], (3, {1: -BIG_INT, 2: 1}, 3 * BIG_INT)),
    ("1", [("+1", "2")], (1, {2: 2}, 1)),  # a signed index is valid
    ("1_000", [], ParseErrorKind.UNEXPECTED_TOKEN),
    ("1", [("0", "1_000")], ParseErrorKind.UNEXPECTED_TOKEN),
    ("1", [("0", "1/0")], ParseErrorKind.UNEXPECTED_TOKEN),
    ("1", [("0", "2"), ("1", "0/0")], ParseErrorKind.UNEXPECTED_TOKEN),
    ("1.5", [("0", "1")], ParseErrorKind.DECIMAL_NOTATION),
    ("1", [("0", "1"), ("1", "-0.5")], ParseErrorKind.DECIMAL_NOTATION),
    ("1", [("0", "½")], ParseErrorKind.UNEXPECTED_TOKEN),
    ("1", [("0", "1"), ("0", "2")], ParseErrorKind.BAD_INDEX),  # repeated
    ("1", [("3", "1")], ParseErrorKind.BAD_INDEX),  # out of range
    ("1", [("1_0", "1")], ParseErrorKind.BAD_INDEX),
    ("1", [("0", "1/٣")], (3, {1: 1}, 3)),  # valid, but missed by the pattern
    ("0/00", [], ParseErrorKind.UNEXPECTED_TOKEN),
    # where `int` and a pattern of signs and digits could part: every one
    # of these is refused, on both paths
    *(("1", [("0", "1"), ("1", token)], ParseErrorKind.UNEXPECTED_TOKEN) for token in (
        "5/", "/5", "1/2/3", "+-1", "--1", "1/+0", "٣/٠", "1__0", "1/_2", "0/-0",
    )),
    *((token, [("0", "1")], ParseErrorKind.UNEXPECTED_TOKEN) for token in ("5/", "/5", "1__0")),
]


@pytest.mark.parametrize("rhs, pairs, expected", ROW_CASES, ids=range(len(ROW_CASES)))
def test_row_reader_edge_tokens(rhs, pairs, expected):
    listed = " ".join([str(len(pairs)), *(f"{j} {v}" for j, v in pairs)])
    body = f"{rhs} {listed}"
    outcome = _row_outcome(body)
    assert outcome == _row_outcome(body, token_path=True)
    read = [(str(int(j)), v) for j, v in pairs]
    if isinstance(expected, ParseErrorKind):
        assert outcome[0] is expected
    else:
        assert outcome == expected
        assert outcome == reference_row(rhs, read)

    # the same pairs as each list read to a Row
    for kind in ROW_LISTS:
        row = _list_outcome(kind, listed)
        assert row == _list_outcome(kind, listed, token_path=True), kind
        rhs_valid = isinstance(_outcome(parse_rational, rhs), Fraction)
        if isinstance(expected, ParseErrorKind) and rhs_valid:
            assert row[0] is expected, kind  # the error is in the pairs
        else:
            assert row == reference_list(read), kind


def _keyword_outcome(objective: str, rhs: str, token_path: bool = False):
    """The row of `C1 G <rhs> OBJ` under the objective list `objective`."""
    text = list_certificate("objective", objective).replace("C1 G 1 1 0 1", f"C1 G {rhs} OBJ")
    outcome = _parse_outcome(text, token_path)
    if isinstance(outcome[0], ParseErrorKind):
        return outcome
    return tuple(outcome[0].constraints[0])[2:]


def test_row_reader_objective_keyword():
    # the objective is 1/2 x + (-3) z: over 2 with a bound of 1/3, over 6
    assert _row_outcome("1/3 OBJ") == (6, {1: 3, 3: -18}, 2)
    assert _row_outcome("-4 OBJ") == (2, {1: 1, 3: -6}, -8)
    for body in ("1/3 OBJ", "1.5 OBJ", "1/0 OBJ", "+2 OBJ"):
        assert _row_outcome(body) == _row_outcome(body, token_path=True), body
    # given unreduced and with a negative denominator, 2/4 x + 3/-2 z is
    # the row 1/2 x - 3/2 z
    unreduced = "2 0 2/4 2 3/-2"
    assert _list_outcome("objective", unreduced) == (2, {1: 1, 3: -3})
    assert _list_outcome("objective", unreduced) == reference_list([("0", "2/4"), ("2", "3/-2")])
    for rhs, row in (("1/3", (6, {1: 3, 3: -9}, 2)), ("1/-2", (2, {1: 1, 3: -3}, -1))):
        assert _keyword_outcome(unreduced, rhs) == row, rhs
        assert _keyword_outcome(unreduced, rhs, token_path=True) == row, rhs
        assert row == reference_row(rhs, [("0", "1/2"), ("2", "-3/2")])


def _digits(draw, text: str) -> str:
    """`text` with its ASCII digits sometimes written as Arabic-Indic ones."""
    if draw(st.integers(0, 5)) == 0:
        return text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    return text


@st.composite
def value_tokens(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(EDGE_TOKENS + ["1/0", "0/0", "-0", "1_000"]))
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    numerator = _digits(draw, str(draw(st.integers(0, 10**draw(st.integers(1, 30))))))
    if kind < 5:
        return sign + numerator
    den_sign = draw(st.sampled_from(["", "", "", "-", "+"]))
    denominator = _digits(draw, str(draw(st.integers(0, 40))))
    return f"{sign}{numerator}/{den_sign}{denominator}"


index_tokens = st.sampled_from(["0", "1", "2", "0", "1", "2", "3", "+1", "-0", "٢", "x", "1.0"])


@settings(max_examples=500)
@given(value_tokens(), st.lists(st.tuples(index_tokens, value_tokens()), max_size=4), st.data())
def test_row_reader_matches_the_token_path_and_the_reference(rhs, pairs, data):
    """Every list kind reads the same with and without the one-slice case,
    and one that reads back also matches the reference row."""
    kind = data.draw(st.sampled_from(list(LISTS)))
    count = str(len(pairs))
    if data.draw(st.integers(0, 9)) == 0:
        count = data.draw(st.sampled_from(["+" + count, str(len(pairs) + 1), "-1", "OBJ"]))
    tokens = [count, *(token for pair in pairs for token in pair)]
    if kind == "constraint":
        tokens.insert(0, rhs)
    short = data.draw(st.integers(0, 4)) == 0  # cut short at the last value
    cut = data.draw(st.integers(0, 3)) == 0
    listed = " ".join(tokens[:-1] if short else tokens)
    text = list_certificate(kind, listed, cut)
    outcome = _parse_outcome(text)
    assert outcome == _parse_outcome(text, token_path=True)
    # an empty token vanishes from the body and shifts the rest, so the
    # reference only applies when the body reads back as the drawn tokens
    if (
        isinstance(outcome[0], ParseErrorKind)
        or count != str(len(pairs))
        or listed.split() != tokens
    ):
        return
    read = [(str(int(j)), v) for j, v in pairs]
    if kind == "constraint":
        assert tuple(outcome[0].constraints[0])[2:] == reference_row(rhs, read)
    else:
        assert tuple(_list_row(kind, *outcome)) == reference_list(read)


# --- error positions computed on demand against an eager tokenizer ----------

_TOKEN_RE = re.compile(r"\S+")


def eager_positions(text: str) -> list[tuple[str, int, int]]:
    """Every token with its line and column, lines split at "\\n" only."""
    return [
        (match.group(), lineno, match.start() + 1)
        for lineno, line in enumerate(text.split("\n"), start=1)
        for match in _TOKEN_RE.finditer(line)
    ]


SEPARATORS = [
    " ", " ", "\t", "\n", "\r\n", "\n\n", " \t\n\r\n", "\x0b", "\x0c",
    "\xa0", "\x1c", "\x85", "\u2028", "\u3000",
]
CORRUPTIONS = ["@", "0.5", "-1", "999", "x", "1/0", "{", "}", "+", "OBJ", None]


@st.composite
def layouts(draw):
    """A corpus file's tokens, one of them corrupted (None deletes it) or
    the file cut short, laid out with random whitespace."""
    tokens = fixture_path(draw(st.sampled_from(CORPUS))).read_text().split()
    i = draw(st.integers(0, len(tokens) - 1))
    bad = draw(st.sampled_from(CORRUPTIONS + ["truncate"]))
    if bad == "truncate":
        del tokens[i:]
    elif bad is None:
        del tokens[i]
    else:
        tokens[i] = bad
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens) + 1,
                         max_size=len(tokens) + 1))
    return tokens, seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))


def _parse_error(text: str):
    try:
        parse_certificate(text)
    except ParseError as exc:
        return exc
    return None


@settings(max_examples=200)
@given(layouts())
def test_lazy_error_positions_match_an_eager_tokenizer(layout):
    tokens, text = layout
    eager = eager_positions(text)
    assert [t for t, _, _ in eager] == tokens
    for index, (_, line, column) in enumerate(eager):
        assert _token_position(text, index) == (line, column)

    # the failing token is found from the same tokens on one line, where a
    # column names a token unambiguously
    flat = " ".join(tokens)
    flat_error = _parse_error(flat)
    error = _parse_error(text)
    if flat_error is None:
        assert error is None
        return
    assert (error.kind, error.message) == (flat_error.kind, flat_error.message)
    starts = [m.start() + 1 for m in _TOKEN_RE.finditer(flat)]
    if flat_error.column in starts:
        _, line, column = eager[starts.index(flat_error.column)]
    elif eager:  # end of input, just past the last token
        last, line, column = eager[-1]
        column += len(last)
        assert flat_error.column == len(flat) + 1
    else:
        line, column = 1, 1
    assert (error.line, error.column) == (line, column)


# --- the token window against a whole-list reader ----------------------------


class WholeListParser(parser._Parser):
    """The reference reader: every token of the text in one list, read
    as the parser read them before it had a window."""

    def __init__(self, text: str):
        super().__init__(text)
        self.tokens = text.split()

    def _fill(self, need: int) -> None:
        pass

    def next(self, context, kind=ParseErrorKind.UNEXPECTED_TOKEN):
        if self.pos == len(self.tokens):
            if self.tokens:  # just past the last token
                line, column = _token_position(self.text, self.pos - 1)
                column += len(self.tokens[-1])
            else:
                line, column = 1, 1
            raise ParseError(line, column, kind, f"unexpected end of input, expected {context}")
        self.pos += 1
        return self.tokens[self.pos - 1]


WINDOW_CHUNKS = (1, 2, 7, parser.CHUNK)


def assert_window_matches_the_whole_list(text: str, chunk: int) -> None:
    """The same model, or the same error kind, position and message."""
    try:
        expected = WholeListParser(text).parse()
    except ParseError as exc:
        expected = exc.kind, exc.line, exc.column, exc.message
    with mock.patch.object(parser, "CHUNK", chunk):
        assert _parse_outcome(text) == expected


def _generated(derivations: int, n: int, m: int, kind: str, forgery=None) -> str:
    spec = gen.Spec(n=n, m=m, derivations=derivations, kind=kind, split_depth=3)
    return gen.render(gen.build(spec, 1), forgery, 1)[0].decode()


# small certificates to mutate: the fixtures and two generated ones
WINDOW_BASES = [fixture_path(name).read_text() for name in CORPUS] + [
    _generated(20, 4, 8, "optimal"),
    _generated(20, 4, 8, "infeas"),
]


@pytest.mark.parametrize("chunk", WINDOW_CHUNKS)
def test_window_matches_the_whole_list_reader(chunk):
    texts = WINDOW_BASES + [text for text, _ in BROKEN]
    # one over 64 KiB, so the default chunk has an edge too
    texts += [_generated(150, 8, 16, "optimal", forgery) for forgery in (None, "rnd", "feas")]
    texts.append(_generated(500, 100, 300, "optimal"))
    for text in texts:
        assert_window_matches_the_whole_list(text, chunk)


@st.composite
def window_mutants(draw):
    """A small certificate with CRLF, tab, single-line or its own layout,
    perhaps with one token corrupted or deleted, then perhaps cut inside
    a token or at the end of a line, which ends a list."""
    text = draw(st.sampled_from(WINDOW_BASES))
    tokens = text.split()
    bad = draw(st.sampled_from(CORRUPTIONS + ["keep"]))
    if bad != "keep":
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i : i + 1] = [] if bad is None else [bad]
        text = "\n".join(" ".join(tokens[j : j + 4]) for j in range(0, len(tokens), 4))
    layout = draw(st.sampled_from(["own", "crlf", "tabs", "one line"]))
    if layout == "crlf":
        text = text.replace("\n", "\r\n")
    elif layout == "tabs":
        text = text.replace(" ", "\t")
    elif layout == "one line":
        text = " ".join(text.split())
    cut = draw(st.sampled_from(["none", "character", "line"]))
    if cut == "character":
        text = text[: draw(st.integers(0, len(text)))]
    elif cut == "line":
        lines = text.split("\n")
        text = "\n".join(lines[: draw(st.integers(0, len(lines)))])
        text += draw(st.sampled_from(["", "\n", " "]))
    return text


@settings(max_examples=300)
@given(window_mutants(), st.sampled_from(WINDOW_CHUNKS))
def test_window_matches_the_whole_list_reader_on_mutants(text, chunk):
    assert_window_matches_the_whole_list(text, chunk)


# --- whole records: the one-slice readers against the token path -----------

# a certificate with n = 3 variables, m = 2 constraints, one solution and
# two derivations around the record under test, which is a constraint, a
# solution point or a derivation; with it, d = 5
RECORD_KINDS = ("constraint", "solution", "derivation")


def record_certificate(kind: str, record: str, cut: bool = False) -> str:
    """The certificate whose record of `kind` is `record`; with `cut`,
    the text ends right after it."""
    extra = {place: int(place == kind) for place in RECORD_KINDS}
    parts = [
        "VER 1.0\nVAR 3\nx y z\nINT 1\n0\nOBJ min\n2 0 1/2 2 -3\n",
        f"CON {2 + extra['constraint']} 0\nC1 G 1 1 0 1\n", "constraint",
        "\nC2 L 4 2 1 1 2 1\nRTP range -inf 7\n",
        f"SOL {1 + extra['solution']}\n", "solution", "\np1 1 0 2\n",
        f"DER {2 + extra['derivation']}\nD0 G 0 0 {{ asm }} -1\n", "derivation",
        "\nD1 L 9 OBJ { sol } -1\n",
    ]
    at = parts.index(kind)
    parts[at] = record
    for place in RECORD_KINDS:
        if place != kind:
            parts.remove(place)
    return "".join(parts[: parts.index(record) + 1] if cut else parts)


# tokens that replace one of a record's: signed, leading-zero, Unicode,
# out-of-range and huge counts and indices, and malformed values
RECORD_FAULTS = [
    "+1", "-0", "٢", "00", "3", "5", "-1", "10000000000", "x", "1.0", "OBJ", "{", "}",
    "5/", "/5", "1/2/3", "+-1", "1/+0", "٣/٠", "1__0", "0/-0", "1/-2", "Lin", "X",
]


@st.composite
def index_lists(draw, limit: int):
    """`t (i v)^t` with indices below `limit`, now and then repeated."""
    unique = draw(st.integers(0, 5)) > 0
    indices = draw(st.lists(st.integers(0, limit - 1), max_size=4, unique=unique))
    tokens = [str(len(indices))]
    for i in indices:
        tokens += [_digits(draw, str(i)), draw(value_tokens())]
    return tokens


@st.composite
def records(draw):
    """A random record of a random kind: valid, or with one token
    replaced or deleted, or cut short."""
    kind = draw(st.sampled_from(RECORD_KINDS))
    name = draw(st.sampled_from(["r", "OBJ", "x_1", "٣"]))
    if kind == "solution":
        tokens = [name, *draw(index_lists(3))]
    else:
        body = ["OBJ"] if draw(st.integers(0, 4)) == 0 else draw(index_lists(3))
        tokens = [name, draw(st.sampled_from("EGL")), draw(value_tokens()), *body]
    if kind == "derivation":
        # constraints 0-2 precede the record, which is 3; 4 follows it
        reason = draw(st.sampled_from(["asm", "lin", "rnd", "uns", "sol"]))
        data = draw(index_lists(5)) if reason in ("lin", "rnd") else []
        if reason == "uns":
            data = [str(draw(st.integers(0, 4))) for _ in range(4)]
        brace, close = draw(st.sampled_from([("{", "}")] * 4 + [("(", "}"), ("{", "]")]))
        tokens += [brace, reason, *data, close, draw(st.sampled_from(["-1", "-1", "0", "+3"]))]
    fault = draw(st.sampled_from(["none", "none", "replace", "replace", "delete", "cut"]))
    at = draw(st.integers(0, len(tokens) - 1))
    if fault == "replace":
        tokens[at] = draw(st.sampled_from(RECORD_FAULTS))
    elif fault in ("delete", "cut"):
        del tokens[at : at + 1 if fault == "delete" else len(tokens)]
    return kind, " ".join(tokens), fault == "cut"


@given(records())
@example(("derivation", "r G 0 1 0 1 { lin 1 0 1 ] -1", False))
@example(("derivation", "r G 0 OBJ { uns 0 1 2 5 } -1", False))
@example(("derivation", "r G 0 0 { sol } x", False))
@example(("solution", "r 2 0 1 0 2", False))
@settings(deadline=None)
def test_record_readers_match_the_token_path_at_every_window_size(record):
    """A record gives the same model, or the same located error, whether
    it is read from one slice or token by token, at every chunk size."""
    text = record_certificate(*record)
    expected = _parse_outcome(text, token_path=True)
    for chunk in WINDOW_CHUNKS:
        with mock.patch.object(parser, "CHUNK", chunk):
            assert _parse_outcome(text) == expected, chunk
            assert _parse_outcome(text, token_path=True) == expected, chunk


def test_record_certificates_are_valid_around_a_valid_record():
    """The text around the record under test is valid, so an error in a
    drawn record is that record's."""
    records_of_kind = {
        "constraint": ["r G 1/2 2 0 1 2 -1/3", "r E 3 OBJ", "r L 0 0"],
        "solution": ["r 3 0 1 1 -1/2 2 5"],
        "derivation": [
            "r G 1 1 0 1 { lin 2 0 1/2 1 -3 } -1", "r L 1 OBJ { rnd 1 2 1 } 7",
            "r E 0 0 { uns 0 1 2 3 } -1", "r G 0 0 { sol } -1", "r G 0 0 { asm } -1",
        ],
    }
    for kind, bodies in records_of_kind.items():
        for body in bodies:
            problem, certificate = parse_certificate(record_certificate(kind, body))
            assert problem.m == (3 if kind == "constraint" else 2)
            assert len(certificate.sol) == (2 if kind == "solution" else 1)
            assert len(certificate.der) == (3 if kind == "derivation" else 2)


def test_valid_certificates_never_leave_the_record_readers():
    """Every derivation and every `index value` list of a valid generated
    certificate, of every relation kind with all five reasons and `OBJ`
    bodies, is read from one slice: with the token-by-token derivation
    reader and the pair-by-pair list reader made to raise, each still
    parses to the token path's model.  A silent fallback would only be
    slower."""
    seen = set()
    for i, kind in enumerate(gen.KINDS):
        spec = gen.Spec(n=6, m=10, derivations=60, kind=kind, split_depth=1 + i % 3)
        text = gen.render(gen.build(spec, 7 + i))[0].decode()
        expected = _parse_outcome(text, token_path=True)
        broken = mock.Mock(side_effect=AssertionError("read token by token"))
        readers = ("pairs", "derived_constraint")
        with contextlib.ExitStack() as stack:
            for reader in readers:
                stack.enter_context(mock.patch.object(parser._Parser, reader, broken))
            assert parse_certificate(text) == expected, kind
        problem, certificate = expected
        seen |= {derived.reason.value for derived in certificate.der}
        seen |= {"OBJ"} if " OBJ " in text else set()
        assert certificate.sol or kind == "infeas"
    assert seen == {"asm", "lin", "rnd", "uns", "sol", "OBJ"}


# --- one numeric representation ---------------------------------------------


def test_the_package_keeps_no_rational_view_of_a_row():
    """Nor a second type for a list: the objective, solution points and
    multipliers are each a `Row`."""
    views = {
        Constraint: ("lhs", "rhs"),
        PseudoConstraint: ("lhs", "rhs"),
        Row: ("lhs", "rhs"),
        model: ("LinearExpr", "scaled_row", "Multipliers", "Objective"),
        rational: ("ZERO", "is_integer"),
    }
    present = [
        (owner, name) for owner, names in views.items() for name in names if hasattr(owner, name)
    ]
    assert present == []


@contextlib.contextmanager
def _counting_fractions() -> Iterator[list[int]]:
    """Counts, in the one item of the list it yields, the `Fraction`s
    built inside the block."""
    built = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    with mock.patch.object(Fraction, "__new__", counting):
        yield built


def _listed(certificate) -> int:
    """The number of multipliers and solution coordinates a certificate
    lists."""
    listed = sum(len(d.data.terms) for d in certificate.der if isinstance(d.data, Row))
    return listed + sum(len(point.coords.terms) for point in certificate.sol)


def _fractions_built(text: str) -> tuple[int, int]:
    """`Fraction`s built by `parse_certificate` and by every failure
    `failures` can report on `text`, and the number of multipliers and
    solution coordinates it lists."""
    with _counting_fractions() as built:
        problem, certificate = parse_certificate(text)
        list(failures(problem, certificate, RtpFlags.of(problem, certificate)))
    return built[0], _listed(certificate)


def test_check_builds_no_fraction_per_multiplier_or_coordinate():
    """What `Fraction`s remain are single numbers: bounds of the relation
    to prove, `OBJ` bodies and `sol` steps.  So from one size to four
    times that, their number grows far less than the lists do."""
    small, large = (
        _fractions_built(_generated(derivations, 100, 300, "optimal"))
        for derivations in (500, 2000)
    )
    assert large[1] - small[1] > 1000
    assert large[0] - small[0] < (large[1] - small[1]) / 20, (small, large)


def test_serializer_builds_no_fraction_per_value():
    """It prints each value `a_j / D` of a row from the row's integers, so
    the `Fraction`s it builds do not grow with the lists."""
    built, listed = [], []
    for derivations in (500, 2000):
        problem, certificate = parse_certificate(_generated(derivations, 100, 300, "optimal"))
        with _counting_fractions() as counted:
            serialize_certificate(problem, certificate)
        built.append(counted[0])
        listed.append(_listed(certificate))
    assert listed[1] - listed[0] > 1000
    assert built[1] == built[0], built


@given(st.integers(), st.integers(min_value=1), st.integers(min_value=1, max_value=10**30))
@example(0, 7, 1)
@example(-6, 4, 1)
def test_serializer_prints_a_ratio_as_format_rational_does(numerator, scale, common):
    # the one p/q printer, which the serializer calls, against `Fraction`'s own text
    expected = str(Fraction(numerator, scale))
    assert rational.format_ratio(numerator * common, scale * common) == expected
    assert rational.format_rational(Fraction(numerator, scale)) == expected
