from __future__ import annotations

import random
import re
import sys
import tracemalloc

import pytest

from assumptions import chain_text
from conftest import CORPUS, LOWEST_DIGIT_LIMIT, fixture_path, int_digit_limit, load_fixture
from rows import lhs, rhs
from test_scale_agreement import gen

from viprcert import parser
from viprcert.model import Reason, Sense, Sign
from viprcert.parser import (
    ParseError,
    ParseErrorKind,
    parse_certificate,
    serialize_certificate,
)
from viprcert.rational import Rational


def test_parse_forged1_model():
    problem, certificate = load_fixture("forged1")
    assert problem.sense is Sense.MAX
    assert problem.n == 2
    assert problem.var_names == ("x", "y")
    assert problem.int_vars == {1, 2}
    assert lhs(problem.objective) == {1: Rational(1), 2: Rational(1)}
    assert problem.m == 4
    assert problem.bound_count == 4
    assert certificate.rtp.lb == 1 and certificate.rtp.ub == 1
    assert len(certificate.sol) == 1
    point = certificate.sol[0]
    assert point.name == "opt"
    assert lhs(point.coords) == {2: Rational(1)}
    assert 1 not in point.coords.terms  # an absent coordinate is zero
    assert len(certificate.der) == 1
    derived = certificate.der[0]
    assert derived.reason is Reason.SOL
    # the OBJ keyword stands in for the objective's coefficient list
    assert lhs(derived.constraint) == lhs(problem.objective)
    assert derived.constraint.sign is Sign.LEQ
    assert rhs(derived.constraint) == 1
    assert derived.legacy_index == -1


def test_parse_manipulated1_multipliers_are_shifted_to_one_based():
    problem, certificate = load_fixture("manipulated1")
    row7 = certificate.der[3]
    assert not lhs(row7.constraint)
    assert rhs(row7.constraint) == 1
    assert lhs(row7.data) == {1: Rational(1), 4: Rational(-2), 6: Rational(-3)}
    assert row7.legacy_index == 12
    row14 = certificate.der[10]
    assert row14.reason is Reason.UNS
    assert tuple(row14.data) == (12, 5, 13, 4)


def test_zero_term_objective():
    problem, _ = load_fixture("manipulated1")
    assert problem.sense is Sense.MIN
    assert not lhs(problem.objective)


def test_rtp_variants():
    _, forged2 = load_fixture("forged2")
    assert not forged2.rtp.infeasible
    assert forged2.rtp.lb is None
    assert forged2.rtp.ub == 0
    _, cert0 = load_fixture("cert0")
    assert cert0.rtp.infeasible


def test_whitespace_is_insignificant():
    text = fixture_path("cert0").read_text()
    reflowed = " ".join(text.split())
    assert parse_certificate(reflowed) == parse_certificate(text)


BROKEN = [
    # (source mutation description is the id), text, expected kind
    ("VER 2.0\n", ParseErrorKind.UNEXPECTED_TOKEN),
    ("VERSION 1.0\n", ParseErrorKind.MISSING_SECTION),
    ("VER 1.0\nVAR -1\n", ParseErrorKind.BAD_COUNT),
    ("VER 1.0\nVAR x\n", ParseErrorKind.BAD_COUNT),
    ("VER 1.0\nVAR 1\nx\nINT 1\n3\n", ParseErrorKind.BAD_INDEX),
    ("VER 1.0\nVAR 1\nx\nINT 0\nOBJ maximize\n", ParseErrorKind.UNKNOWN_SENSE),
    (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 1 0\nC1 Q 1 0\n",
        ParseErrorKind.UNKNOWN_SENSE,
    ),
    (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 1 0\nC1 G 0.5 0\n",
        ParseErrorKind.DECIMAL_NOTATION,
    ),
    (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 1 2\nC1 G 1 0\n",
        ParseErrorKind.BAD_COUNT,
    ),
    (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 0 0\nRTP infeas\nSOL 0\nDER 1\n"
        "D1 G 1 0 { nonsense } -1\n",
        ParseErrorKind.UNKNOWN_REASON,
    ),
    (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 0 0\nRTP infeas\nSOL 0\nDER 0\nextra\n",
        ParseErrorKind.TRAILING_GARBAGE,
    ),
    (
        "VER 1.0\nVAR 2\nx y\nINT 0\nOBJ min\n2 0 1 0 2\nCON 0 0\nRTP infeas\nSOL 0\nDER 0\n",
        ParseErrorKind.BAD_INDEX,  # duplicate variable index in one term list
    ),
    (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 0 0\nRTP range inf 0\nSOL 0\nDER 0\n",
        ParseErrorKind.UNEXPECTED_TOKEN,  # lb may be -inf, never inf
    ),
    (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 0 0\nRTP range 0 -inf\nSOL 0\nDER 0\n",
        ParseErrorKind.UNEXPECTED_TOKEN,
    ),
    (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 1 0\nC1 G 1/0 0\n",
        ParseErrorKind.UNEXPECTED_TOKEN,  # zero denominator
    ),
    (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 0 0\nRTP range 1/2.5 inf\nSOL 0\nDER 0\n",
        ParseErrorKind.DECIMAL_NOTATION,
    ),
    (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 0 0\nRTP range 0 1/0\nSOL 0\nDER 0\n",
        ParseErrorKind.UNEXPECTED_TOKEN,
    ),
    (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 1 one\n",
        ParseErrorKind.BAD_COUNT,  # non-integer bound-constraint count
    ),
]


@pytest.mark.parametrize("text, kind", BROKEN, ids=range(len(BROKEN)))
def test_errors_carry_kind_and_position(text, kind):
    with pytest.raises(ParseError) as info:
        parse_certificate(text)
    assert info.value.kind is kind
    assert info.value.line >= 1
    assert info.value.column >= 1


def _parse_excess(text: str) -> int:
    """Bytes the parse allocated at its peak beyond the model it returns."""
    tracemalloc.start()
    try:
        model = parse_certificate(text)  # a live local, so it counts as retained
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - retained


def test_parse_memory_beyond_the_model_does_not_grow_with_the_file():
    """The parser reads through a bounded window of tokens: on a
    certificate four times longer (95 KB and 362 KB, the benchmark's
    native-large shape), the peak above the returned model stays within
    1 MB of the shorter one's.  A list of every token adds about 4 MB."""
    excess = []
    for derivations in (500, 2000):
        spec = gen.Spec(n=100, m=300, derivations=derivations, kind="optimal", split_depth=12)
        excess.append(_parse_excess(gen.render(gen.build(spec, 1))[0].decode()))
    assert excess[1] - excess[0] < 1_000_000


def test_a_count_beyond_its_index_range_does_not_fill_the_window(monkeypatch):
    """A list of distinct indices below `limit` has at most `limit`
    pairs, so a larger count cannot pull the rest of the file into the
    token window; the error it leads to is the same located one."""
    fill = parser._Parser._fill
    window = []

    def watched(self, need):
        fill(self, need)
        window.append(len(self.tokens))

    monkeypatch.setattr(parser._Parser, "_fill", watched)
    text = chain_text(16_000)  # about 400,000 tokens
    parse_certificate(text)
    valid_peak = max(window)
    window.clear()
    with pytest.raises(ParseError) as info:
        parse_certificate(text.replace("OBJ min\n0\n", "OBJ min\n1000000000\n"))
    error = info.value
    assert (error.kind, error.line, error.column) == (ParseErrorKind.BAD_INDEX, 7, 1)
    assert error.message == "expected objective variable index, found 'CON'"
    # no more than the valid file needed, a small part of its tokens
    assert max(window) <= valid_peak < 40_000


# a certificate cut right after one of its counts, `{}` in the text
HUGE_COUNT_CUTS = {
    "variable": "VAR {}",
    "integer-variable": "VAR 2\nx y\nINT {}",
    "objective term": "VAR 2\nx y\nINT 0\nOBJ min\n{}",
    "constraint": "VAR 2\nx y\nINT 0\nOBJ min\n1 0 1\nCON {}",
    "constraint term": "VAR 2\nx y\nINT 0\nOBJ min\n1 0 1\nCON 1 0\nc G 1 {}",
    "solution": "VAR 2\nx y\nINT 0\nOBJ min\n1 0 1\nCON 1 0\nc G 1 1 0 1\n"
    "RTP range -inf inf\nSOL {}",
    "derivation": "VAR 2\nx y\nINT 0\nOBJ min\n1 0 1\nCON 1 0\nc G 1 1 0 1\n"
    "RTP range -inf inf\nSOL 0\nDER {}",
    "multiplier": "VAR 2\nx y\nINT 0\nOBJ min\n1 0 1\nCON 1 0\nc G 1 1 0 1\n"
    "RTP range -inf inf\nSOL 0\nDER 1\nd G 1 1 0 1 { lin {}",
}


@pytest.mark.parametrize("count", ["1000000", "1" + "0" * 4999], ids=["1e6", "5000 digits"])
@pytest.mark.parametrize("cut", HUGE_COUNT_CUTS, ids=list(HUGE_COUNT_CUTS))
def test_a_huge_count_at_the_end_of_the_text_is_a_cheap_located_error(cut, count):
    """A count far past the content builds nothing sized from it: the
    parse ends at the end of the text, just past the count, with a
    located error and a peak under 1 MB."""
    text = "VER 1.0\n" + HUGE_COUNT_CUTS[cut].replace("{}", count)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            parse_certificate(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    last_line = text.rsplit("\n", 1)[-1]
    assert (info.value.line, info.value.column) == (text.count("\n") + 1, len(last_line) + 1)
    assert info.value.message.startswith("unexpected end of input"), info.value.message
    assert peak < 1_000_000


def test_error_points_at_offending_token():
    text = "VER 1.0\nVAR 1\nx\nINT 1\n7\n"
    with pytest.raises(ParseError) as info:
        parse_certificate(text)
    assert (info.value.line, info.value.column) == (5, 1)


def test_truncated_input_is_an_error():
    with pytest.raises(ParseError) as info:
        parse_certificate("VER 1.0\nVAR 2\nx\n")
    assert info.value.kind in (
        ParseErrorKind.MISSING_SECTION,
        ParseErrorKind.UNEXPECTED_TOKEN,
    )


def test_zero_multipliers_are_dropped():
    text = (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 1 0\nC1 G 1 1 0 1\n"
        "RTP infeas\nSOL 0\nDER 1\nD1 G 1 0 { lin 2 0 0 1 1 } -1\n"
    )
    _, certificate = parse_certificate(text)
    assert lhs(certificate.der[0].data) == {2: Rational(1)}


def test_obj_keyword_also_works_in_the_constraint_section():
    text = (
        "VER 1.0\nVAR 2\nx y\nINT 0\nOBJ min\n2 0 1 1 2\nCON 1 0\nC1 G 3 OBJ\n"
        "RTP infeas\nSOL 0\nDER 0\n"
    )
    problem, _ = parse_certificate(text)
    assert lhs(problem.constraints[0]) == lhs(problem.objective)


def test_names_need_not_be_unique():
    # the format addresses constraints by index; names are cosmetic
    text = (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 2 0\nsame G 0 1 0 1\nsame L 5 1 0 1\n"
        "RTP infeas\nSOL 0\nDER 0\n"
    )
    problem, _ = parse_certificate(text)
    assert [c.name for c in problem.constraints] == ["same", "same"]


def test_derivation_indices_are_checked_against_d():
    # d = 1 + 1 = 2 here, so file index 2 is out of range
    text = (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n0\nCON 1 0\nC1 G 1 1 0 1\n"
        "RTP infeas\nSOL 0\nDER 1\nD1 G 1 0 { lin 1 2 1 } -1\n"
    )
    with pytest.raises(ParseError) as info:
        parse_certificate(text)
    assert info.value.kind is ParseErrorKind.BAD_INDEX


@pytest.mark.parametrize("name", CORPUS)
def test_round_trip_is_structural_identity(name):
    problem, certificate = load_fixture(name)
    text = serialize_certificate(problem, certificate)
    assert parse_certificate(text) == (problem, certificate)
    # and serialization is a fixpoint after one normalization pass
    problem2, certificate2 = parse_certificate(text)
    assert serialize_certificate(problem2, certificate2) == text


def test_round_trip_preserves_legacy_indices():
    problem, certificate = load_fixture("manipulated1")
    _, reparsed = parse_certificate(serialize_certificate(problem, certificate))
    assert [dc.legacy_index for dc in reparsed.der] == [
        dc.legacy_index for dc in certificate.der
    ]
    assert [dc.legacy_index for dc in reparsed.der][:4] == [-1, -1, -1, 12]


def test_serializer_writes_exact_rationals():
    problem, certificate = load_fixture("forged2")
    text = serialize_certificate(problem, certificate)
    assert "1/2" in text and "1/3" in text
    assert "RTP range -inf 0" in text
    body = text.split("\n", 1)[1]  # everything after the VER header
    assert not re.search(r"\d\.\d", body)
    assert text.endswith("\n") and not text.endswith("\n\n")


@pytest.mark.parametrize("limit", [4300, LOWEST_DIGIT_LIMIT])
def test_serializer_round_trips_huge_literals_on_its_own(limit):
    """5000-digit values in a constraint, an RTP bound, a solution
    coordinate and a multiplier print back verbatim, under the
    interpreter's default digit limit and the lowest one, which stay as
    they were."""
    huge = "1" + "0" * 4998 + "7"
    text = (
        "VER 1.0\nVAR 1\nx\nINT 0\nOBJ min\n1 0 1\nCON 1 0\n"
        f"c G {huge} 1 0 1\nRTP range {huge}/3 inf\nSOL 1\npt 1 0 -{huge}/7\n"
        f"DER 1\nd G 0 1 0 1 {{ lin 1 0 1/{huge} }} -1\n"
    )
    with int_digit_limit(limit):
        problem, certificate = parse_certificate(text)
        printed = serialize_certificate(problem, certificate)
        assert sys.get_int_max_str_digits() == limit
    assert printed == text
    assert parse_certificate(printed) == (problem, certificate)


def test_fuzzed_out_of_range_indices_are_rejected_not_clamped():
    base = fixture_path("cert0").read_text()
    tokens = base.split()
    rng = random.Random(20260809)
    # positions of variable/constraint index tokens inside term lists
    index_positions = [i for i, t in enumerate(tokens) if re.fullmatch(r"\d+", t)]
    hits = 0
    for _ in range(200):
        pos = rng.choice(index_positions)
        mutated = tokens.copy()
        value = str(int(mutated[pos]) + rng.choice([50, 99, 1000]))
        mutated[pos] = value
        try:
            problem, certificate = parse_certificate(" ".join(mutated))
        except ParseError as exc:
            hits += 1
            assert exc.line >= 1 and exc.column >= 1
        else:
            # the token was a value position (coefficient, rhs, attribute);
            # whatever parsed must carry the perturbed value verbatim,
            # never a clamped substitute
            assert value in serialize_certificate(problem, certificate).split()
    assert hits > 100  # most perturbations land on an index or count check
