"""The assumption-set replay against the plain `frozenset` reference, and
its memory on a chain whose sets grow by one index per step and on
certificates that split many times, in a row or nested depth first.

The package returns only A(d); A(k) is read from the prefix certificate
that ends at C_k (`assumptions.assumption_set_at`).
"""

from __future__ import annotations

import random
import subprocess
import sys
import tracemalloc
from functools import partial

import pytest

from assumptions import (
    assumption_set_at,
    chain_text,
    nested_splits_text,
    reference_assumption_sets,
    sequential_splits_text,
)
from rows import multipliers, objective
from test_scale_agreement import gen

from viprcert.checker import check_certificate
from viprcert.model import (
    Certificate,
    Constraint,
    DerivedConstraint,
    Problem,
    Reason,
    Rtp,
    Sense,
    Sign,
    Unsplit,
)
from viprcert.parser import parse_certificate
from viprcert.rational import Rational
from viprcert.spec import compute_assumption_sets

# the replay reads only reasons and indices, never a row
_ROW = Constraint("r", Sign.GEQ, 1, {}, 0)


def _assert_every_prefix_matches(problem, certificate, label) -> tuple[frozenset[int], ...]:
    reference = reference_assumption_sets(problem, certificate)
    for k in range(1, len(reference) + 1):
        assert assumption_set_at(problem, certificate, k) == reference[k - 1], (label, k)
    return reference


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("kind", gen.KINDS)
def test_replay_matches_the_reference_and_the_generator_on_generated_certificates(kind, seed):
    spec = gen.Spec(n=6, m=12, derivations=120, kind=kind, split_depth=4)
    model = gen.build(spec, seed)
    problem, certificate = parse_certificate(gen.render(model)[0])
    assert check_certificate(problem, certificate).valid
    reference = _assert_every_prefix_matches(problem, certificate, (kind, seed))
    # the generator records each row's set independently, by 0-based row index
    assert reference == tuple(frozenset(i + 1 for i in row.assumptions) for row in model.rows)
    assert model.max_assumptions >= 2  # nested splits: sets grow, then are discharged


def _random_certificate(rng: random.Random, m: int, count: int) -> Certificate:
    """Random reasons over the unified indices: mostly recent sources, so
    splits nest; unsplit labels mostly recent `asm` steps, else any
    index; and some indices that point forward or outside [1, d]."""
    d = m + count
    asm: list[int] = []
    der = []
    for k in range(m + 1, d + 1):

        def index() -> int:
            if k > 1 and rng.random() < 0.85:
                return rng.randint(max(1, k - 6), k - 1)
            return rng.choice([0, -1, k, k + 1, d, d + 3])

        def label() -> int:
            return rng.choice(asm[-4:]) if asm and rng.random() < 0.7 else index()

        r = rng.random()
        if r < 0.3:
            der.append(DerivedConstraint(_ROW, Reason.ASM))
            asm.append(k)
        elif r < 0.6:
            weights = {index(): Rational(1) for _ in range(rng.randint(1, 3))}
            reason = rng.choice([Reason.LIN, Reason.RND])
            der.append(DerivedConstraint(_ROW, reason, multipliers(weights)))
        elif r < 0.93:
            data = Unsplit(index(), label(), index(), label())
            der.append(DerivedConstraint(_ROW, Reason.UNS, data))
        else:
            der.append(DerivedConstraint(_ROW, Reason.SOL))
    return Certificate(Rtp.make_range(None, None), (), tuple(der))


def _problem(m: int) -> Problem:
    rows = tuple(_ROW._replace(name=f"c{i}") for i in range(m))
    return Problem(1, ("x",), frozenset(), Sense.MIN, objective({}), rows)


def test_replay_matches_the_reference_on_random_derivation_lists():
    rng = random.Random(20261018)
    discharged = kept = 0  # unsplit steps whose label is, or is not, in its source's set
    one_source = 0  # unsplit steps with i1 = i2 and a nonempty A(i1)
    for trial in range(400):
        m = rng.randint(0, 3)
        problem, certificate = _problem(m), _random_certificate(rng, m, rng.randint(1, 40))
        reference = _assert_every_prefix_matches(problem, certificate, trial)
        for k, derived in enumerate(certificate.der, start=m + 1):
            data = derived.data
            if derived.reason is Reason.UNS and 1 <= data.i1 < k and 1 <= data.i2 < k:
                one_source += data.i1 == data.i2 and bool(reference[data.i1 - 1])
                for source, label in ((data.i1, data.l1), (data.i2, data.l2)):
                    if label in reference[source - 1]:
                        discharged += 1
                    else:
                        kept += 1
    # both branches of the discharge are exercised many times
    assert discharged > 500 and kept > 500, (discharged, kept)
    assert one_source > 100, one_source


def test_no_derivations_give_the_empty_set():
    problem = _problem(3)
    certificate = Certificate(Rtp.make_infeasible(), (), ())
    assert compute_assumption_sets(problem, certificate) == frozenset()
    assert reference_assumption_sets(problem, certificate) == (frozenset(),) * 3
    assert compute_assumption_sets(_problem(0), certificate) == frozenset()


@pytest.mark.parametrize(
    "text, largest",
    (
        (sequential_splits_text(40), 1),
        (sequential_splits_text(40, unsplit_last=True), 1),
        (nested_splits_text(4), 4),
    ),
    ids=("sequential", "unsplit-last", "nested"),
)
def test_replay_matches_the_reference_on_split_certificates(text, largest):
    problem, certificate = parse_certificate(text)
    assert check_certificate(problem, certificate).valid
    reference = _assert_every_prefix_matches(problem, certificate, "split")
    assert reference[-1] == frozenset()
    assert max(map(len, reference)) == largest


def _traced_replay(text: str) -> tuple[frozenset[int], int]:
    """A(d) and the replay's traced peak in bytes."""
    problem, certificate = parse_certificate(text)
    tracemalloc.start()
    try:
        last = compute_assumption_sets(problem, certificate)
        return last, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chain_replay_memory_stays_small():
    """On a 4,000-step chain the sets hold about 8 million indices in
    all; the replay's traced peak stays under 32 MB."""
    last, peak = _traced_replay(chain_text(4000))
    assert peak < 32 * 2**20, peak
    assert last == frozenset(range(2, 4002))


@pytest.mark.parametrize(
    "build, size, doubled",
    (
        (chain_text, 4000, 8000),
        (sequential_splits_text, 2500, 5000),
        (partial(sequential_splits_text, unsplit_last=True), 2500, 5000),
        (nested_splits_text, 11, 12),
    ),
    ids=("chain", "sequential-splits", "unsplit-last", "nested-splits"),
)
def test_replay_memory_grows_linearly(build, size, doubled):
    """Twice the `asm` steps (one level deeper for the tree) stay under
    three times the replay's traced peak; a cost quadratic in the `asm`
    steps, such as a set kept for every constraint on the chain, or a
    bitmask as wide as the `asm` steps so far for each open branch row
    when the unsplit steps come last, gives about four times."""
    small, large = _traced_replay(build(size))[1], _traced_replay(build(doubled))[1]
    assert large < 3 * small, (small, large)


@pytest.mark.parametrize(
    "build, size, megabytes",
    ((chain_text, 16_000, 512), (sequential_splits_text, 25_000, 256)),
    ids=("16k-chain", "25k-sequential-splits"),
)
def test_check_gives_a_verdict_in_bounded_address_space(tmp_path, build, size, megabytes):
    resource = pytest.importorskip("resource")
    limit = megabytes * 2**20
    path = tmp_path / "certificate.vipr"
    path.write_text(build(size))

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    result = subprocess.run(
        [sys.executable, "-m", "viprcert.cli", "check", str(path)],
        capture_output=True,
        text=True,
        preexec_fn=cap,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[0] == "VALID"
