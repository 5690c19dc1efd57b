"""Assumption sets A(k) for every k, for tests.

The package returns only A(d), the set of the last constraint.  A(k) for
an earlier k is what it returns on the prefix certificate that ends at
C_k.  `reference_assumption_sets` is the plain `frozenset` replay of the
union rules, one set per constraint, kept here as the reference the
package's replay is compared with.
"""

from __future__ import annotations

from viprcert.model import Certificate, Problem, Reason
from viprcert.spec import compute_assumption_sets


def assumption_set_at(problem: Problem, certificate: Certificate, k: int) -> frozenset[int]:
    """A(k) as the package computes it: A(d) of the prefix ending at C_k."""
    prefix = certificate._replace(der=certificate.der[: max(0, k - problem.m)])
    return compute_assumption_sets(problem, prefix)


def reference_assumption_sets(problem: Problem, certificate: Certificate) -> tuple[frozenset[int], ...]:
    """A(k) for every k in [1, d], at position k - 1."""
    m = problem.m
    sets: list[frozenset[int]] = [frozenset()] * m
    for offset, derived in enumerate(certificate.der):
        k = m + 1 + offset
        data = derived.data
        if derived.reason is Reason.ASM:
            current = frozenset((k,))
        elif derived.reason in (Reason.LIN, Reason.RND):
            union: set[int] = set()
            for i in data.terms:
                if 1 <= i < k:
                    union |= sets[i - 1]
            current = frozenset(union)
        elif derived.reason is Reason.UNS and 1 <= data.i1 < k and 1 <= data.i2 < k:
            current = (sets[data.i1 - 1] - {data.l1}) | (sets[data.i2 - 1] - {data.l2})
        else:  # sol, or an unsplit step whose sources are not strictly earlier
            current = frozenset()
        sets.append(current)
    return tuple(sets)


def chain_text(n: int) -> str:
    """A valid certificate with no claim to close: n `asm` steps, then a
    `lin` chain whose j-th step adds the j-th assumption, so A(k) grows
    by one index per step and A(d) holds all n."""
    lines = ["VER 1.0", "VAR 1", "x", "INT 0", "OBJ min", "0", "CON 1 0", "c G 0 1 0 1"]
    lines += ["RTP range -inf inf", "SOL 0", f"DER {2 * n}"]
    lines += [f"a{i} G 0 1 0 1 {{ asm }} -1" for i in range(n)]
    previous = 0  # file indices are 0-based: c, then a0 .. a(n-1)
    for j in range(n):
        lines.append(f"l{j} G 0 1 0 {j + 2} {{ lin 2 {previous} 1 {j + 1} 1 }} -1")
        previous = n + 1 + j
    return "\n".join(lines) + "\n"


def sequential_splits_text(splits: int, unsplit_last: bool = False) -> str:
    """A valid infeasibility certificate for 2x = 1 with x integer that
    splits on x `splits` times in a row: each split is `asm` x <= 0, a
    `lin` step to 0 >= 1 under it, `asm` x >= 1, another `lin` step, and
    the unsplit step that discharges both; 2 * splits `asm` steps.  With
    `unsplit_last`, every unsplit step comes after all the splits, so
    each branch's last row stays open to the end."""
    rows, unsplits = [], []
    for s in range(splits):
        b = 2 + len(rows)  # file index of this split's first row
        rows += [
            f"a{s} L 0 1 0 1 {{ asm }} -1",
            f"p{s} G 1 0 {{ lin 2 0 1 {b} -2 }} -1",
            f"b{s} G 1 1 0 1 {{ asm }} -1",
            f"q{s} G 1 0 {{ lin 2 1 -1 {b + 2} 2 }} -1",
        ]
        unsplits.append(f"u{s} G 1 0 {{ uns {b + 1} {b} {b + 3} {b + 2} }} -1")
        if not unsplit_last:
            rows.append(unsplits.pop())
    rows += unsplits
    lines = ["VER 1.0", "VAR 1", "x", "INT 1", "0", "OBJ min", "0", "CON 2 0"]
    lines += ["lo G 1 1 0 2", "hi L 1 1 0 2", "RTP infeas", "SOL 0", f"DER {len(rows)}"]
    return "\n".join(lines + rows) + "\n"


def nested_splits_text(depth: int) -> str:
    """A valid infeasibility certificate for 2x_t = 1 (t < depth), all
    integer, written depth first: a complete split tree that splits on
    x_t at depth t, so 2 ** (depth + 1) - 2 `asm` steps.  Each leaf is a
    `lin` step to 0 >= depth that reads every assumption on its path, so
    its set holds `depth` indices."""
    m = 2 * depth  # lo_t is file index 2t, hi_t is 2t + 1
    rows: list[str] = []

    def split(t: int, path: list[str]) -> int:
        """Write the subtree at depth t; return its last row's file index."""
        if t == depth:
            rows.append(f"f G {depth} 0 {{ lin {2 * depth} {' '.join(path)} }} -1")
            return m + len(rows) - 1
        low = m + len(rows)
        rows.append(f"l L 0 1 {t} 1 {{ asm }} -1")
        first = split(t + 1, path + [f"{2 * t} 1 {low} -2"])
        high = m + len(rows)
        rows.append(f"h G 1 1 {t} 1 {{ asm }} -1")
        second = split(t + 1, path + [f"{2 * t + 1} -1 {high} 2"])
        rows.append(f"u G 1 0 {{ uns {first} {low} {second} {high} }} -1")
        return m + len(rows) - 1

    split(0, [])
    names = [f"x{t}" for t in range(depth)]
    lines = ["VER 1.0", f"VAR {depth}", *names, f"INT {depth}", " ".join(map(str, range(depth)))]
    lines += ["OBJ min", "0", f"CON {m} 0"]
    for t in range(depth):
        lines += [f"lo{t} G 1 1 {t} 2", f"hi{t} L 1 1 {t} 2"]
    lines += ["RTP infeas", "SOL 0", f"DER {len(rows)}"]
    return "\n".join(lines + rows) + "\n"
