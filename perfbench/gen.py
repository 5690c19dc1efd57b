"""Seeded generator of VIPR 1.0 certificates for the benchmark.

The generator is independent of the package it measures: every linear
combination, rounding and split proof is computed here with
`fractions.Fraction`, and the VIPR 1.0 text is written here directly.
Nothing is imported from `viprcert`.

A certificate is built around a few integer points that satisfy every
problem constraint, so listed solutions are feasible by construction.
Derivations are a stream of

- `lin` steps: sign-consistent weighted sums of earlier constraints,
  sometimes with a relaxed bound;
- `rnd` steps: Chvatal-Gomory cuts of integral rows, divided by the gcd
  of the combined coefficients and rounded;
- `sol` steps: the objective bound of the first listed point;
- split proofs: `asm a<=b`, work under it, `asm a>=b+1`, work under it,
  `uns`; nested inside the first branch, so assumption sets grow one
  element per level.

The final obligation is discharged by a split proof of the objective
bound (range relations) or by a rounded cut that reaches 0 >= 1/3
(infeasibility).

A forged certificate is the same model with one edit whose first failure
is known in advance.  Every edit tightens a bound, and every derivation
here is monotone in the bounds of its sources, so nothing before the
edit fails and nothing after it starts failing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

ZERO = Fraction(0)
WEIGHTS = tuple(
    Fraction(p, q) for p, q in ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (2, 3), (3, 2), (1, 4), (5, 2))
)
RECENT = 48          # derived rows kept as candidate sources
MAX_SOURCE_TERMS = 24
MAX_SOURCE_BITS = 40
POINTS = 3           # integer points every problem constraint admits

# forgery kind -> (location kind, predicate the checker must report)
FORGERIES = {
    "lin": ("der", "lin-domination"),
    "rnd": ("der", "rnd-domination"),
    "uns": ("der", "uns-domination"),
    "split": ("der", "uns-disjunction"),
    "soldom": ("der", "sol-domination"),
    "feas": ("sol", "feas"),
    "final": ("final", "der-final"),
}
REASONS = ("asm", "lin", "rnd", "uns", "sol")
KINDS = ("infeas", "lower", "upper", "witness", "optimal")


@dataclass(frozen=True)
class Spec:
    """Shape of one certificate.  `kind` is the relation to prove:
    infeas; lower (min, lb); upper (max, ub); witness (min, ub from a
    listed point); optimal (min, lb and a witnessed ub)."""

    n: int
    m: int
    derivations: int
    kind: str
    split_depth: int


@dataclass
class Row:
    name: str
    sense: str                  # "G" | "L" | "E"
    rhs: Fraction
    terms: dict                 # 0-based variable -> nonzero Fraction
    reason: str = ""            # "" for problem constraints
    data: tuple = ()            # lin/rnd: ((index, weight), ...); uns: (i1, l1, i2, l2)
    use_obj: bool = False       # write the left-hand side as OBJ
    assumptions: frozenset = frozenset()
    slack: Fraction = ZERO      # how much weaker the bound is than its reasoning gives
    integral: bool = False      # integer coefficients on integer variables only


@dataclass(frozen=True)
class Expected:
    """What both routes must report.  `k` is the 1-based constraint index
    of a derivation failure."""

    valid: bool
    location: str = ""
    predicate: str = ""
    k: Optional[int] = None
    area: str = ""              # SMT file that must come back unsat: sol | block | final


@dataclass
class Model:
    spec: Spec
    n_int: int
    minimize: bool
    objective: dict
    rows: list
    points: list                # list of dict var -> Fraction
    lb: Optional[Fraction]
    ub: Optional[Fraction]
    m: int
    max_assumptions: int = 0
    reasons: dict = field(default_factory=dict)

    @property
    def derivations(self) -> int:
        return len(self.rows) - self.m


def _dot(terms: dict, point: dict) -> Fraction:
    return sum((c * point.get(j, ZERO) for j, c in terms.items()), ZERO)


def _weights(*pairs) -> dict:
    """Multiplier map from (index, weight) pairs, summing repeated indices."""
    weights: dict = {}
    for i, w in pairs:
        weights[i] = weights.get(i, ZERO) + Fraction(w)
    return {i: w for i, w in weights.items() if w}


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class _Maker:
    def __init__(self, spec: Spec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        n = spec.n
        self.n_int = max(2, n - n // 5)
        self.int_vars = list(range(self.n_int))
        self.n_fixed = max(1, self.n_int // 10)
        self.rows: list[Row] = []
        self.recent: list[int] = []
        self.problem_g: list[int] = []
        self.problem_l: list[int] = []
        self.integral: list[int] = []
        self.eq_rows: list[int] = []
        self.pairs: list[tuple] = []   # (a, lo_index, hi_index, lo, hi)
        self.points = self._points()

    # --- problem -----------------------------------------------------------

    def _points(self) -> list[dict]:
        rng, spec = self.rng, self.spec
        fixed = {j: Fraction(rng.randint(0, 4)) for j in range(self.n_fixed)}
        points = []
        for _ in range(POINTS):
            point = dict(fixed)
            for j in range(self.n_fixed, self.n_int):
                point[j] = Fraction(rng.randint(0, 6))
            for j in range(self.n_int, spec.n):
                point[j] = Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4)))
            points.append({j: v for j, v in point.items() if v})
        return points

    def _random_terms(self, integral: bool) -> dict:
        rng, n = self.rng, self.spec.n
        pool = self.int_vars if integral else range(n)
        size = rng.randint(2, min(8, len(pool)))
        terms = {}
        for j in rng.sample(list(pool), size):
            if integral:
                terms[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7))
            else:
                terms[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        return terms

    def _add(self, row: Row) -> int:
        index = len(self.rows)
        self.rows.append(row)
        row.integral = all(j < self.n_int and c.denominator == 1 for j, c in row.terms.items())
        if row.reason and row.sense != "E":
            small = len(row.terms) <= MAX_SOURCE_TERMS and all(
                _bits(c) <= MAX_SOURCE_BITS for c in row.terms.values()
            ) and _bits(row.rhs) <= MAX_SOURCE_BITS
            if small and row.terms:
                self.recent.append(index)
                if len(self.recent) > RECENT:
                    self.recent.pop(0)
        return index

    def _problem_row(self, name: str, terms: dict, sense: str, slack: Fraction) -> int:
        values = [_dot(terms, p) for p in self.points]
        if sense == "G":
            rhs = min(values) - slack
        elif sense == "L":
            rhs = max(values) + slack
        else:
            rhs = values[0]
        index = self._add(Row(name, sense, rhs, terms))
        if sense == "G":
            self.problem_g.append(index)
        elif sense == "L":
            self.problem_l.append(index)
        else:
            self.eq_rows.append(index)
        if sense != "E" and self.rows[index].integral:
            self.integral.append(index)
        return index

    def build_problem(self) -> None:
        rng, spec = self.rng, self.spec
        slacks = (ZERO, ZERO, Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
        n_pairs = max(2, spec.m // 10)
        n_eq = max(1, spec.m // 30)
        for t in range(n_pairs):
            a = self._random_terms(integral=True)
            values = [_dot(a, p) for p in self.points]
            lo = min(values) - rng.randint(0, 3)
            hi = max(values) + rng.randint(1, 3)
            lo_index = self._add(Row(f"R{t}lo", "G", lo, a))
            hi_index = self._add(Row(f"R{t}hi", "L", hi, dict(a)))
            self.problem_g.append(lo_index)
            self.problem_l.append(hi_index)
            self.integral.extend((lo_index, hi_index))
            self.pairs.append((a, lo_index, hi_index, lo, hi))
        for t in range(n_eq):
            size = min(self.n_fixed, rng.randint(1, 3))
            terms = {
                j: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5))
                for j in rng.sample(range(self.n_fixed), size)
            }
            self._problem_row(f"E{t}", terms, "E", ZERO)
        t = 0
        while len(self.rows) < spec.m - 2:
            integral = rng.random() < 0.6
            self._problem_row(
                f"C{t}", self._random_terms(integral), rng.choice("GL"), rng.choice(slacks)
            )
            t += 1

    # --- derivation primitives -----------------------------------------------

    def _combine(self, weights: dict) -> tuple[dict, Fraction]:
        terms: dict = {}
        rhs = ZERO
        for i, w in weights.items():
            row = self.rows[i]
            for j, c in row.terms.items():
                terms[j] = terms.get(j, ZERO) + w * c
            rhs += w * row.rhs
        return {j: c for j, c in terms.items() if c}, rhs

    def _assumptions(self, indices) -> frozenset:
        union: frozenset = frozenset()
        for i in indices:
            union |= self.rows[i].assumptions
        return union

    def _derive(self, reason: str, sense: str, rhs: Fraction, terms: dict, data: tuple,
                assumptions: frozenset, use_obj: bool = False, slack: Fraction = ZERO) -> int:
        name = f"d{len(self.rows)}"
        row = Row(name, sense, rhs, terms, reason, data, use_obj, assumptions, slack)
        return self._add(row)

    def _sign_for(self, source: Row, sense: str) -> int:
        """Sign of a weight that keeps the combination's sense flag."""
        if source.sense == "E":
            return self.rng.choice((-1, 1))
        return 1 if source.sense == sense else -1

    def lin(self, weights: dict, sense: str, relax: bool = False) -> Optional[int]:
        """Derive the combination itself; None when its left side vanishes
        unless the bound makes it an absurdity."""
        terms, rhs = self._combine(weights)
        if not terms and not (sense == "G" and rhs > 0):
            return None
        delta = ZERO
        if relax:
            delta = Fraction(self.rng.randint(1, 3), self.rng.choice((1, 2)))
            rhs = rhs - delta if sense == "G" else rhs + delta
        data = tuple(sorted(weights.items()))
        return self._derive("lin", sense, rhs, terms, data, self._assumptions(weights), slack=delta)

    def _candidates(self, extra=()) -> list[int]:
        rng = self.rng
        chosen = set(extra)
        count = rng.randint(2, 4)
        while len(chosen) < count:
            if self.recent and rng.random() < 0.5:
                chosen.add(rng.choice(self.recent))
            else:
                chosen.add(rng.choice(self.problem_g + self.problem_l))
        return sorted(chosen)

    def lin_filler(self, context: Optional[int] = None) -> None:
        rng = self.rng
        if self.eq_rows and rng.random() < 0.03:
            sources = rng.sample(self.eq_rows, min(2, len(self.eq_rows)))
            weights = {i: rng.choice((-1, 1)) * rng.choice(WEIGHTS) for i in sources}
            terms, rhs = self._combine(weights)
            if terms:
                self._derive("lin", "E", rhs, terms, tuple(sorted(weights.items())), frozenset())
            return
        sense = rng.choice("GL")
        sources = self._candidates(() if context is None else (context,))
        weights = {i: self._sign_for(self.rows[i], sense) * rng.choice(WEIGHTS) for i in sources}
        self.lin(weights, sense, relax=rng.random() < 0.3)

    def rnd_filler(self) -> bool:
        """Derive one rounded cut; False when the combination vanished."""
        rng = self.rng
        sense = rng.choice("GL")
        # equality rows stay out: an all-equality combination is never roundable
        pool = self.integral + [i for i in self.recent if self.rows[i].integral]
        count = rng.randint(1, 3)
        sources = set()
        while len(sources) < count:
            sources.add(rng.choice(pool))
        weights = {
            i: Fraction(self._sign_for(self.rows[i], sense) * rng.randint(1, 3)) for i in sources
        }
        terms, rhs = self._combine(weights)
        if not terms:
            return False
        g = 0
        for c in terms.values():
            g = math.gcd(g, c.numerator)
        weights = {i: w / g for i, w in weights.items()}
        terms = {j: c / g for j, c in terms.items()}
        rhs = rhs / g
        bound = Fraction(math.ceil(rhs)) if sense == "G" else Fraction(math.floor(rhs))
        self._derive("rnd", sense, bound, terms, tuple(sorted(weights.items())),
                     self._assumptions(weights))
        return True

    def sol_filler(self, objective: dict, minimize: bool) -> None:
        """The first point's objective value bounds the optimum."""
        value = _dot(objective, self.points[0])
        delta = Fraction(self.rng.randint(0, 2), self.rng.choice((1, 3)))
        sense, rhs = ("L", value + delta) if minimize else ("G", value - delta)
        self._derive("sol", sense, rhs, dict(objective), (), frozenset(),
                     use_obj=self.rng.random() < 0.5, slack=delta)

    def split(self, base: int, depth: int) -> int:
        """Derive a row with base's left-hand side and assumption set via a
        split on a random range pair, nesting depth-1 levels in the first
        branch.  Rows derived under each branch carry its assumption."""
        rng = self.rng
        row = self.rows[base]
        s = 1 if row.sense == "G" else -1
        a, lo_index, hi_index, lo, hi = rng.choice(self.pairs)
        beta = Fraction(rng.randint(int(lo), int(hi) - 1))
        lam, mu = rng.choice(WEIGHTS), rng.choice(WEIGHTS)

        k_low = self._derive("asm", "L", beta, dict(a), (), frozenset())
        self.rows[k_low].assumptions = frozenset((k_low,))
        first = self.lin(_weights((base, 1), (lo_index, s * lam), (k_low, -s * lam)), row.sense)
        for _ in range(rng.randint(0, 2)):
            self.lin_filler(context=k_low)
        if depth > 1:
            first = self.split(first, depth - 1)

        k_high = self._derive("asm", "G", beta + 1, dict(a), (), frozenset())
        self.rows[k_high].assumptions = frozenset((k_high,))
        second = self.lin(_weights((base, 1), (hi_index, -s * mu), (k_high, s * mu)), row.sense)
        for _ in range(rng.randint(0, 2)):
            self.lin_filler(context=k_high)

        r1, r2 = self.rows[first].rhs, self.rows[second].rhs
        rhs = min(r1, r2) if s == 1 else max(r1, r2)
        assumptions = (self.rows[first].assumptions - {k_low}) | (
            self.rows[second].assumptions - {k_high}
        )
        return self._derive("uns", row.sense, rhs, dict(row.terms),
                            (first, k_low, second, k_high), assumptions)


def build(spec: Spec, seed: int) -> Model:
    """Generate the model of one valid certificate."""
    if spec.kind not in KINDS:
        raise ValueError(f"unknown kind {spec.kind!r}")
    rng = random.Random(seed)
    b = _Maker(spec, rng)
    b.build_problem()
    minimize = spec.kind != "upper"
    infeasible = spec.kind == "infeas"

    # objective: a positive combination of three rows of one sense, so
    # the matching bound is one lin step away
    objective: dict = {}
    obj_weights: dict = {}
    while not objective:
        pool = b.problem_g if minimize else b.problem_l
        obj_weights = {i: rng.choice(WEIGHTS) for i in rng.sample(pool, min(3, len(pool)))}
        objective, _ = b._combine(obj_weights)
    if infeasible:
        f = b._random_terms(integral=True)
        phi = Fraction(rng.randint(-5, 5))
        f_low = b._add(Row("F0", "G", phi + Fraction(1, 3), f))
        f_high = b._add(Row("F1", "L", phi + Fraction(2, 3), dict(f)))
    m = len(b.rows)

    target = m + spec.derivations
    reserve = 5 * spec.split_depth + 8
    # every certificate carries every reason its relation allows
    b.split(rng.choice(b.problem_g), spec.split_depth)
    while not b.rnd_filler():
        pass
    if not infeasible:
        b.sol_filler(objective, minimize)
    while len(b.rows) < target - reserve:
        r = rng.random()
        if r < 0.006:
            depth = rng.randint(max(1, spec.split_depth // 2), spec.split_depth)
            b.split(rng.choice(b.recent or b.problem_g), depth)
        elif r < 0.25:
            b.rnd_filler()
        elif r < 0.27 and not infeasible:
            b.sol_filler(objective, minimize)
        else:
            b.lin_filler()

    lb = ub = None
    if infeasible:
        # f >= phi + 1/3 rounds to f >= phi + 1, which with f <= phi + 2/3 gives 0 >= 1/3
        cut = b._derive("rnd", "G", Fraction(math.ceil(b.rows[f_low].rhs)), dict(b.rows[f_low].terms),
                        ((f_low, Fraction(1)),), frozenset())
        b.lin({cut: Fraction(1), f_high: Fraction(-1)}, "G")
    else:
        sense = "G" if minimize else "L"
        obj_row = b.lin(dict(obj_weights), sense)
        b.rows[obj_row].use_obj = True
        if spec.kind in ("lower", "upper", "optimal"):
            closing = b.split(obj_row, max(1, spec.split_depth))
            b.rows[closing].use_obj = True
            if minimize:
                lb = b.rows[closing].rhs
            else:
                ub = b.rows[closing].rhs
        if spec.kind in ("witness", "optimal"):
            ub = _dot(objective, b.points[0])

    model = Model(
        spec=spec,
        n_int=b.n_int,
        minimize=minimize,
        objective=objective,
        rows=b.rows,
        points=b.points if not infeasible else [],
        lb=lb,
        ub=ub,
        m=m,
    )
    for row in b.rows[m:]:
        model.reasons[row.reason] = model.reasons.get(row.reason, 0) + 1
        model.max_assumptions = max(model.max_assumptions, len(row.assumptions))
    return model


# --- text -----------------------------------------------------------------


def _terms_text(terms: dict) -> str:
    items = sorted(terms.items())
    return " ".join([str(len(items))] + [f"{j} {c}" for j, c in items])


def _reason_text(row: Row) -> str:
    if row.reason in ("asm", "sol"):
        return f"{{ {row.reason} }}"
    if row.reason == "uns":
        return "{ uns " + " ".join(str(i) for i in row.data) + " }"
    body = " ".join(f"{i} {w}" for i, w in row.data)
    return f"{{ {row.reason} {len(row.data)} {body} }}"


def _pick(rng: random.Random, model: Model, test) -> int:
    """A row index satisfying `test`, preferring the middle of the derivations."""
    m, d = model.m, len(model.rows)
    span = d - m
    candidates = [i for i in range(m, d) if test(model.rows[i])]
    middle = [i for i in candidates if m + 0.3 * span <= i <= m + 0.7 * span]
    if not (middle or candidates):
        raise ValueError("no derivation fits the requested forgery")
    return rng.choice(middle or candidates)


def render(model: Model, forgery: Optional[str] = None, seed: int = 0) -> tuple[bytes, Expected]:
    """VIPR 1.0 text of the model, with at most one forged edit, and the
    verdict both routes must report on it."""
    rng = random.Random(seed)
    rhs = {}                    # row index -> forged bound
    points = [dict(p) for p in model.points]
    lb, ub = model.lb, model.ub
    expected = Expected(valid=True)
    if forgery is not None:
        area, predicate = FORGERIES[forgery]

        def tighten(index: int) -> None:
            row = model.rows[index]
            by = row.slack + 1
            rhs[index] = row.rhs + by if row.sense == "G" else row.rhs - by

        if forgery in ("lin", "rnd", "uns"):
            k = _pick(rng, model, lambda r: r.reason == forgery and r.sense != "E" and r.terms)
            tighten(k)
        elif forgery == "split":
            k = _pick(rng, model, lambda r: r.reason == "uns")
            tighten(model.rows[k].data[3])      # a >= b+1 becomes a >= b+2
        elif forgery == "soldom":
            k = _pick(rng, model, lambda r: r.reason == "sol")
            values = [_dot(model.objective, p) for p in points]
            rhs[k] = min(values) - 1 if model.minimize else max(values) + 1
        if area == "der":
            expected = Expected(False, f"Der({k + 1})", predicate, k + 1, "block")
        elif forgery == "feas":
            if len(points) < 2:
                raise ValueError("a feasibility forgery needs a second point")
            victim = rng.randrange(1, len(points))
            j = rng.randrange(model.n_int)
            points[victim][j] = points[victim].get(j, ZERO) + Fraction(1, 2)
            expected = Expected(False, f"Sol(p{victim})", predicate, None, "sol")
        else:  # final: ask for one more than the closing derivation shows
            if lb is not None and model.minimize:
                lb += 1
            elif ub is not None and not model.minimize:
                ub -= 1
            else:
                raise ValueError("a final forgery needs a derived objective bound")
            expected = Expected(False, "Final", predicate, None, "final")

    n = model.spec.n
    out = [
        "VER 1.0",
        f"VAR {n}",
        " ".join(f"x{j}" for j in range(n)),
        f"INT {model.n_int}",
        " ".join(str(j) for j in range(model.n_int)),
        f"OBJ {'min' if model.minimize else 'max'}",
        _terms_text(model.objective),
        f"CON {model.m} 0",
    ]
    for row in model.rows[: model.m]:
        out.append(f"{row.name} {row.sense} {row.rhs} {_terms_text(row.terms)}")
    if model.spec.kind == "infeas":
        out.append("RTP infeas")
    else:
        out.append(f"RTP range {'-inf' if lb is None else lb} {'inf' if ub is None else ub}")
    out.append(f"SOL {len(points)}")
    for t, point in enumerate(points):
        out.append(f"p{t} {_terms_text({j: v for j, v in point.items() if v})}")
    out.append(f"DER {model.derivations}")
    for index in range(model.m, len(model.rows)):
        row = model.rows[index]
        lhs = "OBJ" if row.use_obj else _terms_text(row.terms)
        out.append(f"{row.name} {row.sense} {rhs.get(index, row.rhs)} {lhs} {_reason_text(row)} -1")
    return ("\n".join(out) + "\n").encode("ascii"), expected
