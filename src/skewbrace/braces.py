"""The skew brace abstraction: two group operations on one shared carrier.

A brace here is any object exposing dot/circ products, both inverses, and the
derived lambda and star maps over the carrier {0, ..., order-1} with identity
0. Table-backed braces store two validated Cayley tables; the formula-backed
variant lives in `formula`.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from . import errors
from .groups import GroupTable, Table, greedy_generators, int_row, validate_group

DEFAULT_SEED = 1729


class SkewBrace:
    """Base class; subclasses provide dot, circ, inv, bar over element indices.

    Instances are immutable after construction apart from idempotent lazy
    caches, so concurrent read-only use is safe (a race can at worst
    recompute an identical value).
    """

    order: int
    backing = "abstract"

    def __init__(self) -> None:
        self._cache: dict = {}

    # -- subclass surface ---------------------------------------------------

    def dot(self, a: int, b: int) -> int:
        raise NotImplementedError

    def circ(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        """Inverse in the additive group (A, .)."""
        raise NotImplementedError

    def bar(self, a: int) -> int:
        """Inverse in the multiplicative group (A, o)."""
        raise NotImplementedError

    def generators(self) -> tuple[int, ...]:
        raise NotImplementedError

    # -- derived operations -------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def lam(self, a: int, b: int) -> int:
        """lambda_a(b) = a^-1 . (a o b)."""
        return self.dot(self.inv(a), self.circ(a, b))

    def star(self, a: int, b: int) -> int:
        """a * b = lambda_a(b) . b^-1."""
        return self.dot(self.lam(a, b), self.inv(b))

    def comm_dot(self, a: int, b: int) -> int:
        return self.dot(self.dot(a, b), self.dot(self.inv(a), self.inv(b)))

    def comm_circ(self, a: int, b: int) -> int:
        return self.circ(self.circ(a, b), self.circ(self.bar(a), self.bar(b)))

    def conj_dot(self, g: int, x: int) -> int:
        return self.dot(self.dot(g, x), self.inv(g))

    def conj_circ(self, g: int, x: int) -> int:
        return self.circ(self.circ(g, x), self.bar(g))


class TableBrace(SkewBrace):
    """A brace backed by two Cayley tables on the same carrier."""

    backing = "table"

    def __init__(self, dot_group: GroupTable, circ_group: GroupTable):
        super().__init__()
        self.dot_group = dot_group
        self.circ_group = circ_group
        self.order = dot_group.order
        self.comm_dot, self.conj_dot = dot_group.comm, dot_group.conj
        self.comm_circ, self.conj_circ = circ_group.comm, circ_group.conj
        self._lam_table: Table | None = None
        self._star_table: Table | None = None

    def dot(self, a: int, b: int) -> int:
        return self.dot_group.mul[a][b]

    def circ(self, a: int, b: int) -> int:
        return self.circ_group.mul[a][b]

    def inv(self, a: int) -> int:
        return self.dot_group.inv[a]

    def bar(self, a: int) -> int:
        return self.circ_group.inv[a]

    def lam(self, a: int, b: int) -> int:
        return (self._lam_table or self._tabulate()[0])[a][b]

    def star(self, a: int, b: int) -> int:
        return (self._star_table or self._tabulate()[1])[a][b]

    def _tabulate(self) -> tuple[Table, Table]:
        """The lambda and star tables, built on the first lam or star call."""
        dmul, dinv, n = self.dot_group.mul, self.dot_group.inv, self.order
        lam = tuple(tuple(dmul[dinv[a]][x] for x in self.circ_group.mul[a]) for a in range(n))
        star = tuple(tuple(dmul[row[b]][dinv[b]] for b in range(n)) for row in lam)
        self._lam_table, self._star_table = lam, star
        return lam, star

    def generators(self) -> tuple[int, ...]:
        return self.generators_of(None)

    def generators_of(self, members: frozenset[int] | None) -> tuple[int, ...]:
        """Generators of (S, .), extended until they generate (S, o) too, for
        S the carrier (None) or a subgroup of both groups; cached per S."""
        key = ("generators", members)
        gens = self._cache.get(key)
        if gens is None:
            pool = None if members is None else sorted(members)
            dot_gens = greedy_generators(self.dot_group, pool=pool)
            gens = self._cache[key] = tuple(greedy_generators(self.circ_group, dot_gens, pool))
        return gens


def validate_brace(dot: GroupTable | Sequence[Sequence[int]], circ: GroupTable | Sequence[Sequence[int]]) -> TableBrace:
    """Check the brace relation on generators.

    Both tables must be groups on the same carrier with identity 0. The
    relation a o (b . c) = (a o b) . a^-1 . (a o c) says
    lambda_a(b . c) = lambda_a(b) . lambda_a(c); checked for every a, b and
    each generator c of (A, .), it extends to every c by induction on word
    length. With the associativity of o it implies
    lambda_{a o b} = lambda_a lambda_b, which is therefore not checked. A
    raised witness is a real failure.
    """
    def as_group(table, label: str) -> GroupTable:
        if isinstance(table, GroupTable):
            return table
        n = len(table)
        rows = tuple(map(int_row, table))
        if any(len(r) != n for r in rows):
            raise errors.ParseError(f"{label} table is not square")
        if any(rows[0][x] != x or rows[x][0] != x for x in range(n)):
            raise errors.IdentityMismatch(f"{label} identity is not at index 0")
        return validate_group(rows)

    dot_g = as_group(dot, "dot")
    circ_g = as_group(circ, "circ")
    if dot_g.order != circ_g.order:
        raise errors.IdentityMismatch("tables have different carrier sizes")
    if any(circ_g.mul[0][x] != x or circ_g.mul[x][0] != x for x in range(dot_g.order)):
        raise errors.IdentityMismatch("the two operations do not share identity 0")

    n = dot_g.order
    dmul, cmul, dinv = dot_g.mul, circ_g.mul, dot_g.inv
    dot_gens = greedy_generators(dot_g)
    for a in range(n):
        ia = dinv[a]
        for b in range(n):
            ab = cmul[a][b]
            for c in dot_gens:
                lhs = cmul[a][dmul[b][c]]
                rhs = dmul[dmul[ab][ia]][cmul[a][c]]
                if lhs != rhs:
                    raise errors.BraceRelationFails(a, b, c)
    return TableBrace(dot_g, circ_g)


def build_trivial(g: GroupTable) -> TableBrace:
    """The brace with circ equal to dot."""
    return TableBrace(g, g)


def build_almost_trivial(g: GroupTable) -> TableBrace:
    """The brace with circ the opposite operation of dot."""
    opp = tuple(tuple(g.mul[b][a] for b in g.elements()) for a in g.elements())
    circ_g = GroupTable(g.order, opp, g.inv)
    return TableBrace(g, circ_g)


def build_from_radical_ring(add: Sequence[Sequence[int]], mult: Sequence[Sequence[int]]) -> TableBrace:
    """Build the brace with a o b = a + b + a*b from a radical ring.

    The addition table must be an abelian group with zero at index 0. The
    ring laws (NotARing) are checked for c among the additive generators:
    a(b + c) = ab + ac is additive in c, and then so is (a + b)c = ac + bc;
    with both, (ab)c = a(bc) is trilinear and checked on generator triples.
    Then the circle operation must be a group (NotRadical). The rest follows:
    0x = x0 = 0, the brace relation is left distributivity, and
    a * b = -a + (a o b) - b = ab.
    """
    n = len(add)
    add_rows = tuple(map(int_row, add))
    if any(len(r) != n for r in add_rows):
        raise errors.ParseError("addition table is not square")
    # Relabeling would desynchronize the two tables, so pin zero at index 0.
    if any(add_rows[0][x] != x or add_rows[x][0] != x for x in range(n)):
        raise errors.NotARing("the zero element must sit at index 0")
    add_g = validate_group(add_rows)
    if not add_g.is_abelian():
        raise errors.NotARing("addition is not commutative")
    rows = tuple(map(int_row, mult))
    if len(rows) != n or any(len(r) != n for r in rows):
        raise errors.ParseError("multiplication table shape does not match addition")
    if any(min(row) < 0 or max(row) >= n for row in rows):
        raise errors.ParseError("multiplication table entries outside the carrier")
    am = add_g.mul
    gens = greedy_generators(add_g)
    for a, b, c in itertools.product(range(n), range(n), gens):
        if rows[a][am[b][c]] != am[rows[a][b]][rows[a][c]]:
            raise errors.NotARing("left distributivity fails", (a, b, c))
        if rows[am[a][b]][c] != am[rows[a][c]][rows[b][c]]:
            raise errors.NotARing("right distributivity fails", (a, b, c))
    for a, b, c in itertools.product(gens, repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            raise errors.NotARing("multiplication not associative", (a, b, c))
    circ_rows = tuple(
        tuple(am[am[a][b]][rows[a][b]] for b in range(n)) for a in range(n)
    )
    try:
        circ_g = validate_group(circ_rows)
    except errors.AlgebraError as exc:
        raise errors.NotRadical(f"circle operation is not a group: {exc}") from exc
    return TableBrace(add_g, circ_g)


# ---------------------------------------------------------------------------
# Identity suite.

IDENTITY_NAMES = (
    "a*(x.y) = (a*x).x.(a*y).x^-1",
    "(xoy)*a = (x*(y*a)).(y*a).(x*a)",
    "lam_a(x*y) = (aoxo~a)*lam_a(y)",
    "aoxo~a = a.lam_a(x.(x*~a)).a^-1",
)


def _identity_rows(brace: SkewBrace, a: int, xs, ys):
    """Yield ((a, x, y), verdicts) for x in xs and, within each x, y in ys,
    the verdicts saying whether each identity of IDENTITY_NAMES holds.

    Each term is computed once per prefix it depends on: bar(a) and inv(a)
    once per a; y*a, a*y and lam_a(y) once per (a, y); inv(x), a o x o ~a,
    (a*x).x, x*a and the whole fourth identity, which has no y, once per
    (a, x). That leaves 12 of the 28 element operations per triple.
    """
    d, c, s, lm = brace.dot, brace.circ, brace.star, brace.lam
    abar, ia = brace.bar(a), brace.inv(a)
    per_y = [(y, s(y, a), s(a, y), lm(a, y)) for y in ys]
    for x in xs:
        ix, axx, xa = brace.inv(x), d(s(a, x), x), s(x, a)
        conj = c(c(a, x), abar)
        fourth = conj == d(d(a, lm(a, d(x, s(x, abar)))), ia)
        for y, ya, ay, lay in per_y:
            yield (a, x, y), (
                s(a, d(x, y)) == d(d(axx, ay), ix),
                s(c(x, y), a) == d(d(s(x, ya), ya), xa),
                lm(a, s(x, y)) == s(conj, lay),
                fourth,
            )


def check_identities(brace: SkewBrace, samples: int = 100_000, seed: int = DEFAULT_SEED) -> dict:
    """Verify the four star-product identities.

    Table braces are checked on all triples; formula braces on every triple
    from the generating set, then `samples` seeded random triples (a, x, y
    drawn in that order). All three streams run through `_identity_rows`,
    which computes each term once per a, (a, x) or (a, y) it depends on;
    every triple is still checked, in the same order, with failures listed
    in triple order and capped at 8.
    """
    if isinstance(brace, TableBrace):
        every = brace.elements()
        return _run_identity_suite(_identity_rows(brace, a, every, every) for a in every)

    gens = brace.generators()
    rng = random.Random(seed)
    n = brace.order

    def samples_rows():
        for _ in range(samples):
            a, x, y = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            yield _identity_rows(brace, a, (x,), (y,))

    pool = (_identity_rows(brace, a, gens, gens) for a in gens)
    return _run_identity_suite(itertools.chain(pool, samples_rows()))


def _run_identity_suite(rows) -> dict:
    failures: list[dict] = []
    checked = 0
    for triple, verdicts in itertools.chain.from_iterable(rows):
        checked += 1
        for name, holds in zip(IDENTITY_NAMES, verdicts):
            if not holds:
                failures.append({"identity": name, "triple": triple})
                if len(failures) >= 8:
                    return {"passed": False, "checked": checked, "failures": failures}
    return {"passed": not failures, "checked": checked, "failures": failures}
