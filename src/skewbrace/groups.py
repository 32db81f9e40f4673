"""Finite group machinery over Cayley tables with 0-based element indices.

Every group lives on the carrier {0, ..., n-1} with the identity pinned at
index 0. Tables are immutable once validated, so instances are safe to share
between threads for read-only queries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from . import errors

Table = tuple[tuple[int, ...], ...]
SUBGROUPS_MAX_ORDER = 64  # largest group whose subgroups are enumerated
TABLE_CAP = 1_000_000  # most cells of one table, or pairs of one sweep (`check_table_cap`)


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a Cayley table with precomputed inverses."""

    order: int
    mul: Table
    inv: tuple[int, ...]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        mul = self.mul
        return mul[mul[g][x]][self.inv[g]]

    def comm(self, a: int, b: int) -> int:
        """[a, b] = a * b * a^-1 * b^-1."""
        mul, inv = self.mul, self.inv
        return mul[mul[a][b]][mul[inv[a]][inv[b]]]

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        m = self.mul
        return all(m[a][b] == m[b][a] for a in range(self.order) for b in range(a))

    @cached_property
    def _normal_subgroups(self) -> tuple[ElementSet, ...]:
        """`normal_subgroups`, found on first use (a racing fill is idempotent)."""
        mul, gens = self.mul, greedy_generators(self)
        images = [[self.conj(a, y) for a in gens] for y in self.elements()]
        closures = {subgroup_closure(self, (x,), images).members for x in self.elements()}
        picks = [(c, itemgetter(*c)) for c in closures if len(c) > 1]  # pick(mul[a]) = a . c
        found, queue = {frozenset((0,))}, [frozenset((0,))]
        while queue:
            n = queue.pop()
            rows = [mul[a] for a in n]
            for c, pick in picks:
                if not c <= n:
                    join = frozenset(itertools.chain.from_iterable(map(pick, rows)))
                    if join not in found:
                        found.add(join)
                        queue.append(join)
        subgroups = [ElementSet(s, self.order) for s in found]
        return tuple(sorted(subgroups, key=lambda s: (len(s), s.sorted())))

    @staticmethod
    def from_trusted(mul: Sequence[Sequence[int]]) -> "GroupTable":
        """Wrap a table known to be a group (quotients, relabelings).

        Skips the associativity test of `validate_group`; inverses are still
        derived and the identity at 0 is still asserted.
        """
        table = tuple(tuple(row) for row in mul)
        n = len(table)
        if any(table[0][x] != x or table[x][0] != x for x in range(n)):
            raise errors.NoIdentity("index 0 is not an identity")
        inv = _inverse_row(table, n)
        return GroupTable(n, table, inv)


def _inverse_row(table: Table, n: int) -> tuple[int, ...]:
    """The first y with x.y = y.x = 0, for each x. The first zero of row x
    is found in C; when its column does not give 0 back, the row is
    scanned, so a table that is not a group gets the same y or NoInverse(x)."""
    inv = [-1] * n
    for x in range(n):
        row = table[x]
        try:
            y = row.index(0)
        except ValueError:
            raise errors.NoInverse(x) from None
        if table[y][x] == 0:
            inv[x] = y
            continue
        for y in range(y + 1, n):
            if row[y] == 0 and table[y][x] == 0:
                inv[x] = y
                break
        else:
            raise errors.NoInverse(x)
    return tuple(inv)


def as_int(x) -> int:
    """A table or matrix entry or an integer spec field, which must be an int
    (int() would truncate 0.5, accept True)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise errors.ParseError(f"expected an integer, got {x!r}")
    return x


def int_row(row) -> tuple[int, ...]:
    """A table row as a tuple of ints. A list or tuple of plain ints is
    checked in C; any other row goes through `as_int` entry by entry, which
    names the first entry that is not an int."""
    if isinstance(row, (list, tuple)) and set(map(type, row)) == {int}:
        return tuple(row)
    return tuple(as_int(x) for x in row)


def check_table_cap(size: int, what: str, unit: str = "cells or pairs") -> None:
    """Refuse a table or sweep of `size` units above TABLE_CAP, read per call."""
    if size > TABLE_CAP:
        raise errors.TooLarge(f"{what} would take {size} {unit}, above TABLE_CAP = {TABLE_CAP}")


def validate_group(mul: Sequence[Sequence[int]]) -> GroupTable:
    """Check the group axioms and return a table with identity at 0.

    Raises ParseError, NoIdentity, NoInverse, or NotAssociative with a
    witness. When the identity sits at another index, the carrier is
    relabeled by the swap that brings it to 0.

    Associativity is Light's test: (xy)z = x(yz) for all x, y and each z in
    `greedy_generators` of the unchecked table, whose right-multiplication
    closure from 0 reaches every element. The z that pass contain 0 and the
    generators and are closed under products, as
    (xy)(zw) = ((xy)z)w = (x(yz))w = x((yz)w) = x(y(zw)); so they are all.
    """
    if not isinstance(mul, (list, tuple)):
        raise errors.ParseError("a group table must be a list of rows")
    n = len(mul)
    if n == 0:
        raise errors.ParseError("empty multiplication table")
    rows = []
    for i, row in enumerate(mul):
        if not isinstance(row, (list, tuple)):
            raise errors.ParseError(f"row {i} is not a list")
        row = int_row(row)
        if len(row) != n:
            raise errors.ParseError(f"row {i} has length {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= n:
            raise errors.ParseError(f"row {i} has entries outside 0..{n - 1}")
        rows.append(row)
    table: Table = tuple(rows)

    e = next(
        (
            cand
            for cand in range(n)
            if all(table[cand][x] == x and table[x][cand] == x for x in range(n))
        ),
        None,
    )
    if e is None:
        raise errors.NoIdentity("no two-sided identity element")
    if e != 0:
        swap = list(range(n))
        swap[0], swap[e] = e, 0
        table = tuple(
            tuple(swap[table[swap[a]][swap[b]]] for b in range(n)) for a in range(n)
        )

    inv = _inverse_row(table, n)
    g = GroupTable(n, table, inv)
    for z, x, y in itertools.product(greedy_generators(g), range(n), range(n)):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            raise errors.NotAssociative(x, y, z)
    return g


@dataclass(frozen=True)
class ElementSet:
    """A subset of a carrier {0, ..., parent_order-1}, the element set of a
    table brace (a formula brace's is `formula.PairSpace`)."""

    members: frozenset[int]
    parent_order: int

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def sorted(self) -> list[int]:
        return sorted(self.members)

    @property
    def is_trivial(self) -> bool:
        return self.members == frozenset((0,))

    @property
    def is_full(self) -> bool:
        return len(self.members) == self.parent_order


def make_set(members: Iterable[int], parent_order: int) -> ElementSet:
    return ElementSet(frozenset(members), parent_order)


def trivial_set(parent_order: int) -> ElementSet:
    return make_set((0,), parent_order)


def full_set(parent_order: int) -> ElementSet:
    return make_set(range(parent_order), parent_order)


@dataclass(frozen=True)
class SeriesChain:
    """An ascending or descending chain of element sets: `ElementSet`s on a
    table brace, `formula.PairSpace`s on a formula brace.

    `start_index` is the index of terms[0] in the usual numbering: 1 for
    descending chains, 0 for ascending ones. Terms past `stabilized_at` are
    constant; `at(n)` therefore clamps to the last computed term.
    """

    kind: str
    terms: tuple[ElementSet, ...]
    start_index: int
    stabilized_at: int
    reaches_terminal: bool

    def at(self, n: int) -> ElementSet:
        if n < self.start_index:
            raise errors.BadIndices(f"index {n} below start {self.start_index}")
        return self.terms[min(n - self.start_index, len(self.terms) - 1)]

    def __len__(self) -> int:
        return len(self.terms)

    def terminal_class(self) -> int | None:
        """Index of the first terminal term, or None if never reached; a
        chain stops at its first terminal term."""
        return self.stabilized_at if self.reaches_terminal else None


def _close(g: GroupTable, seeds: Iterable[int], images=()) -> tuple[set[int], list[int]]:
    """The one closure worklist: the members reached and the seeds taken.

    Seeds are taken in order, skipping those already reached. Taking x grows
    the members M by the old members times x, then the new members times
    every taken element (a word's first step out of M is h . x with h in M).
    `images[y]`, when given, lists elements that join the worklist once y
    becomes a member. The members are what right products by the taken
    elements reach from 0, which on a group is the subgroup they generate.
    """
    mul = g.mul
    members = {0}
    taken: list[int] = []
    pending = list(seeds)[::-1]
    while pending:
        x = pending.pop()
        if x in members:
            continue
        taken.append(x)
        frontier = [y for y in (mul[h][x] for h in list(members)) if y not in members]
        members.update(frontier)
        while frontier:
            if images:
                for y in frontier:
                    pending += images[y]
            grown = []
            for y in frontier:
                row = mul[y]
                for h in taken:
                    z = row[h]
                    if z not in members:
                        members.add(z)
                        grown.append(z)
            frontier = grown
    return members, taken


def subgroup_closure(g: GroupTable, gens: Iterable[int] | ElementSet, images=()) -> ElementSet:
    """Smallest subgroup containing the generators (and, with `images`, the
    images of its members), by `_close`."""
    return make_set(_close(g, gens, images)[0], g.order)


def greedy_generators(
    g: GroupTable, gens: Iterable[int] = (), pool: Iterable[int] | None = None
) -> list[int]:
    """`gens`, then each element of `pool` (default: all of g) outside the
    closure of those before it; for a subgroup's sorted members, they then
    generate the subgroup. Redundant `gens` are kept."""
    gens = list(gens)
    _, taken = _close(g, [*gens, *(g.elements() if pool is None else pool)])
    return gens + [x for x in taken if x not in gens]


def is_subgroup(g: GroupTable, s: ElementSet) -> bool:
    members = s.members
    if 0 not in members:
        return False
    mul = g.mul
    return all(mul[a][b] in members for a in members for b in members)


def is_normal(g: GroupTable, h: ElementSet) -> bool:
    """True iff x H x^-1 = H for every x, tested on generators of g as a
    normalizer is a subgroup; raises if H is not a subgroup."""
    if not is_subgroup(g, h):
        raise errors.NotASubgroup("normality asked of a non-subgroup")
    members = h.members
    return all(g.conj(x, a) in members for x in greedy_generators(g) for a in members)


def normal_subgroups(g: GroupTable) -> list[ElementSet]:
    """Every normal subgroup, sorted by (order, members), found once per
    table; gated to small groups.

    The closure of x under conjugation by generators of g is <x>^G, the least
    normal subgroup holding x. The product of two normal subgroups is their
    join, a normal subgroup, and N is the join of the <x>^G with x in N; so
    {1} closed under products with the <x>^G reaches every normal subgroup.
    """
    if g.order > SUBGROUPS_MAX_ORDER:
        raise errors.TooLarge(f"subgroup enumeration capped at order {SUBGROUPS_MAX_ORDER}")
    return list(g._normal_subgroups)


def quotient_group(g: GroupTable, n: ElementSet) -> tuple[GroupTable, tuple[int, ...]]:
    """Quotient table on minimal coset representatives plus the projection map.

    The projection sends each element to the index of its coset in the
    quotient carrier.
    """
    if not is_normal(g, n):
        raise errors.NotNormal("quotient by a non-normal subgroup")
    return _coset_table(g, n)


def _coset_table(g: GroupTable, n: ElementSet) -> tuple[GroupTable, tuple[int, ...]]:
    """`quotient_group` for an `n` already known to be normal."""
    mul = g.mul
    members = sorted(n.members)
    rep_of: dict[int, int] = {}
    reps: list[int] = []
    for x in g.elements():
        if x in rep_of:
            continue
        coset = [mul[x][a] for a in members]
        r = min(coset)
        for y in coset:
            rep_of[y] = r
        reps.append(r)
    reps.sort()
    index_of = {r: i for i, r in enumerate(reps)}
    table = tuple(
        tuple(index_of[rep_of[mul[a][b]]] for b in reps) for a in reps
    )
    projection = tuple(index_of[rep_of[x]] for x in g.elements())
    return GroupTable.from_trusted(table), projection


def center(g: GroupTable) -> ElementSet:
    """The x commuting with generators of g, as a centralizer is a subgroup."""
    mul, gens = g.mul, greedy_generators(g)
    return make_set(
        (x for x in g.elements() if all(mul[x][a] == mul[a][x] for a in gens)), g.order
    )


def commutator_set(g: GroupTable, x: Iterable[int], y: ElementSet) -> ElementSet:
    """Subgroup K generated by all commutators [a, b], a in X, b in Y.

    When Y is a subgroup normalized by <X>, X may be a generating set: K is
    then [<X>, Y]. For a in X and h in <X>, [ah, b] = a m a^-1 . [a, b] with
    m = [h, b] in Y, and a m a^-1 = [a, m] . m; so by induction on the word
    length of h, every [ah, b] lies in K.
    """
    gens = {g.comm(a, b) for a in x for b in y.members}
    return subgroup_closure(g, gens)


def run_chain(kind: str, start, step, ascending: bool = False, plateau: int = 2) -> SeriesChain:
    """The one chain driver: apply `step` to the terms so far until the
    terminal term appears or the last `plateau` terms are equal.

    Terms are ElementSets or formula `PairSpace`s; the driver reads only
    `parent_order`, `is_trivial`, `is_full` and equality. Descending chains
    are numbered from 1 and end at the trivial set, ascending ones from 0 and
    end at the full set. For monotone chains whose step reads only the last
    term, two equal terms mean the fixpoint; a step that reads every earlier
    term (the mixed-index chain) asks for a longer plateau. The repeated
    terms are kept so the stabilization is visible.
    """
    is_terminal = (lambda s: s.is_full) if ascending else (lambda s: s.is_trivial)
    # A strictly monotone chain of subgroups of a group of order N has at
    # most log2 N + 1 distinct terms, each held for fewer than `plateau`.
    cap = (plateau - 1) * start.parent_order.bit_length()
    terms = [start]
    while not is_terminal(terms[-1]) and terms[-plateau:] != [terms[-1]] * plateau:
        if len(terms) > cap:
            raise errors.AlgebraError(f"{kind} chain failed to stabilize within {cap} steps")
        terms.append(step(terms))
    first_stable = len(terms) - 1
    while first_stable > 0 and terms[first_stable - 1] == terms[-1]:
        first_stable -= 1
    start_index = 0 if ascending else 1
    return SeriesChain(
        kind, tuple(terms), start_index, start_index + first_stable, is_terminal(terms[-1])
    )


def lower_central_series(g: GroupTable) -> SeriesChain:
    """gamma_1 = G, gamma_{n+1} = [G, gamma_n], computed until it repeats."""
    gens = greedy_generators(g)
    return run_chain(
        "group_lower", full_set(g.order), lambda terms: commutator_set(g, gens, terms[-1])
    )


def lifted_step(order: int, maps, prev: ElementSet, gens: Sequence[int]) -> ElementSet:
    """Keep x iff every f(x, a) with a in `gens` lands in `prev`, one filter
    per generator and map, so x is dropped at its first escaping value: an
    ascending series step that builds no quotient.

    The generators stand for the whole carrier. For N normal in a group, the
    a with [x, a] in N form a subgroup of it, by [x, ab] = [x, a] . a [x, b] a^-1;
    for N normal in (A, .), the a with x * a in N form a subgroup of (A, .),
    by x * (ab) = (x * a) . a (x * b) a^-1. So `gens` must generate the group
    of each commutator in `maps`, and (A, .) if the star product is there,
    and `prev` must be normal in those groups. Every term of the socle and
    annihilator chains is an ideal, and every term of an upper central
    series is normal in its group.
    """
    inside = prev.members
    keep: Iterable[int] = range(order)
    for a in gens:
        for f in maps:
            keep = [x for x in keep if f(x, a) in inside]
    return make_set(keep, order)


def upper_central_series(g: GroupTable) -> SeriesChain:
    """zeta_0 = 1, zeta_{n+1} = {x : every [x, a] lies in zeta_n}."""
    gens = greedy_generators(g)
    return run_chain(
        "group_upper",
        trivial_set(g.order),
        lambda terms: lifted_step(g.order, (g.comm,), terms[-1], gens),
        ascending=True,
    )


def check_group_central_inclusion(g: GroupTable, n: int, k: int) -> dict:
    """Verify [zeta_n, gamma_{n-k}] <= zeta_k by brute force over all pairs."""
    if n < 1 or k < 0 or k > n - 1:
        raise errors.BadIndices(f"need n >= 1 and 0 <= k <= n-1, got ({n}, {k})")
    upper = upper_central_series(g)
    lower = lower_central_series(g)
    zn = upper.at(n)
    gnk = lower.at(n - k)
    zk = upper.at(k).members
    for x in zn:
        for y in gnk:
            c = g.comm(x, y)
            if c not in zk:
                return {"holds": False, "witness": (x, y, c)}
    return {"holds": True, "witness": None}


def all_subgroups(g: GroupTable) -> list[ElementSet]:
    """Every subgroup, by closure of extensions; gated to small groups."""
    if g.order > SUBGROUPS_MAX_ORDER:
        raise errors.TooLarge(f"subgroup enumeration capped at order {SUBGROUPS_MAX_ORDER}")
    found: dict[frozenset[int], ElementSet] = {}
    start = subgroup_closure(g, ())
    queue = [start]
    found[start.members] = start
    while queue:
        h = queue.pop()
        for x in g.elements():
            if x in h.members:
                continue
            bigger = subgroup_closure(g, set(h.members) | {x})
            if bigger.members not in found:
                found[bigger.members] = bigger
                queue.append(bigger)
    return sorted(found.values(), key=lambda s: (len(s), s.sorted()))


# ---------------------------------------------------------------------------
# Named constructions used by tests and the CLI's --builtin option.


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise errors.BadParameters("cyclic group needs order >= 1")
    mul = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inv = tuple((-a) % n for a in range(n))
    return GroupTable(n, mul, inv)


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Direct product with index (a, b) -> a + |G| * b."""
    n, m = g.order, h.order

    def enc(a: int, b: int) -> int:
        return a + n * b

    mul = tuple(
        tuple(
            enc(g.mul[a1][a2], h.mul[b1][b2])
            for b2 in range(m)
            for a2 in range(n)
        )
        for b1 in range(m)
        for a1 in range(n)
    )
    inv = tuple(enc(g.inv[a], h.inv[b]) for b in range(m) for a in range(n))
    return GroupTable(n * m, mul, inv)


def _extension(base: GroupTable, r: int, tau: Sequence[int], w: int = 0) -> GroupTable:
    """The group of words h g^a, h in `base` and 0 <= a < r, at index
    h + |base| * a, where g h g^-1 = tau(h) and g^r = w.

    (h g^a)(k g^b) = h tau^a(k) g^(a+b), times w with the exponent dropped
    by r when a + b >= r. This is a group when tau is an automorphism of
    `base`, tau(w) = w and tau^r is conjugation by w. Every finite solvable
    group is an iterated extension of this kind with prime r.
    """
    m, mul = base.order, base.mul
    twists = [tuple(range(m))]  # tau^a
    for _ in range(1, r):
        twists.append(tuple(tau[x] for x in twists[-1]))

    def mul_fn(x: int, y: int) -> int:
        (a, h), (b, k) = divmod(x, m), divmod(y, m)
        z = mul[h][twists[a][k]]
        return (z if a + b < r else mul[z][w]) + m * ((a + b) % r)

    n = m * r
    return GroupTable.from_trusted([[mul_fn(x, y) for y in range(n)] for x in range(n)])


def dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n; index r^i s^e -> i + n * e."""
    if n < 1:
        raise errors.BadParameters("dihedral group needs n >= 1")
    return _extension(cyclic(n), 2, [-i % n for i in range(n)])


def quaternion8() -> GroupTable:
    """Quaternion group, D4 with s^2 = r^2 = -1; index i^t j^e -> t + 4e."""
    return _extension(cyclic(4), 2, (0, 3, 2, 1), 2)


def symmetric(n: int) -> GroupTable:
    """Symmetric group on n points, permutations ordered lexicographically."""
    if n < 1 or n > 5:
        raise errors.BadParameters("symmetric group supported for 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    return _perm_table(perms)


def alternating(n: int) -> GroupTable:
    if n < 3 or n > 5:
        raise errors.BadParameters("alternating group supported for 3 <= n <= 5")
    perms = sorted(p for p in itertools.permutations(range(n)) if _parity(p) == 0)
    return _perm_table(perms)


def _parity(p: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inversions % 2


def _perm_table(perms: list[tuple[int, ...]]) -> GroupTable:
    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(
        tuple(index[tuple(p[q[i]] for i in range(len(p)))] for q in perms)
        for p in perms
    )
    return GroupTable.from_trusted(mul)


def _builtin_parts(name: str) -> list[tuple[int, Callable[[], GroupTable]]]:
    """The order and builder of each factor of a builtin name, so the order is
    known before any table is built. S n and A n, built only for n <= 5, are
    built here to read it."""
    parts = []
    for key in name.strip().replace(" ", "").upper().split("X"):
        kind, num = key[:1], key[1:]
        if key == "V4":
            parts.append((4, lambda: direct_product(cyclic(2), cyclic(2))))
        elif key == "Q8":
            parts.append((8, quaternion8))
        elif num.isdigit() and kind in "CZD":
            n = int(num)
            parts.append((2 * n, partial(dihedral, n)) if kind == "D" else (n, partial(cyclic, n)))
        elif num.isdigit() and kind in "SA":
            table = (symmetric if kind == "S" else alternating)(int(num))
            parts.append((table.order, lambda table=table: table))
        else:
            raise errors.ParseError(f"unrecognized group name {name!r}")
    return parts


def builtin_order(name: str) -> int:
    """The order of `builtin_group(name)`, worked out without building it."""
    return math.prod(order for order, _ in _builtin_parts(name))


def builtin_group(name: str) -> GroupTable:
    """Parse names like C6, C2xC3, S3, A4, D4 (order 8), Q8, V4."""
    return reduce(direct_product, [build() for _, build in _builtin_parts(name)])
