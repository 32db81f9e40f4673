"""Sub-skew braces, left ideals, ideals, closures, quotients, the
Huq-style commutator of ideals, and the set operations of the series:
`trivial_and_full`, `star_subgroup`, `dot_join`, `lifted` and `commutators`.
Each of these checks the term type once and returns a term of the brace's
own type: an interned `PairSpace` of a formula brace, or an element set."""

from __future__ import annotations

from typing import Iterable

from . import errors, formula, groups
from .braces import SkewBrace, TableBrace
from .formula import PairSpace
from .groups import (
    ElementSet,
    GroupTable,
    _close,
    _coset_table,
    full_set,
    make_set,
    subgroup_closure,
    trivial_set,
)


def _tables_only(brace: SkewBrace, what: str) -> None:
    """The one refusal of a formula brace, before any work: the operations
    that call it need Cayley tables."""
    if not isinstance(brace, TableBrace):
        raise errors.TooLarge(f"{what} needs a table brace")


def _is_dot_subgroup(brace: SkewBrace, members: frozenset[int]) -> bool:
    if 0 not in members:
        return False
    groups.check_table_cap(len(members) ** 2, "the subgroup check")
    return all(brace.dot(a, b) in members for a in members for b in members)


def is_subbrace(brace: SkewBrace, s: ElementSet) -> bool:
    if isinstance(s, PairSpace):
        return formula.bc_is_subbrace(brace, s)
    members = s.members
    if not _is_dot_subgroup(brace, members):
        return False
    return all(brace.circ(a, b) in members for a in members for b in members)


def is_left_ideal(brace: SkewBrace, s: ElementSet) -> bool:
    """Dot subgroup stable under every lambda_a.

    a ranges over `brace.generators()`, which generate both (A, .) and
    (A, o); that suffices because lambda is a homomorphism (A, o) -> Aut(A, .).
    """
    if isinstance(s, PairSpace):
        return formula.bc_is_left_ideal(brace, s)
    members = s.members
    if not _is_dot_subgroup(brace, members):
        return False
    return all(brace.lam(a, x) in members for a in brace.generators() for x in members)


def is_ideal(brace: SkewBrace, s: ElementSet) -> bool:
    """Left ideal normal in both groups, tested on the same generators."""
    if isinstance(s, PairSpace):
        return formula.bc_is_ideal(brace, s)
    if not is_left_ideal(brace, s):
        return False
    members = s.members
    return all(
        brace.conj_dot(a, x) in members and brace.conj_circ(a, x) in members
        for a in brace.generators()
        for x in members
    )


def coset_agreement(brace: SkewBrace, ideal: ElementSet, a: int) -> bool:
    """Check a.I = aoI as sets; true for every left ideal."""
    if not is_left_ideal(brace, ideal):
        raise errors.NotALeftIdeal("coset agreement asked of a non-left-ideal")
    if isinstance(ideal, PairSpace):
        return formula.bc_coset_agreement(brace, ideal, a)
    members = ideal.members
    left = {brace.dot(a, x) for x in members}
    right = {brace.circ(a, x) for x in members}
    return left == right


def star_subgroup(brace: SkewBrace, x: ElementSet, y: ElementSet) -> ElementSet:
    """Subgroup of (A, .) generated by {a * b : a in X, b in Y}.

    Two `PairSpace`s take the formula path; plain element sets need a table
    brace. Cached per table brace on the two member sets, as the series and
    the inclusion sweeps ask for the same pairs again.
    """
    if isinstance(x, PairSpace) and isinstance(y, PairSpace):
        return brace.pair_to_set(formula.star_subgroup_pair(brace, x, y))
    xm, ym = x.members, y.members
    key = ("star", xm, ym)
    out = brace._cache.get(key)
    if out is None:
        _tables_only(brace, "star_subgroup of element sets")
        groups.check_table_cap(len(xm) * len(ym), "the star subgroup sweep")
        values = {brace.star(a, b) for a in xm for b in ym}
        out = brace._cache[key] = subgroup_closure(brace.dot_group, values)
    return out


def trivial_and_full(brace: SkewBrace) -> tuple[ElementSet, ElementSet]:
    """{1} and A as terms of the brace's own type, made once per brace."""
    ends = brace._cache.get("ends")
    if ends is None:
        if isinstance(brace, TableBrace):
            ends = trivial_set(brace.order), full_set(brace.order)
        else:
            ends = brace.pair_to_set(brace.trivial_pair()), brace.pair_to_set(brace.full_pair())
        brace._cache["ends"] = ends
    return ends


def dot_join(brace: SkewBrace, sets) -> ElementSet:
    """Subgroup of (A, .) generated by the union of the subgroups `sets`.
    For product subspaces U_i x V_i it is generated by (sum U_i) x (sum V_i),
    as each U_i x V_i lies in it and (u, v) = (u, 0) . (0, v)."""
    if isinstance(sets[0], PairSpace):
        b, c = sets[0].b, sets[0].c
        for s in sets[1:]:
            b, c = b.union_span(s.b), c.union_span(s.c)
        return brace.pair_to_set(formula.close_pair(brace, b, c))
    return subgroup_closure(brace.dot_group, set().union(*(s.members for s in sets)))


def lifted(brace: SkewBrace, prev: ElementSet, maps: tuple[str, ...]) -> ElementSet:
    """The x with every f(x, a) in `prev`, f named in `maps` (from "star",
    "comm_dot" and "comm_circ"), for `prev` normal in the groups they read."""
    if isinstance(prev, PairSpace):
        return brace.pair_to_set(formula.bc_lifted_step(brace, prev, maps))
    fns = [getattr(brace, f) for f in maps]
    return groups.lifted_step(brace.order, fns, prev, brace.generators())


def commutators(brace: SkewBrace, side: str, y: ElementSet) -> ElementSet:
    """[A, Y], generated by every [a, b] with a in A and b in Y, in (A, .)
    (`side` "dot") or (A, o) ("circ"), for any subset Y.

    On product subspaces it is a commutator span. On a table brace it is the
    normal closure N of the [g, b] with g in `brace.generators()`, b in Y:
    [A, Y] is normal, as x[a, b]x^-1 = [xa, b][x, b]^-1, so it holds N; and
    [ga, b] = g[a, b]g^-1 [g, b] puts every [a, b] in N, by induction on the
    length of a as a word in the generators. A subgroup holding the
    conjugates of its generators by A's is normal, so the closure adds those
    that fall outside until none does.
    """
    if isinstance(y, PairSpace):
        one, whole = trivial_and_full(brace)
        if side == "dot":
            return brace.pair_to_set(PairSpace(formula.comm_dot_span(brace, whole, y), one.c))
        return brace.pair_to_set(PairSpace(one.b, formula.comm_circ_span(brace, whole, y)))
    g = brace.dot_group if side == "dot" else brace.circ_group
    gens = brace.generators()
    members, taken = _close(g.mul, {g.comm(a, b) for a in gens for b in y.members})
    while True:
        outside = {g.conj(a, x) for a in gens for x in taken} - members
        if not outside:
            return make_set(members, g.order)
        members, taken = _close(g.mul, [*taken, *outside])


def ideal_closure(brace: SkewBrace, seed: Iterable[int] | ElementSet) -> ElementSet:
    """Least ideal containing the seed set: the dot subgroup closure of the
    seed, where each new member y also queues lambda_a(y), a . y . a^-1 and
    a o y o a-bar for every a in `brace.generators()`.

    - Each element added lies in every ideal holding the seed, as a product
      of members or an image of one.
    - At the end the members form a dot subgroup holding the seed and stable
      under those maps, so an ideal by the argument of `is_ideal`; hence the
      least one.

    Once `classify.enumerate_ideals` has listed the ideals, sorted by order,
    it is the first one holding the seed: ideals are closed under
    intersection, so the least one lies in every other.
    """
    _tables_only(brace, "ideal_closure")
    ideals = brace._cache.get("ideals")
    if ideals is not None:
        seed = seed.members if isinstance(seed, ElementSet) else set(seed)
        return next(i for i in ideals if seed <= i.members)
    images = brace._cache.get("ideal_images")
    if images is None:
        maps, gens = (brace.lam, brace.conj_dot, brace.conj_circ), brace.generators()
        images = brace._cache["ideal_images"] = [
            [f(a, y) for a in gens for f in maps] for y in brace.elements()
        ]
    return subgroup_closure(brace.dot_group, seed, images)


def huq_commutator(brace: SkewBrace, i: ElementSet, j: ElementSet) -> ElementSet:
    """[I, J]_A: the ideal generated by [I,J], [I,J]_o, and I*J.

    The arguments are checked here, at the public entry; chains whose terms
    are ideals by construction call `_commutator`. The tests check that the
    presentation via [I,J], I*J, J*I and the swapped arguments agree.
    """
    _tables_only(brace, "huq_commutator")
    if not is_ideal(brace, i) or not is_ideal(brace, j):
        raise errors.NotAnIdeal("commutator of non-ideals")
    return _commutator(brace, i, j)


def _commutator(brace: SkewBrace, i: ElementSet, j: ElementSet) -> ElementSet:
    """[I, J]_A for ideals I and J of a table brace, unchecked.

    x and y run over generators of I and of J under both operations. The
    closure K is normal in both groups and a left ideal, so by
    [x, y1 y2] = [x, y1] . y1 [x, y2] y1^-1, its mirror in x, the same two
    in (A, o), x * (y1 . y2) = (x * y1) . y1 (x * y2) y1^-1 and
    (x1 o x2) * y = lambda_x1(x2 * y) . (x1 * y), it contains every value on
    all of I x J.
    """
    gens, j_gens = set(), brace.generators_of(j.members)
    for x in brace.generators_of(i.members):
        for y in j_gens:
            gens.add(brace.comm_dot(x, y))
            gens.add(brace.comm_circ(x, y))
            gens.add(brace.star(x, y))
    return ideal_closure(brace, gens)


def quotient_brace(brace: SkewBrace, ideal: ElementSet) -> tuple[TableBrace, tuple[int, ...]]:
    """Quotient brace on minimal coset representatives plus the projection.

    Only table braces are materialized; series that conceptually need
    quotients of formula braces use lifted predicates instead.
    """
    _tables_only(brace, "quotient_brace")
    if not is_ideal(brace, ideal):
        raise errors.NotAnIdeal("quotient by a non-ideal")
    # An ideal is normal in (A, .), so the cosets need no second check.
    dot_q, proj = _coset_table(brace.dot_group, ideal)
    # The circ cosets coincide with the dot cosets, so reuse the projection.
    rep_by_class: list[int | None] = [None] * dot_q.order
    for x in brace.elements():
        q = proj[x]
        if rep_by_class[q] is None:
            rep_by_class[q] = x
    reps = [r for r in rep_by_class if r is not None]
    circ_rows = tuple(
        tuple(proj[brace.circ(a, b)] for b in reps) for a in reps
    )
    circ_q = GroupTable.from_trusted(circ_rows)
    return TableBrace(dot_q, circ_q), proj
