"""Automorphism listing, the lambda-map enumerator, and its brute oracle."""

from __future__ import annotations

import gc
import itertools
import tracemalloc
import weakref

import pytest

import skewbrace as sb
from skewbrace import errors
from skewbrace.enumeration import automorphism_group, enumerate_braces
from skewbrace.groups import GroupTable

# Labeled brace counts per additive table, frozen from the oracle runs.
ORACLE_COUNTS = {
    "C1": 1,
    "C2": 1,
    "C3": 1,
    "C4": 2,
    "V4": 4,
    "C5": 1,
    "C6": 2,
    "S3": 8,
}

# The groups of order <= 12 on which the pruned enumerator is checked
# against the unpruned search.
PRUNING_GROUPS = [
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C12", "V4", "S3",
    "C2xC4", "C2xC2xC2", "D4", "Q8", "C3xC3", "D5", "C2xC6", "A4", "D6",
]

# Labeled brace counts at order 16, measured with the unpruned search.
ORDER16_COUNTS = {
    "C16": 16, "C2xC8": 160, "D8": 304, "C4xC4": 880,
    "C2xD4": 1488, "C2xQ8": 2096, "C2xC2xC4": 3152,
}

# Isomorphism-class counts derived from the enumerator plus the automorphism
# action; stable regression values.
ISO_CLASS_COUNTS_ORDER8 = {"C8": 5, "C2xC4": 14, "C2xC2xC2": 8, "D4": 12, "Q8": 8}


def brute_automorphisms(g: sb.GroupTable) -> set[tuple[int, ...]]:
    """Independent oracle: filter every permutation fixing the identity."""
    out = set()
    for perm in itertools.permutations(range(g.order)):
        if perm[0] != 0:
            continue
        if all(
            perm[g.mul[a][b]] == g.mul[perm[a]][perm[b]]
            for a in range(g.order)
            for b in range(g.order)
        ):
            out.add(perm)
    return out


@pytest.mark.parametrize(
    "name,count",
    [
        ("C6", 2),
        ("S3", 6),
        ("C2", 1),
        ("C5", 4),
        ("V4", 6),
        ("C8", 4),
        ("C2xC4", 8),
        ("C2xC2xC2", 168),
        ("D4", 8),
        ("Q8", 24),
    ],
)
def test_automorphism_counts(groups, name, count):
    auts = automorphism_group(groups[name])
    assert len(auts) == count
    assert auts == sorted(brute_automorphisms(groups[name]))


@pytest.mark.parametrize("name,count", [("C12", 4), ("C2xC6", 12), ("A4", 24), ("D6", 12)])
def test_automorphism_counts_order12(name, count):
    """Too large for the brute-force oracle: each tuple is checked to be a
    bijective homomorphism instead."""
    g = sb.builtin_group(name)
    auts = automorphism_group(g)
    assert len(auts) == count == len(set(auts))
    for perm in auts:
        assert sorted(perm) == list(range(g.order))
        assert all(
            perm[g.mul[a][b]] == g.mul[perm[a]][perm[b]]
            for a in range(g.order)
            for b in range(g.order)
        )


def test_automorphism_search_is_bounded_by_table_cap(monkeypatch):
    """|g| times the product of the generators' candidate counts is checked
    against TABLE_CAP before the search: C100 (100 * 40) lists its phi(100)
    automorphisms, C2^5 (32 * 31^5) is refused, and C2^4 (16 * 15^4) runs at
    exactly that cap and is refused one below it, with nothing listed."""
    assert len(automorphism_group(sb.cyclic(100))) == 40
    with pytest.raises(errors.TooLarge, match="TABLE_CAP"):
        automorphism_group(sb.builtin_group("C2xC2xC2xC2xC2"))
    c2_4 = sb.builtin_group("C2xC2xC2xC2")
    monkeypatch.setattr(sb.groups, "TABLE_CAP", 16 * 15**4)
    assert len(automorphism_group(c2_4)) == 20160  # |GL(4, 2)|
    monkeypatch.setattr(sb.groups, "TABLE_CAP", 16 * 15**4 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(errors.TooLarge, match="TABLE_CAP"):
            automorphism_group(c2_4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # the 20,160 listed tuples take ~3.7 MB


def test_enumerate_c2_single_brace(groups):
    braces = enumerate_braces(groups["C2"])
    assert len(braces) == 1
    assert braces[0].circ_group.mul == groups["C2"].mul


def test_enumerate_respects_max_order():
    with pytest.raises(errors.TooLarge):
        enumerate_braces(sb.cyclic(13))


def test_enumerate_c3xc2_contains_pq(groups):
    pq = sb.make_pq_brace(3, 2, 2, "i")
    tables = {b.circ_group.mul for b in enumerate_braces(groups["C3xC2"])}
    assert pq.dot_group.mul == groups["C3xC2"].mul
    assert pq.circ_group.mul in tables
    assert groups["C3xC2"].mul in tables  # the trivial brace


def test_enumerate_cyclic_c6_contains_pq_after_alignment(groups):
    """Align carriers through the residue map x -> (x mod 3, x mod 2)."""
    pq = sb.make_pq_brace(3, 2, 2, "i")
    sigma = [x % 3 + 3 * (x % 2) for x in range(6)]  # C6 -> C3xC2 iso
    inv = [0] * 6
    for i, s in enumerate(sigma):
        inv[s] = i
    transported = tuple(
        tuple(inv[pq.circ(sigma[a], sigma[b])] for b in range(6)) for a in range(6)
    )
    tables = {b.circ_group.mul for b in enumerate_braces(groups["C6"])}
    assert transported in tables


def test_enumerate_s3_contains_expected(groups):
    pq2 = sb.make_pq_brace(3, 2, 2, "ii")
    tables = {b.circ_group.mul for b in enumerate_braces(pq2.dot_group)}
    assert pq2.circ_group.mul in tables
    assert pq2.dot_group.mul in tables  # trivial
    opposite = tuple(
        tuple(pq2.dot_group.mul[b][a] for b in range(6)) for a in range(6)
    )
    assert opposite in tables  # almost trivial


def test_enumerated_braces_all_validate(groups, corpus8, sweep12):
    """`enumerate_braces` skips validation; the full check is the oracle here.
    Every brace of order <= 12 is the brace `validate_brace` builds from its
    two tables, and no two braces on one group share a circ table."""
    for brace in enumerate_braces(groups["D4"]):
        assert sb.check_identities(brace)["passed"]
    circ_tables: dict[str, set] = {}
    for label, brace in corpus8 + sweep12:
        checked = sb.validate_brace(
            [list(row) for row in brace.dot_group.mul],
            [list(row) for row in brace.circ_group.mul],
        )
        assert checked.dot_group == brace.dot_group, label
        assert checked.circ_group == brace.circ_group, label
        seen = circ_tables.setdefault(label.split("#")[0], set())
        assert brace.circ_group.mul not in seen, label
        seen.add(brace.circ_group.mul)


def test_enumerated_braces_are_freed_without_gc(groups):
    """No reference cycle pins the enumerated braces, analysed or not: with
    the collector off, they die with the list."""
    gc.collect()
    gc.disable()
    try:
        braces = enumerate_braces(groups["S3"])
        for brace in braces[::2]:
            sb.nilpotency_profile(brace)
            sb.check_equivalence_theorems(brace)
        refs = [weakref.ref(b) for b in braces]
        del braces, brace
        assert [r() for r in refs] == [None] * len(refs)
        gc.collect()
        automorphism_group(groups["D4"])
        assert gc.collect() == 0  # no cyclic garbage was left behind
    finally:
        gc.enable()


def test_oracle_counts_frozen(groups):
    for name, count in ORACLE_COUNTS.items():
        assert len(brute_force_oracle(groups[name])) == count, name


def test_oracle_equivalence_up_to_order_six(groups):
    for name in ORACLE_COUNTS:
        g = groups[name]
        enum_tables = {b.circ_group.mul for b in enumerate_braces(g)}
        oracle_tables = {b.circ_group.mul for b in brute_force_oracle(g)}
        assert enum_tables == oracle_tables, name


def test_oracle_too_large(groups):
    with pytest.raises(errors.TooLarge):
        brute_force_oracle(groups["C7"])


def test_oracle_c3_all_multiplicative_groups_abelian(groups):
    for brace in brute_force_oracle(groups["C3"]):
        assert brace.circ_group.is_abelian()


def test_order_one_enumeration():
    braces = enumerate_braces(sb.cyclic(1))
    assert len(braces) == 1


def iso_class_count(g: sb.GroupTable) -> int:
    auts = automorphism_group(g)
    tables = {b.circ_group.mul for b in enumerate_braces(g, max_order=g.order)}
    seen: set = set()
    classes = 0
    for t in sorted(tables):
        if t in seen:
            continue
        classes += 1
        for s in auts:
            inv = [0] * g.order
            for i, x in enumerate(s):
                inv[x] = i
            seen.add(
                tuple(
                    tuple(s[t[inv[a]][inv[b]]] for b in range(g.order))
                    for a in range(g.order)
                )
            )
    return classes


def test_iso_class_counts_order8(groups):
    got = {name: iso_class_count(groups[name]) for name in ISO_CLASS_COUNTS_ORDER8}
    assert got == ISO_CLASS_COUNTS_ORDER8
    assert sum(got.values()) == 47


def inversion(n: int) -> list[int]:
    return [-x % n for x in range(n)]


# The groups of order 12 and 16 that `builtin_group` does not name, as cyclic
# extensions h g^a (g h g^-1 = tau(h), g^r = w), with their element counts
# per order, center size, |Aut| and number of skew brace isomorphism classes.
# x generates the base when it is cyclic.
EXTENSION_GROUPS = {
    # Dic3: the squares (x^h g)^2 = x^h x^-h g^2 = x^3, so all six x^h g have
    # order 4; the center is {1, x^3}, the two h fixed by inversion. An
    # automorphism sends x to x^+-1 (x, x^5 are the only elements of order 6)
    # and g to any of the six x^h g: 12.
    "Dic3": (
        lambda: sb.groups._extension(sb.cyclic(6), 2, inversion(6), 3),
        {1: 1, 2: 1, 3: 2, 4: 6, 6: 2}, 2, 12, 10,
    ),
    # Q16: (x^h g)^2 = x^4, so all eight x^h g have order 4; center {1, x^4}.
    # x goes to any of the four elements of order 8, all in <x>, and g to any
    # of the eight x^h g: 32.
    "Q16": (
        lambda: sb.groups._extension(sb.cyclic(8), 2, inversion(8), 4),
        {1: 1, 2: 1, 4: 10, 8: 4}, 2, 32, 80,
    ),
    # SD16: (x^h g)^2 = x^(h + 3h) = x^4h, order 2 for even h and 4 for odd h;
    # 3h = h (mod 8) only for h = 0, 4. x goes to any of the four elements of
    # order 8, all in <x>, and g to any of the four involutions x^2k g: 16.
    "SD16": (
        lambda: sb.groups._extension(sb.cyclic(8), 2, [3 * x % 8 for x in range(8)]),
        {1: 1, 2: 5, 4: 6, 8: 4}, 2, 16, 144,
    ),
    # M16: (x^h g)^2 = x^6h, so x^h g has order 2 for h = 0, 4, order 4 for
    # h = 2, 6 and order 8 for odd h; 5h = h (mod 8) for every even h. x goes
    # to any of the eight elements of order 8 and g to one of the two
    # non-central involutions g, x^4 g: 16.
    "M16": (
        lambda: sb.groups._extension(sb.cyclic(8), 2, [5 * x % 8 for x in range(8)]),
        {1: 1, 2: 3, 4: 4, 8: 8}, 4, 16, 66,
    ),
    # C4 x| C4: g^2 is central, (x^h g^2)^2 = x^2h and (x^h g^a)^2 = g^2 for
    # odd a, so the involutions are x^2, g^2, x^2 g^2, which with 1 are the
    # center. |Aut| = 32, the order of Aut(SmallGroup(16, 4)).
    "C4:C4": (
        lambda: sb.groups._extension(sb.cyclic(4), 4, inversion(4)),
        {1: 1, 2: 3, 4: 12}, 4, 32, 190,
    ),
    # C2^2 x| C4, tau swapping the two factors of V4 (index a + 2b): g^2 is
    # central and (v g^2)^2 = 1, so the eight v g^a with a even are 1 and the
    # seven involutions, and the eight with a odd have order 4; the center is
    # {0, 3} x {1, g^2}. |Aut| = 32, the order of Aut(SmallGroup(16, 3)).
    "C2^2:C4": (
        lambda: sb.groups._extension(sb.builtin_group("V4"), 4, (0, 2, 1, 3)),
        {1: 1, 2: 7, 4: 8}, 4, 32, 191,
    ),
    # C4 o D4 on C4 x C2 (index a + 4b), tau (a, b) -> (a + 2b, b): the base
    # has three involutions, and (h g)^2 = h tau(h) = (2a + 2b, 0) is 1 for the
    # four h with a + b even; the center is the fixed C4. Aut(C4 o D4) is
    # C2 x S4, of order 48.
    "C4oD4": (
        lambda: sb.groups._extension(
            sb.direct_product(sb.cyclic(4), sb.cyclic(2)),
            2,
            [(a + 2 * b) % 4 + 4 * b for b in range(2) for a in range(4)],
        ),
        {1: 1, 2: 7, 4: 8}, 4, 48, 152,
    ),
}


@pytest.mark.parametrize("name", sorted(EXTENSION_GROUPS))
def test_extension_groups_have_their_invariants(name):
    build, element_orders, center, aut_order, _ = EXTENSION_GROUPS[name]
    g = build()
    assert sb.validate_group([list(row) for row in g.mul]) == g
    orders = [len(sb.subgroup_closure(g, (x,))) for x in g.elements()]
    assert {k: orders.count(k) for k in sorted(set(orders))} == element_orders
    assert len(sb.center(g)) == center
    assert len(automorphism_group(g)) == aut_order


def test_published_class_counts_of_orders_12_and_16():
    """Guarnieri-Vendramin count 38 skew braces of order 12 and 1,605 of
    order 16, up to isomorphism. Dic3 completes order 12 with the four
    builtin groups; the six extension groups of order 16 give the 823 that
    the eight builtin groups (782 classes) leave."""
    got = {name: iso_class_count(entry[0]()) for name, entry in EXTENSION_GROUPS.items()}
    assert got == {name: entry[4] for name, entry in EXTENSION_GROUPS.items()}
    order12 = ["C12", "C2xC6", "A4", "D6"]
    assert [iso_class_count(sb.builtin_group(name)) for name in order12] == [5, 5, 8, 10]
    assert got["Dic3"] + 5 + 5 + 8 + 10 == 38
    assert sum(got.values()) - got["Dic3"] == 823 == 1605 - 782


def test_iso_class_counts_small(groups):
    assert iso_class_count(groups["C4"]) + iso_class_count(groups["V4"]) == 4
    assert iso_class_count(groups["C6"]) + iso_class_count(groups["S3"]) == 6


def unpruned_enumeration(g: sb.GroupTable) -> list[sb.TableBrace]:
    """The lambda-map search without the stabilizer split: the full
    composition table up front and every choice at every node, the root
    included."""
    n = g.order
    auts = automorphism_group(g)
    aut_index = {a: i for i, a in enumerate(auts)}
    compose = [
        [aut_index[tuple(a[b[x]] for x in range(n))] for b in auts] for a in auts
    ]
    mul = g.mul

    def propagate(lam, fresh):
        while fresh:
            a = fresh.pop()
            for b in range(n):
                if lam[b] is None:
                    continue
                for x, y in ((a, b), (b, a)):
                    z = mul[x][auts[lam[x]][y]]
                    lz = compose[lam[x]][lam[y]]
                    if lam[z] is None:
                        lam[z] = lz
                        fresh.append(z)
                    elif lam[z] != lz:
                        return False
        return True

    start = [None] * n
    start[0] = aut_index[tuple(range(n))]
    stack = [start] if propagate(start, [0]) else []
    braces = []
    while stack:
        lam = stack.pop()
        free = next((x for x in range(n) if lam[x] is None), None)
        if free is None:
            circ = [[mul[a][x] for x in auts[lam[a]]] for a in range(n)]
            braces.append(sb.TableBrace(g, GroupTable.from_trusted(circ)))
            continue
        for choice in range(len(auts)):
            trial = list(lam)
            trial[free] = choice
            if propagate(trial, [free]):
                stack.append(trial)
    braces.sort(key=lambda b: b.circ_group.mul)
    return braces


ORACLE_MAX_ORDER = 6


def _all_group_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every group table on 0..n-1 with identity 0, by cell backtracking
    with Latin and incremental associativity pruning."""
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]
    table = [[-1] * n for _ in range(n)]
    for x in range(n):
        table[0][x] = x
        table[x][0] = x
    # Row x already holds x (column 0); column b already holds b (row 0).
    row_used = [{x} for x in range(n)]
    col_used = [{b} for b in range(n)]
    results: list[tuple[tuple[int, ...], ...]] = []

    def assoc_ok(a: int, b: int) -> bool:
        t = table
        for c in range(n):
            ab = t[a][b]
            bc = t[b][c]
            if bc >= 0 and t[a][bc] >= 0 and t[ab][c] >= 0 and t[ab][c] != t[a][bc]:
                return False
            xa = t[c][a]
            if xa >= 0 and t[xa][b] >= 0 and t[c][ab] >= 0 and t[xa][b] != t[c][ab]:
                return False
        return True

    def fill(i: int) -> None:
        if i == len(cells):
            results.append(tuple(tuple(row) for row in table))
            return
        a, b = cells[i]
        for v in range(n):
            if v in row_used[a] or v in col_used[b]:
                continue
            table[a][b] = v
            row_used[a].add(v)
            col_used[b].add(v)
            if assoc_ok(a, b):
                fill(i + 1)
            table[a][b] = -1
            row_used[a].remove(v)
            col_used[b].remove(v)

    fill(0)
    return [t for t in results if _fully_associative(t, n)]


def _fully_associative(t: tuple[tuple[int, ...], ...], n: int) -> bool:
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[a][t[b][c]]:
                    return False
    return True


def brute_force_oracle(g: GroupTable) -> list[sb.TableBrace]:
    """Independent oracle for `enumerate_braces`: filter every
    identity-sharing group table by the brace relation.

    Also closes the table list under relabelings fixing 0 as a completeness
    self-check before filtering.
    """
    n = g.order
    if n > ORACLE_MAX_ORDER:
        raise errors.TooLarge(f"oracle capped at order {ORACLE_MAX_ORDER}")
    tables = set(_all_group_tables(n))
    for t in list(tables):
        for perm_rest in itertools.permutations(range(1, n)):
            sigma = (0,) + perm_rest
            inv = [0] * n
            for i, s in enumerate(sigma):
                inv[s] = i
            relabeled = tuple(
                tuple(inv[t[sigma[a]][sigma[b]]] for b in range(n)) for a in range(n)
            )
            if relabeled not in tables:
                raise AssertionError("oracle table set is not relabel-closed")

    mul, dinv, carrier = g.mul, g.inv, range(n)
    return [
        sb.validate_brace(g, sb.validate_group(t))
        for t in sorted(tables)
        if all(
            t[a][mul[b][c]] == mul[mul[t[a][b]][dinv[a]]][t[a][c]]
            for a in carrier
            for b in carrier
            for c in carrier
        )
    ]


@pytest.mark.parametrize("name", PRUNING_GROUPS + ["C16", "C2xC8", "D8", "Dic3"])
def test_pruned_enumeration_matches_unpruned(name):
    g = EXTENSION_GROUPS[name][0]() if name in EXTENSION_GROUPS else sb.builtin_group(name)
    pruned = enumerate_braces(g, max_order=16)
    assert [b.circ_group for b in pruned] == [b.circ_group for b in unpruned_enumeration(g)]
    assert all(b.dot_group == g for b in pruned)


def test_enumeration_closed_under_automorphisms(groups):
    """B -> B^sigma, a o' b = sigma(sigma^-1(a) o sigma^-1(b)), permutes the
    braces on A for every sigma in Aut(A)."""
    g = groups["C2xC2xC2"]
    n = g.order
    tables = {b.circ_group.mul for b in enumerate_braces(g)}
    assert len(tables) == 232
    for sigma in automorphism_group(g):
        inv = [0] * n
        for x, image in enumerate(sigma):
            inv[image] = x
        for t in tables:
            moved = tuple(
                tuple(sigma[t[inv[a]][inv[b]]] for b in range(n)) for a in range(n)
            )
            assert moved in tables


@pytest.mark.parametrize("name,count", sorted(ORDER16_COUNTS.items()))
def test_order16_labeled_counts(name, count):
    assert len(enumerate_braces(sb.builtin_group(name), max_order=16)) == count
