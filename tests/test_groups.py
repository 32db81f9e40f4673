"""Group-table machinery: validation, closures, quotients, central series."""

from __future__ import annotations

import itertools
import random

import pytest

import skewbrace as sb
from skewbrace import errors

Z2 = [[0, 1], [1, 0]]


def c3xc2_table():
    return [
        [sb.direct_product(sb.cyclic(3), sb.cyclic(2)).mul[a][b] for b in range(6)]
        for a in range(6)
    ]


def naive_closure(g: sb.GroupTable, gens) -> set[int]:
    """Independent oracle: grow the set by all pairwise products to fixpoint."""
    out = set(gens) | {0}
    while True:
        grown = set(out)
        for a in out:
            for b in out:
                grown.add(g.mul[a][b])
        if grown == out:
            return out
        out = grown


def test_validate_group_z2():
    g = sb.validate_group(Z2)
    assert g.order == 2
    assert g.inv == (0, 1)


def test_validate_group_direct_product_abelian():
    g = sb.validate_group(c3xc2_table())
    assert g.order == 6
    assert g.is_abelian()


def test_validate_group_no_inverse():
    with pytest.raises(errors.NoInverse) as info:
        sb.validate_group([[0, 1, 2], [1, 1, 2], [2, 2, 1]])
    assert info.value.element == 1


def scanned_inverses(table, n):
    """Oracle for `groups._inverse_row`: the first y with x.y = y.x = 0, or
    NoInverse(x) for the first x without one."""
    inv = []
    for x in range(n):
        y = next((y for y in range(n) if table[x][y] == 0 == table[y][x]), None)
        if y is None:
            raise errors.NoInverse(x)
        inv.append(y)
    return tuple(inv)


def test_inverse_row_skips_a_one_sided_first_zero():
    """Row 1 has its first 0 at column 2, but 2.1 = 1; the inverse is the
    later two-sided zero at 3, as the scan finds it."""
    t = ((0, 1, 2, 3), (1, 2, 0, 0), (2, 1, 3, 0), (3, 0, 0, 1))
    assert sb.groups._inverse_row(t, 4) == scanned_inverses(t, 4) == (0, 3, 3, 1)


def test_inverse_row_matches_the_scan_on_random_tables():
    rng = random.Random(33)
    for _ in range(2000):
        n = rng.randrange(1, 6)
        t = tuple(
            tuple(x if a == 0 else a if x == 0 else rng.choice((0, 0, rng.randrange(n))) for x in range(n))
            for a in range(n)
        )
        try:
            want = scanned_inverses(t, n)
        except errors.NoInverse as exc:
            with pytest.raises(errors.NoInverse) as info:
                sb.groups._inverse_row(t, n)
            assert info.value.element == exc.element
        else:
            assert sb.groups._inverse_row(t, n) == want


def test_validate_group_no_identity():
    with pytest.raises(errors.NoIdentity):
        sb.validate_group([[1, 1], [1, 1]])


def test_validate_group_not_associative():
    with pytest.raises(errors.NotAssociative) as info:
        sb.validate_group([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    assert len(info.value.witness) == 3


def test_validate_group_relabels_identity():
    g = sb.validate_group([[1, 0], [0, 1]])
    assert g.mul[0] == (0, 1)
    assert g.mul[0][0] == 0


def test_validate_group_rows_are_permutations(groups):
    for g in groups.values():
        for row in g.mul:
            assert sorted(row) == list(range(g.order))
        for j in range(g.order):
            assert sorted(row[j] for row in g.mul) == list(range(g.order))


def reduced_latin_squares(n):
    """Every n x n Latin square whose row 0 and column 0 are 0, 1, ..., n-1."""
    table = [[x if a == 0 else a if x == 0 else -1 for x in range(n)] for a in range(n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(i):
        if i == len(cells):
            yield [list(row) for row in table]
            return
        a, b = cells[i]
        used = set(table[a]) | {table[r][b] for r in range(n)}
        for v in range(n):
            if v not in used:
                table[a][b] = v
                yield from fill(i + 1)
        table[a][b] = -1

    yield from fill(0)


def random_tables(n, count, rng):
    """Identity-at-0 tables with two-sided inverses planted by a random
    involution and the other entries uniform, so mostly not Latin."""
    for _ in range(count):
        t = [
            [x if a == 0 else a if x == 0 else rng.randrange(n) for x in range(n)]
            for a in range(n)
        ]
        rest = rng.sample(range(1, n), n - 1)
        while rest:
            x = rest.pop()
            y = rest.pop() if rest and rng.random() < 0.5 else x
            t[x][y] = t[y][x] = 0
        yield t


def _assoc_fails(t, x, y, z):
    return t[t[x][y]][z] != t[x][t[y][z]]


def test_light_test_matches_exhaustive_check():
    """validate_group, which tests associativity on generators only, accepts
    exactly the identity-at-0 tables that are associative on every triple
    and have two-sided inverses; each NotAssociative witness is a real one."""
    rng = random.Random(11)
    counts = {"latin": 0, "groups": 0}
    for n in range(1, 7):
        latin = list(reduced_latin_squares(n))
        counts["latin"] += len(latin)
        for kind, tables in (("latin", latin), ("random", random_tables(n, 400, rng))):
            for t in tables:
                carrier = range(n)
                exhaustive = all(
                    any(t[x][y] == 0 == t[y][x] for y in carrier) for x in carrier
                ) and not any(
                    _assoc_fails(t, *w) for w in itertools.product(carrier, repeat=3)
                )
                try:
                    g = sb.validate_group(t)
                    accepted = True
                except errors.NotAssociative as exc:
                    assert _assoc_fails(t, *exc.witness), t
                    accepted = False
                except errors.NoInverse:
                    accepted = False
                assert accepted == exhaustive, t
                if accepted:
                    assert g.mul == tuple(map(tuple, t))
                    counts["groups"] += kind == "latin"
    assert counts == {"latin": 1 + 1 + 1 + 4 + 56 + 9408, "groups": 93}


def test_subgroup_closure_cyclic_part(groups):
    g = groups["C3xC2"]
    closed = sb.subgroup_closure(g, {1})
    assert closed.sorted() == [0, 1, 2]


def test_subgroup_closure_empty(groups):
    assert sb.subgroup_closure(groups["C3xC2"], set()).sorted() == [0]


def test_subgroup_closure_s3_two_gens_whole(groups):
    g = groups["S3"]
    orders = {x: len(sb.subgroup_closure(g, {x})) for x in g.elements()}
    two = next(x for x, o in orders.items() if o == 2)
    three = next(x for x, o in orders.items() if o == 3)
    closed = sb.subgroup_closure(g, {two, three})
    assert closed.sorted() == list(range(6))
    assert set(closed.members) == naive_closure(g, {two, three})


def test_subgroup_closure_matches_naive_oracle(groups):
    g = groups["D4"]
    for gens in itertools.combinations(range(8), 2):
        assert set(sb.subgroup_closure(g, gens).members) == naive_closure(g, gens)


def test_is_normal(groups):
    g = groups["C3xC2"]
    assert sb.is_normal(g, sb.subgroup_closure(g, {1}))
    s3 = groups["S3"]
    two = next(x for x in range(1, 6) if s3.mul[x][x] == 0)
    assert not sb.is_normal(s3, sb.subgroup_closure(s3, {two}))
    assert sb.is_normal(s3, sb.subgroup_closure(s3, set()))


def test_is_normal_rejects_non_subgroup(groups):
    with pytest.raises(errors.NotASubgroup):
        sb.is_normal(groups["S3"], sb.groups.make_set({1, 2}, 6))


def test_quotient_by_c3(groups):
    g = groups["C3xC2"]
    q, proj = sb.quotient_group(g, sb.subgroup_closure(g, {1}))
    assert q.order == 2
    assert proj[0] == 0


def test_quotient_by_trivial_is_same_table(groups):
    g = groups["S3"]
    q, proj = sb.quotient_group(g, sb.subgroup_closure(g, set()))
    assert q.mul == g.mul
    assert proj == tuple(range(6))


def test_quotient_by_whole_group(groups):
    g = groups["S3"]
    q, _ = sb.quotient_group(g, sb.groups.full_set(6))
    assert q.order == 1


def test_quotient_requires_normal(groups):
    s3 = groups["S3"]
    two = next(x for x in range(1, 6) if s3.mul[x][x] == 0)
    with pytest.raises(errors.NotNormal):
        sb.quotient_group(s3, sb.subgroup_closure(s3, {two}))


def test_center(groups):
    assert sb.center(groups["C3xC2"]).sorted() == list(range(6))
    assert sb.center(groups["S3"]).sorted() == [0]
    d4 = groups["D4"]
    manual = [
        x
        for x in d4.elements()
        if all(d4.mul[x][a] == d4.mul[a][x] for a in d4.elements())
    ]
    assert sb.center(d4).sorted() == manual
    assert len(manual) == 2


def test_commutator_set_s3(groups):
    g = groups["S3"]
    whole = sb.groups.full_set(6)
    comm = sb.commutator_set(g, whole, whole)
    brute = naive_closure(g, {g.comm(a, b) for a in range(6) for b in range(6)})
    assert set(comm.members) == brute
    assert len(comm) == 3


SMALL_BUILTINS = [f"C{n}" for n in range(1, 17)] + [f"D{n}" for n in range(3, 9)] + (
    "V4 Q8 C2xC4 C2xC2xC2 C3xC3 C2xC6 A4 C2xC8 C4xC4 C2xD4 C2xQ8 C2xC2xC4 C2xC2xC2xC2"
).split()


def test_commutator_on_generators_matches_all_pairs():
    """[G, N] from generators of G against the closure of every [a, b], a in
    G and b in N, for each normal subgroup N of the builtin groups of order
    <= 16 and three larger ones; normality is swept here too."""
    checked = 0
    for name in SMALL_BUILTINS + ["S4", "C2xA4", "S3xS3"]:
        g = sb.builtin_group(name)
        gens = sb.groups.greedy_generators(g)
        for n in sb.groups.all_subgroups(g):
            normal = all(g.conj(x, a) in n.members for x in g.elements() for a in n.members)
            assert sb.is_normal(g, n) == normal
            if normal:
                expected = naive_closure(g, {g.comm(a, b) for a in g.elements() for b in n})
                assert set(sb.commutator_set(g, gens, n).members) == expected
                checked += 1
    assert checked == 311


def repeated_closure_generators(g, gens=(), pool=None):
    """Reference: re-close after each generator added, as greedy generating
    sets were once built."""
    gens = list(gens)
    closed = naive_closure(g, gens)
    for x in g.elements() if pool is None else pool:
        if x not in closed:
            gens.append(x)
            closed = naive_closure(g, gens)
    return gens


def test_greedy_generators_match_repeated_closure(groups):
    rng = random.Random(20)
    for g in groups.values():
        assert sb.groups.greedy_generators(g) == repeated_closure_generators(g)
        for _ in range(20):
            gens = rng.sample(range(g.order), rng.randint(0, min(3, g.order)))
            if gens:  # redundant: a product of given generators, and a repeat
                gens += [g.mul[gens[0]][gens[-1]], gens[0]]
            pool = rng.sample(range(g.order), rng.randint(0, g.order))
            expected = repeated_closure_generators(g, gens, pool)
            assert sb.groups.greedy_generators(g, gens, pool) == expected
            assert sb.groups.greedy_generators(g, gens, pool)[: len(gens)] == gens


def test_lower_central_series_abelian(groups):
    chain = sb.lower_central_series(groups["C6"])
    assert [t.sorted() for t in chain.terms] == [list(range(6)), [0]]
    assert chain.reaches_terminal


def test_series_s3(groups):
    low = sb.lower_central_series(groups["S3"])
    assert [len(t) for t in low.terms] == [6, 3, 3]
    assert not low.reaches_terminal
    up = sb.upper_central_series(groups["S3"])
    assert [len(t) for t in up.terms] == [1, 1]
    assert not up.reaches_terminal


def test_upper_series_matches_quotient_oracle(groups):
    """Lifted predicate vs explicit quotient-and-center computation."""
    for name, g in groups.items():
        if g.order > 16:
            continue
        chain = sb.upper_central_series(g)
        prev = sb.subgroup_closure(g, set())
        for term in chain.terms[1:]:
            q, proj = sb.quotient_group(g, prev)
            zq = set(sb.center(q).members)
            expected = {x for x in g.elements() if proj[x] in zq}
            assert set(term.members) == expected, name
            prev = term


def test_upper_series_on_generators_matches_carrier_sweep():
    """The upper central series, its lifted step over `greedy_generators`,
    against the same chain with the step sweeping every element."""
    for name in (
        "C2 C3 C4 C5 C6 C7 C8 C9 C10 C12 V4 S3 C2xC4 C2xC2xC2 D4 Q8 C3xC3 D5 C2xC6 A4 D6"
    ).split():
        g = sb.builtin_group(name)

        def swept(terms):
            inside = terms[-1].members
            return sb.groups.make_set(
                (x for x in g.elements() if all(g.comm(x, a) in inside for a in g.elements())),
                g.order,
            )

        expected = sb.groups.run_chain(
            "group_upper", sb.groups.trivial_set(g.order), swept, ascending=True
        )
        assert sb.upper_central_series(g) == expected, name


def test_nilpotency_cross_check(groups):
    for name, g in groups.items():
        if g.order > 16:
            continue
        low = sb.lower_central_series(g)
        up = sb.upper_central_series(g)
        assert low.reaches_terminal == up.reaches_terminal, name
        if low.reaches_terminal:
            assert low.terminal_class() - 1 == up.terminal_class(), name


def test_chain_monotone_and_bounded(groups):
    for g in groups.values():
        low = sb.lower_central_series(g)
        for a, b in zip(low.terms, low.terms[1:]):
            assert b.members <= a.members
        assert len(low) <= g.order + 1
        up = sb.upper_central_series(g)
        for a, b in zip(up.terms, up.terms[1:]):
            assert a.members <= b.members


def test_group_central_inclusion_examples(groups):
    assert sb.check_group_central_inclusion(groups["C6"], 3, 1)["holds"]
    assert sb.check_group_central_inclusion(groups["S3"], 1, 0)["holds"]
    assert sb.check_group_central_inclusion(groups["D4"], 2, 1)["holds"]


def test_group_central_inclusion_sweep(groups):
    for name, g in groups.items():
        if g.order > 16:
            continue
        for n in range(1, 4):
            for k in range(n):
                assert sb.check_group_central_inclusion(g, n, k)["holds"], (name, n, k)


def test_group_central_inclusion_bad_indices(groups):
    with pytest.raises(errors.BadIndices):
        sb.check_group_central_inclusion(groups["C6"], 2, 2)


def test_all_subgroups_counts(groups):
    assert len(sb.groups.all_subgroups(groups["S3"])) == 6
    assert len(sb.groups.all_subgroups(groups["C2xC2xC2"])) == 16
    assert len(sb.groups.all_subgroups(groups["Q8"])) == 6


def test_normal_subgroups_match_the_subgroup_filter():
    """The normal-closure joins give exactly the subgroups that pass
    `is_normal`, in the same (order, members) order, on every builtin group of
    order <= 16 and the seven extension groups; a second call reads the
    table's cache and returns a fresh list."""
    from tests.test_enumeration import EXTENSION_GROUPS

    tables = [(name, sb.builtin_group(name)) for name in SMALL_BUILTINS + ["S3", "S4"]]
    tables += [(name, build()) for name, (build, *_) in EXTENSION_GROUPS.items()]
    for name, g in tables:
        oracle = [s for s in sb.groups.all_subgroups(g) if sb.is_normal(g, s)]
        found = sb.groups.normal_subgroups(g)
        assert found == oracle, name
        found.clear()
        assert sb.groups.normal_subgroups(g) == oracle, name


def test_normal_subgroups_capped_at_subgroup_bound():
    with pytest.raises(errors.TooLarge):
        sb.groups.normal_subgroups(sb.cyclic(sb.groups.SUBGROUPS_MAX_ORDER + 1))


def test_builtin_group_names():
    assert sb.builtin_group("C6").order == 6
    assert sb.builtin_group("C2xC3").order == 6
    assert sb.builtin_group("V4").is_abelian()
    assert sb.builtin_group("D4").order == 8
    assert not sb.builtin_group("Q8").is_abelian()
    with pytest.raises(errors.ParseError):
        sb.builtin_group("nope")
    for name in ["C1", "Z5", "D1", "D6", "Q8", "V4", "S1", "S4", "A3", "A5", "V4xC3", "d3 x q8"]:
        assert sb.groups.builtin_order(name) == sb.builtin_group(name).order, name
    assert sb.groups.builtin_order("C10000xD5000") == 10**8
    with pytest.raises(errors.BadParameters):  # S n and A n stop at n = 5
        sb.groups.builtin_order("C2xS6")


def formula_dihedral(n: int) -> sb.GroupTable:
    """D_n from r^i s^e (r^j s^f) = r^(i +- j) s^(e + f), index i + n * e."""

    def mul(x: int, y: int) -> int:
        (e, i), (f, j) = divmod(x, n), divmod(y, n)
        return (i + j if e == 0 else i - j) % n + n * (e ^ f)

    return sb.GroupTable.from_trusted([[mul(x, y) for y in range(2 * n)] for x in range(2 * n)])


def unit_table_quaternion8() -> sb.GroupTable:
    """Q8 from the products of the units 1, i, j, k (value, sign), index
    unit u with sign s -> u + 4s."""
    unit_mul = {
        (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
        (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
        (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
        (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
    }

    def mul(x: int, y: int) -> int:
        (s, u), (t, v) = divmod(x, 4), divmod(y, 4)
        w, extra = unit_mul[(u, v)]
        return w + 4 * ((s + t + extra) % 2)

    return sb.GroupTable.from_trusted([[mul(x, y) for y in range(8)] for x in range(8)])


def test_cyclic_extensions_rebuild_dihedral_and_quaternion_tables():
    """`dihedral` keeps the r^i s^e table, inverse row included. `quaternion8`
    labels i^t j^e as t + 4e, so the unit table's labels are sigma of it:
    1, i, -1, -i, j, k, -j, -k sit at 0, 1, 4, 5, 2, 3, 6, 7 there."""
    for n in range(1, 51):
        assert sb.dihedral(n) == formula_dihedral(n), n
    new, old = sb.quaternion8(), unit_table_quaternion8()
    sigma = (0, 1, 4, 5, 2, 3, 6, 7)
    for a in range(8):
        assert old.inv[sigma[a]] == sigma[new.inv[a]]
        for b in range(8):
            assert old.mul[sigma[a]][sigma[b]] == sigma[new.mul[a][b]]


@pytest.mark.parametrize("ascending", [False, True])
def test_run_chain_raises_algebra_error_when_steps_alternate(ascending):
    a = sb.groups.make_set({0, 1}, 4)
    b = sb.groups.make_set({0, 2}, 4)
    with pytest.raises(errors.AlgebraError, match="failed to stabilize"):
        sb.groups.run_chain("flip", a, lambda terms: b if terms[-1] == a else a, ascending)


@pytest.mark.parametrize("ascending", [False, True])
def test_run_chain_terminal_start_takes_no_step(ascending):
    def step(terms):
        raise AssertionError("a terminal start needs no step")

    one = sb.groups.full_set(1)
    chain = sb.groups.run_chain("k", one, step, ascending)
    start = 0 if ascending else 1
    assert chain.terms == (one,)
    assert (chain.start_index, chain.stabilized_at, chain.reaches_terminal) == (start, start, True)


def test_order_one_chains_are_terminal_at_the_start():
    brace = sb.build_trivial(sb.cyclic(1))
    chains = [
        (sb.lower_central_series(sb.cyclic(1)), 1),
        (sb.upper_central_series(sb.cyclic(1)), 0),
        (sb.left_series(brace), 1),
        (sb.smoktunowicz_series(brace), 1),
        (sb.socle_series(brace), 0),
        (sb.annihilator_series(brace), 0),
    ]
    for chain, start in chains:
        assert len(chain) == 1 and chain.reaches_terminal, chain.kind
        assert chain.start_index == chain.stabilized_at == start, chain.kind
        assert chain.terminal_class() == start, chain.kind
