"""Nilpotency profiles, theorem checkers, inclusions, the Fitting machinery."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewbrace as sb
from skewbrace import errors, groups, series
from skewbrace.groups import full_set, make_set
from tests.conftest import EXTENDED_SWEEP


@pytest.fixture(scope="module")
def pq_i():
    return sb.make_pq_brace(3, 2, 2, "i")


@pytest.fixture(scope="module")
def pq_ii():
    return sb.make_pq_brace(3, 2, 2, "ii")


def test_profile_pq_i(pq_i):
    p = sb.nilpotency_profile(pq_i)
    assert p.left is None
    assert p.right == 2
    assert p.socle == 2
    assert p.annihilator is None
    assert p.add_group_nilpotent == 1
    assert p.mult_group_nilpotent is None


def test_profile_pq_ii(pq_ii):
    p = sb.nilpotency_profile(pq_ii)
    assert p.left == 2
    assert p.right is None
    assert p.socle is None
    assert p.annihilator is None
    assert p.add_group_nilpotent is None
    assert p.mult_group_nilpotent == 1


def test_profile_trivial_centerless(groups):
    p = sb.nilpotency_profile(sb.build_trivial(groups["S3"]))
    assert p.left == 1 and p.right == 1
    assert p.socle is None and p.annihilator is None


def test_profile_trivial_nilpotent(groups):
    p = sb.nilpotency_profile(sb.build_trivial(groups["D4"]))
    assert p.left == 1 and p.right == 1
    assert p.socle == 2 and p.annihilator == 2
    assert p.add_group_nilpotent == 2 and p.mult_group_nilpotent == 2


def test_profile_f5(f5):
    p = sb.nilpotency_profile(f5)
    assert p.left == 4
    assert p.right == 3
    assert p.socle == 4
    assert p.annihilator == 4
    assert p.add_group_nilpotent is not None
    assert p.mult_group_nilpotent is not None


def test_equivalence_theorems_on_catalog(catalog):
    for name, brace in catalog:
        report = sb.check_equivalence_theorems(brace)
        assert report["passed"], (name, report["disagreements"])


def test_cube_theorem_pq_ii_vacuous(pq_ii):
    report = sb.check_cube_right_nilpotency(pq_ii)
    assert report["vacuous"] and report["holds"]
    assert sb.left_series(pq_ii).at(3).is_trivial


def test_cube_theorem_trivial_nilpotent(groups):
    report = sb.check_cube_right_nilpotency(sb.build_trivial(groups["D4"]))
    assert report["hypothesis"] and report["holds"]


def test_inclusion_bad_inputs(pq_i):
    with pytest.raises(errors.BadIndices):
        sb.check_inclusion(pq_i, "E", 2, 2)
    with pytest.raises(errors.BadIndices):
        sb.check_inclusion(pq_i, "X", 2, 0)


def test_inclusion_label_is_one_letter(pq_i):
    """Multi-letter and empty labels are refused, not matched as substrings."""
    for label in ("AB", "EFGH", ""):
        with pytest.raises(errors.BadIndices):
            sb.check_inclusion(pq_i, label, 2, 0)


def test_inclusion_counterexamples_pq(pq_i):
    for label, n, k in (("A", 2, 0), ("B", 2, 0), ("C", 1, 0), ("D", 1, 0)):
        report = sb.check_inclusion(pq_i, label, n, k)
        assert not report["holds"], label
        assert report["lhs"].sorted() == [0, 1, 2], label
        a, b, val = report["witness"]
        assert pq_i.star(a, b) == val and val != 0


def test_inclusion_e_sweep_catalog(catalog):
    for name, brace in catalog:
        for report in sb.check_inclusion_sweep(brace, "E", max_n=5):
            assert report["holds"], (name, report["n"], report["k"])


def test_inclusion_f_fails_on_f5(f5):
    report = sb.check_inclusion(f5, "F", 3, 0)
    assert not report["holds"]
    a, b, val = report["witness"]
    assert f5.star(a, b) == val
    e3 = f5.encode((0, 0, 1, 0), (0, 0, 0, 0))
    e2c = f5.encode((0, 0, 0, 0), (0, 1, 0, 0))
    e1c = f5.encode((0, 0, 0, 0), (1, 0, 0, 0))
    assert (a, b, val) == (e3, e2c, e1c)


def test_inclusions_g_and_h_also_fail_on_f5(f5):
    """The same star pair defeats the right-multiplied annihilator inclusions:
    (e3, 0) lies in A^2 and (0, e2) in Ann_2, with a nontrivial product."""
    for label in "GH":
        report = sb.check_inclusion(f5, label, 2, 0)
        assert not report["holds"], label
        a, b, val = report["witness"]
        assert f5.star(a, b) == val and val != 0


def test_inclusions_g_and_h_hold_on_pq(pq_i):
    for label in "GH":
        for r in sb.check_inclusion_sweep(pq_i, label, max_n=5):
            assert r["holds"]


def test_verify_counterexample_f5():
    report = sb.verify_counterexample_F(5)
    assert report["all_confirmed"]
    assert report["right_2_order"] == 3125
    assert report["right_3_order"] == 25
    assert report["ann_3_order"] == 15625
    assert report["star_value"] == 5**4


def test_verify_counterexample_f7():
    report = sb.verify_counterexample_F(7)
    assert report["all_confirmed"]
    assert report["right_2_order"] == 7**5
    assert report["right_3_order"] == 49


def test_rel_ann_nilpotent_examples(pq_i, groups):
    assert sb.is_rel_ann_nilpotent(pq_i, make_set({0}, 6)) == 1
    assert sb.is_rel_ann_nilpotent(pq_i, make_set({0, 1, 2}, 6)) == 2
    assert sb.is_rel_ann_nilpotent(pq_i, full_set(6)) is None
    d4 = sb.build_trivial(groups["D4"])
    assert sb.is_rel_ann_nilpotent(d4, full_set(8)) == 3  # group class 2, plus one


def restricted_brace(brace: sb.TableBrace, ideal: sb.ElementSet) -> sb.TableBrace:
    """The ideal as a standalone brace, both tables restricted and relabeled."""
    elems = ideal.sorted()
    idx = {x: i for i, x in enumerate(elems)}
    dot = [[idx[brace.dot(a, b)] for b in elems] for a in elems]
    circ = [[idx[brace.circ(a, b)] for b in elems] for a in elems]
    return sb.validate_brace(dot, circ)


def test_rel_ann_implies_standalone(pq_i):
    """A relatively nilpotent ideal is annihilator nilpotent as a brace."""
    for ideal in sb.enumerate_ideals(pq_i):
        if sb.is_rel_ann_nilpotent(pq_i, ideal) is None:
            continue
        standalone = restricted_brace(pq_i, ideal)
        assert sb.nilpotency_profile(standalone).annihilator is not None


def test_ideal_enumeration_capped_at_subgroup_bound():
    """Order 65 is one past groups.SUBGROUPS_MAX_ORDER, the bound
    `all_subgroups` enforces; ideal enumeration refuses it as such."""
    assert sb.groups.SUBGROUPS_MAX_ORDER == 64
    with pytest.raises(errors.TooLargeForIdealEnumeration):
        sb.enumerate_ideals(sb.build_trivial(sb.cyclic(65)))


def test_fitting_ideal_pq(pq_i):
    fit = sb.fitting_ideal(pq_i)
    assert fit.sorted() == [0, 1, 2]
    assert sb.is_rel_ann_nilpotent(pq_i, fit) is not None


def test_fitting_ideal_trivial_nilpotent(groups):
    brace = sb.build_trivial(groups["Q8"])
    assert sb.fitting_ideal(brace).sorted() == list(range(8))


def test_fitting_theorem_examples(pq_i):
    one = make_set({0}, 6)
    c3 = make_set({0, 1, 2}, 6)
    r = sb.check_fitting_theorem(pq_i, one, one)
    assert r["hypothesis_met"] and r["holds"] and r["bound"] == 1
    r = sb.check_fitting_theorem(pq_i, one, c3)
    assert r["holds"] and r["bound"] == 2
    r = sb.check_fitting_theorem(pq_i, c3, c3)
    assert r["holds"] and r["bound"] == 3
    r = sb.check_fitting_theorem(pq_i, full_set(6), c3)
    assert not r["hypothesis_met"] and r["vacuous"]


def fresh(brace: sb.TableBrace) -> sb.TableBrace:
    """The same two tables with an empty cache."""
    return sb.TableBrace(brace.dot_group, brace.circ_group)


def test_cached_ideal_machinery_matches_fresh_braces(catalog, corpus8):
    """After the Fitting loop has filled a brace's cache, every relative
    chain and class, every ideal commutator and the Fitting ideal equal the
    values computed on a brace with an empty cache, one fresh brace per
    value; a non-ideal still raises on every call."""
    tables = [(name, b) for name, b in catalog if b.backing == "table"]
    for name, brace in tables + corpus8:
        ideals = sb.enumerate_ideals(brace)
        assert ideals == sb.enumerate_ideals(fresh(brace)), name
        nil = [i for i in ideals if sb.is_rel_ann_nilpotent(brace, i) is not None]
        for a in range(len(nil)):
            for b in range(a, len(nil)):
                sb.check_fitting_theorem(brace, nil[a], nil[b])
        sb.fitting_ideal(brace)

        for i in ideals:
            chain = sb.relative_gamma_series(brace, i)
            assert chain == sb.relative_gamma_series(fresh(brace), i), name
            assert sb.is_rel_ann_nilpotent(brace, i) == sb.is_rel_ann_nilpotent(fresh(brace), i)
            for j in ideals:
                warm = sb.huq_commutator(brace, i, j)
                assert warm == sb.huq_commutator(fresh(brace), i, j), name
        assert sb.fitting_ideal(brace) == sb.fitting_ideal(fresh(brace)), name

        members = {i.members for i in ideals}
        for s in sb.groups.all_subgroups(brace.dot_group):
            if s.members in members:
                continue
            for _ in range(2):
                with pytest.raises(errors.NotAnIdeal):
                    sb.relative_gamma_series(brace, s)


def table_braces(catalog, corpus8, sweep12) -> list[tuple[str, sb.TableBrace]]:
    """The catalog's table braces, every brace of order <= 8 and of 9 to 12."""
    return [(n, b) for n, b in catalog if b.backing == "table"] + corpus8 + sweep12


def test_enumerate_ideals_matches_subgroup_filter(catalog, corpus8, sweep12):
    """The ideal list is exactly the subgroups of (A, .) that pass
    `is_ideal`, in the same order."""
    for name, brace in table_braces(catalog, corpus8, sweep12):
        oracle = [s for s in sb.groups.all_subgroups(brace.dot_group) if sb.is_ideal(brace, s)]
        assert sb.enumerate_ideals(brace) == oracle, name


def product_of_ideals(brace: sb.TableBrace, i: sb.ElementSet, j: sb.ElementSet) -> sb.ElementSet:
    """The setwise product IJ, which for ideals is the ideal they generate."""
    return make_set({brace.dot(a, b) for a in i.members for b in j.members}, brace.order)


def principal_ideal_joins(brace: sb.TableBrace) -> list[sb.ElementSet]:
    """Every ideal, sorted by (order, members), as {1} closed under joins
    (products) with the principal ideals: an ideal is the join of the
    principal ideals of its elements. Each principal ideal is a worklist
    closure on a brace with an empty cache."""
    brace = fresh(brace)
    principal = {}
    for x in brace.elements():
        p = sb.ideal_closure(brace, (x,))
        principal.setdefault(p.members, p)
    start = make_set({0}, brace.order)
    found, queue = {start.members: start}, [start]
    while queue:
        i = queue.pop()
        for p in principal.values():
            if not p.members <= i.members:
                join = product_of_ideals(brace, i, p)
                if join.members not in found:
                    found[join.members] = join
                    queue.append(join)
    return sorted(found.values(), key=lambda s: (len(s), s.sorted()))


def test_enumerate_ideals_matches_principal_ideal_joins(catalog, corpus8, sweep12):
    """The ideal list equals the per-brace principal-ideal joins, in order,
    on every table brace of the tests and two braces of order 32."""
    extra = [
        ("trivial C2^5", sb.build_trivial(sb.builtin_group("C2xC2xC2xC2xC2"))),
        ("almost_trivial D16", sb.build_almost_trivial(sb.dihedral(16))),
    ]
    for name, brace in table_braces(catalog, corpus8, sweep12) + extra:
        assert sb.enumerate_ideals(brace) == principal_ideal_joins(brace), name


def test_listed_ideal_closures_match_the_worklist(catalog, corpus8, sweep12):
    """Once the ideals are listed, an ideal closure is a lookup. It equals the
    worklist closure on a brace with an empty cache for every one-element
    seed, and for the union of every pair of listed ideals, where it is also
    their product."""
    for name, brace in table_braces(catalog, corpus8, sweep12):
        ideals, cold = sb.enumerate_ideals(brace), fresh(brace)
        for x in brace.elements():
            assert sb.ideal_closure(brace, (x,)) == sb.ideal_closure(cold, (x,)), (name, x)
        for i in ideals:
            for j in ideals:
                join = sb.ideal_closure(brace, i.members | j.members)
                assert join == sb.ideal_closure(cold, i.members | j.members), name
                assert join == product_of_ideals(brace, i, j), name
        assert "ideals" not in cold._cache


def test_warm_star_subgroups_match_fresh_braces(catalog, corpus8, sweep12):
    """After the profile, the theorem checks and the (E) sweep have filled
    the cache, the star subgroup of every ordered pair of series terms
    equals the one computed on a brace with an empty cache."""
    for name, brace in table_braces(catalog, corpus8, sweep12):
        sb.check_equivalence_theorems(brace)
        sb.check_inclusion_sweep(brace, "E", max_n=4)
        terms = {t.members: t for fn in series.ALL_SERIES.values() for t in fn(brace).terms}
        terms = list(terms.values())
        for x in terms:
            for y in terms:
                assert sb.star_subgroup(brace, x, y) == sb.star_subgroup(fresh(brace), x, y), name


def test_star_subgroup_refusal_is_not_cached(monkeypatch, pq_i):
    brace, whole = fresh(pq_i), full_set(6)
    monkeypatch.setattr(groups, "TABLE_CAP", 35)
    for _ in range(2):
        with pytest.raises(errors.TooLarge):
            sb.star_subgroup(brace, whole, whole)
    monkeypatch.undo()
    assert sb.star_subgroup(brace, whole, whole).sorted() == [0, 1, 2]


def test_enumerate_ideals_returns_a_fresh_list(pq_i):
    first = sb.enumerate_ideals(pq_i)
    first.clear()
    assert len(sb.enumerate_ideals(pq_i)) == 3


def relabeled(brace: sb.TableBrace, sigma: tuple[int, ...]) -> sb.TableBrace:
    """The brace carried to new labels by sigma, which fixes 0."""
    n = brace.order

    def table(g):
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                rows[sigma[a]][sigma[b]] = sigma[g.mul[a][b]]
        return rows

    return sb.validate_brace(table(brace.dot_group), table(brace.circ_group))


def relative_classes(brace: sb.TableBrace) -> Counter:
    return Counter(sb.is_rel_ann_nilpotent(brace, i) for i in sb.enumerate_ideals(brace))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_relabeling_preserves_profile_and_fitting_data(corpus8, data):
    """Profile, relative classes and Fitting order are isomorphism invariants."""
    name, brace = data.draw(st.sampled_from(corpus8))
    rest = data.draw(st.permutations(range(1, brace.order)))
    image = relabeled(brace, (0, *rest))
    assert sb.nilpotency_profile(image) == sb.nilpotency_profile(brace), name
    assert relative_classes(image) == relative_classes(brace), name
    assert len(sb.fitting_ideal(image)) == len(sb.fitting_ideal(brace)), name


def test_theorems_on_orders_nine_to_twelve():
    """Wider sweep past the oracle-gated corpus; counts frozen as regression."""
    for name, expected in EXTENDED_SWEEP.items():
        braces = sb.enumerate_braces(sb.builtin_group(name), max_order=12)
        assert len(braces) == expected, name
        for brace in braces:
            assert sb.check_equivalence_theorems(brace)["passed"], name
            assert sb.check_cube_right_nilpotency(brace)["holds"], name
            for r in sb.check_inclusion_sweep(brace, "E", max_n=4):
                assert r["holds"], name


def test_one_directional_nilpotency_chain(catalog):
    """annihilator => socle => right with nilpotent additive group."""
    for name, brace in catalog:
        p = sb.nilpotency_profile(brace)
        if p.annihilator is not None:
            assert p.socle is not None, name
        if p.socle is not None:
            assert p.right is not None and p.add_group_nilpotent is not None, name
