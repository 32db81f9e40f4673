"""Ideals, closures, star subgroups, quotient braces, the ideal commutator."""

from __future__ import annotations

import random

import pytest

import skewbrace as sb
from skewbrace import errors
from skewbrace.groups import all_subgroups, make_set
from skewbrace.substructures import commutators


def two_element_subgroup(g: sb.GroupTable) -> sb.ElementSet:
    x = next(e for e in range(1, g.order) if g.mul[e][e] == 0)
    return sb.subgroup_closure(g, {x})


def test_pq_c3_is_ideal():
    brace = sb.make_pq_brace(3, 2, 2, "i")
    c3 = make_set({0, 1, 2}, 6)
    assert sb.is_left_ideal(brace, c3)
    assert sb.is_ideal(brace, c3)
    assert sb.is_subbrace(brace, c3)


def test_trivial_brace_left_ideals_are_subgroups(groups):
    brace = sb.build_trivial(groups["S3"])
    s = two_element_subgroup(groups["S3"])
    assert sb.is_left_ideal(brace, s)
    assert sb.is_subbrace(brace, s)
    assert not sb.is_ideal(brace, s)


def test_almost_trivial_left_ideals_are_normal_subgroups(groups):
    brace = sb.build_almost_trivial(groups["S3"])
    s = two_element_subgroup(groups["S3"])
    assert not sb.is_left_ideal(brace, s)
    c3 = sb.subgroup_closure(groups["S3"], {next(x for x in range(1, 6) if len(sb.subgroup_closure(groups['S3'], {x})) == 3)})
    assert sb.is_left_ideal(brace, c3)
    assert sb.is_ideal(brace, c3)


def test_left_ideal_implies_subbrace(catalog):
    for name, brace in catalog:
        if brace.order > 64 or brace.backing != "table":
            continue
        for s in sb.groups.all_subgroups(brace.dot_group):
            if sb.is_left_ideal(brace, s):
                assert sb.is_subbrace(brace, s), name


def test_coset_agreement_everywhere(catalog):
    for name, brace in catalog:
        if brace.order > 64 or brace.backing != "table":
            continue
        for s in sb.groups.all_subgroups(brace.dot_group):
            if not sb.is_left_ideal(brace, s):
                continue
            for a in brace.elements():
                assert sb.coset_agreement(brace, s, a), (name, a)


def test_coset_agreement_rejects_non_left_ideal(groups):
    brace = sb.build_almost_trivial(groups["S3"])
    s = two_element_subgroup(groups["S3"])
    with pytest.raises(errors.NotALeftIdeal):
        sb.coset_agreement(brace, s, 1)


def test_star_subgroup_pq_values():
    brace = sb.make_pq_brace(3, 2, 2, "i")
    whole = sb.groups.full_set(6)
    c3 = make_set({0, 1, 2}, 6)
    assert sb.star_subgroup(brace, whole, whole).sorted() == [0, 1, 2]
    assert sb.star_subgroup(brace, c3, whole).sorted() == [0]
    assert sb.star_subgroup(brace, whole, c3).sorted() == [0, 1, 2]


def test_star_subgroup_trivial(groups):
    brace = sb.build_trivial(groups["S3"])
    whole = sb.groups.full_set(6)
    assert sb.star_subgroup(brace, whole, whole).sorted() == [0]


def test_ideal_closure_empty():
    brace = sb.make_pq_brace(3, 2, 2, "i")
    assert sb.ideal_closure(brace, set()).sorted() == [0]


def test_ideal_closure_transposition_normal_closure(groups):
    g = groups["S3"]
    brace = sb.build_trivial(g)
    x = next(e for e in range(1, 6) if g.mul[e][e] == 0)
    assert sb.ideal_closure(brace, {x}).sorted() == list(range(6))


def test_ideal_closure_pq():
    brace = sb.make_pq_brace(3, 2, 2, "i")
    assert sb.ideal_closure(brace, {1}).sorted() == [0, 1, 2]


def test_ideal_closure_is_an_ideal(catalog):
    for name, brace in catalog:
        if brace.order > 21 or brace.backing != "table":
            continue
        for seed in range(brace.order):
            closed = sb.ideal_closure(brace, {seed})
            assert sb.is_ideal(brace, closed), name


def alternating_closure(brace, seed) -> sb.ElementSet:
    """The ideal closure by rounds: dot-subgroup closure, then one round of
    lambda images and both conjugations by the generators, until nothing new
    appears."""
    current = sb.subgroup_closure(brace.dot_group, seed)
    while True:
        grown = set(current.members)
        for a in brace.generators():
            for x in current.members:
                grown |= {brace.lam(a, x), brace.conj_dot(a, x), brace.conj_circ(a, x)}
        if grown == current.members:
            return current
        current = sb.subgroup_closure(brace.dot_group, grown)


def test_ideal_closure_matches_alternating_rounds(corpus8, sweep12):
    for name, brace in corpus8 + sweep12:
        for x in brace.elements():
            assert sb.ideal_closure(brace, (x,)) == alternating_closure(brace, (x,)), (name, x)


def test_ideal_closure_matches_alternating_rounds_on_commutator_seeds(corpus8):
    """The seeds `_commutator` closes: the three values on generator pairs of
    every ordered pair of ideals."""
    for name, brace in corpus8:
        ideals = sb.enumerate_ideals(brace)
        for i in ideals:
            for j in ideals:
                seed = {
                    value
                    for x in brace.generators_of(i.members)
                    for y in brace.generators_of(j.members)
                    for value in (brace.comm_dot(x, y), brace.comm_circ(x, y), brace.star(x, y))
                }
                assert sb.ideal_closure(brace, seed) == alternating_closure(brace, seed), name


def test_huq_commutator_pq():
    brace = sb.make_pq_brace(3, 2, 2, "i")
    whole = sb.groups.full_set(6)
    assert sb.huq_commutator(brace, whole, whole).sorted() == [0, 1, 2]


def test_huq_commutator_with_trivial_ideal():
    brace = sb.make_pq_brace(3, 2, 2, "i")
    one = make_set({0}, 6)
    c3 = make_set({0, 1, 2}, 6)
    assert sb.huq_commutator(brace, one, c3).sorted() == [0]


def test_huq_commutator_trivial_brace_abelian(groups):
    brace = sb.build_trivial(groups["C6"])
    whole = sb.groups.full_set(6)
    assert sb.huq_commutator(brace, whole, whole).sorted() == [0]


def test_huq_commutator_rejects_non_ideal(groups):
    brace = sb.build_trivial(groups["S3"])
    with pytest.raises(errors.NotAnIdeal):
        sb.huq_commutator(brace, two_element_subgroup(groups["S3"]), sb.groups.full_set(6))


def test_huq_commutator_symmetry_across_ideal_pairs(catalog, corpus8):
    """The presentation via [I,J], I*J, J*I and the swapped arguments agree
    with huq_commutator on every ideal pair; the library computes only one."""
    tables = [(name, b) for name, b in catalog if b.backing == "table"]
    for name, brace in tables + corpus8:
        ideals = sb.enumerate_ideals(brace)
        for i in ideals:
            for j in ideals:
                left = sb.huq_commutator(brace, i, j)
                right = sb.huq_commutator(brace, j, i)
                assert left.members == right.members, name
                alt = set()
                for x in i.members:
                    for y in j.members:
                        alt |= {brace.comm_dot(x, y), brace.star(x, y), brace.star(y, x)}
                assert sb.ideal_closure(brace, alt) == left, name


def test_huq_commutator_matches_all_pairs(catalog, corpus8, sweep12):
    """Generators of I and J give the ideal closure of the three values on
    every pair of I x J, for every ordered pair of ideals."""
    tables = [(name, b) for name, b in catalog if b.backing == "table"]
    for name, brace in tables + corpus8 + sweep12:
        ideals = sb.enumerate_ideals(brace)
        for i in ideals:
            for j in ideals:
                values = set()
                for x in i.members:
                    for y in j.members:
                        values |= {
                            brace.comm_dot(x, y), brace.comm_circ(x, y), brace.star(x, y)
                        }
                assert sb.huq_commutator(brace, i, j) == sb.ideal_closure(brace, values), name


def test_table_ops_match_generic_forms(catalog, corpus8, sweep12):
    """The table forms of lambda, star, the commutators and the conjugations
    agree with the SkewBrace definitions through dot, circ, inv and bar."""
    tables = [(name, b) for name, b in catalog if b.backing == "table"]
    for name, brace in tables + corpus8 + sweep12:
        for op in ("lam", "star", "comm_dot", "comm_circ", "conj_dot", "conj_circ"):
            fast, generic = getattr(brace, op), getattr(sb.SkewBrace, op)
            for a in brace.elements():
                for c in brace.elements():
                    assert fast(a, c) == generic(brace, a, c), (name, op, a, c)


def test_ideal_predicates_match_whole_carrier(corpus8):
    """Quantifying over generators agrees with quantifying over every element."""
    for name, brace in corpus8:
        carrier = brace.elements()
        for s in sb.groups.all_subgroups(brace.dot_group):
            m = s.members
            left = all(brace.lam(a, x) in m for a in carrier for x in m)
            ideal = left and all(
                brace.conj_dot(a, x) in m and brace.conj_circ(a, x) in m
                for a in carrier
                for x in m
            )
            assert sb.is_left_ideal(brace, s) == left, name
            assert sb.is_ideal(brace, s) == ideal, name


def test_quotient_brace_pq_by_socle():
    brace = sb.make_pq_brace(3, 2, 2, "i")
    q, proj = sb.quotient_brace(brace, make_set({0, 1, 2}, 6))
    assert q.order == 2
    assert q.dot_group.mul == q.circ_group.mul  # a trivial brace
    assert proj[0] == 0


def test_quotient_brace_by_trivial_and_whole():
    brace = sb.make_pq_brace(3, 2, 2, "i")
    q, _ = sb.quotient_brace(brace, make_set({0}, 6))
    assert q.dot_group.mul == brace.dot_group.mul
    assert q.circ_group.mul == brace.circ_group.mul
    q2, _ = sb.quotient_brace(brace, sb.groups.full_set(6))
    assert q2.order == 1


def test_quotient_brace_rejects_non_ideal(groups):
    brace = sb.build_trivial(groups["S3"])
    with pytest.raises(errors.NotAnIdeal):
        sb.quotient_brace(brace, two_element_subgroup(groups["S3"]))


def test_quotient_projection_is_brace_homomorphism(catalog):
    for name, brace in catalog:
        if brace.order > 21 or brace.backing != "table":
            continue
        for ideal in sb.enumerate_ideals(brace):
            q, proj = sb.quotient_brace(brace, ideal)
            for a in brace.elements():
                for b in brace.elements():
                    assert proj[brace.dot(a, b)] == q.dot(proj[a], proj[b]), name
                    assert proj[brace.circ(a, b)] == q.circ(proj[a], proj[b]), name
                    assert proj[brace.star(a, b)] == q.star(proj[a], proj[b]), name


@pytest.mark.parametrize("side", ["dot", "circ"])
def test_commutators_match_all_pairs_sweep(corpus8, sweep12, side):
    """[A, Y] from the generators and a normal closure equals the closure of
    every [a, b] with a in A and b in Y, for every subgroup Y of the group,
    normal or not, and for seeded random subsets."""
    rng = random.Random(side)
    for name, brace in corpus8 + sweep12:
        g = brace.dot_group if side == "dot" else brace.circ_group
        ys = all_subgroups(g) + [
            make_set(rng.sample(range(g.order), k), g.order) for k in range(1, g.order + 1, 3)
        ]
        for y in ys:
            sweep = {g.comm(a, b) for a in g.elements() for b in y.members}
            assert commutators(brace, side, y) == sb.subgroup_closure(g, sweep), (name, y.sorted())
