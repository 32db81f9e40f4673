"""All six brace series, the quotient-based socle variant, and the relative
lower central series, pinned against hand-derived values."""

from __future__ import annotations

import pytest

import skewbrace as sb
from skewbrace import errors, series
from skewbrace.groups import lifted_step, make_set

C3 = [0, 1, 2]
ALL6 = list(range(6))
ONE = [0]


@pytest.fixture(scope="module")
def pq_i():
    return sb.make_pq_brace(3, 2, 2, "i")


@pytest.fixture(scope="module")
def pq_ii():
    return sb.make_pq_brace(3, 2, 2, "ii")


def terms(chain):
    return [t.sorted() for t in chain.terms]


def test_left_series_pq(pq_i, pq_ii):
    assert terms(sb.left_series(pq_i)) == [ALL6, C3, C3]
    assert not sb.left_series(pq_i).reaches_terminal
    assert terms(sb.left_series(pq_ii)) == [ALL6, C3, ONE]
    assert sb.left_series(pq_ii).reaches_terminal


def test_right_series_pq(pq_i, pq_ii):
    assert terms(sb.right_series(pq_i)) == [ALL6, C3, ONE]
    assert sb.right_series(pq_i).reaches_terminal
    assert terms(sb.right_series(pq_ii)) == [ALL6, C3, C3]
    assert not sb.right_series(pq_ii).reaches_terminal


def test_left_series_trivial(groups):
    assert terms(sb.left_series(sb.build_trivial(groups["S3"]))) == [ALL6, ONE]


def test_series_pq_order_21():
    """The q = 3 family behaves like the q = 2 one: C_p then terminal."""
    cp = list(range(7))
    b1 = sb.make_pq_brace(7, 3, 2, "i")
    right = sb.right_series(b1)
    assert [t.sorted() for t in right.terms] == [list(range(21)), cp, [0]]
    left = sb.left_series(b1)
    assert left.terms[1].sorted() == cp and not left.reaches_terminal
    b2 = sb.make_pq_brace(7, 3, 2, "ii")
    assert sb.left_series(b2).reaches_terminal
    assert not sb.right_series(b2).reaches_terminal


def test_smoktunowicz_pq_never_terminal(pq_i, pq_ii):
    for brace in (pq_i, pq_ii):
        chain = sb.smoktunowicz_series(brace)
        assert chain.terms[1].sorted() == C3
        assert not chain.reaches_terminal
        assert chain.terms[-1].sorted() == C3


def test_smoktunowicz_trivial(groups):
    chain = sb.smoktunowicz_series(sb.build_trivial(groups["S3"]))
    assert terms(chain) == [ALL6, ONE]
    assert chain.reaches_terminal


def test_smoktunowicz_monotone(catalog, corpus8):
    for name, brace in list(catalog) + list(corpus8):
        chain = sb.smoktunowicz_series(brace)
        for a, b in zip(chain.terms, chain.terms[1:]):
            assert b.members <= a.members, name


def test_socle_and_annihilator_pq(pq_i):
    assert sb.socle(pq_i).sorted() == C3
    assert sb.annihilator(pq_i).sorted() == ONE


def test_socle_matches_kernel_center_characterization(catalog):
    """Independent oracle: Soc = ker(lambda) intersect Z(dot) elementwise,
    Ann = Soc intersect Z(circ)."""
    for name, brace in catalog:
        if brace.order > 64:
            continue
        kernel = {x for x in brace.elements() if all(brace.lam(x, a) == a for a in brace.elements())}
        z_dot = {
            x
            for x in brace.elements()
            if all(brace.dot(x, a) == brace.dot(a, x) for a in brace.elements())
        }
        z_circ = {
            x
            for x in brace.elements()
            if all(brace.circ(x, a) == brace.circ(a, x) for a in brace.elements())
        }
        assert set(sb.socle(brace).members) == kernel & z_dot, name
        assert set(sb.annihilator(brace).members) == kernel & z_dot & z_circ, name


def test_socle_elements_conjugate_through_lambda(catalog):
    """a o x o bar(a) collapses to lambda_a(x) on socle elements."""
    for name, brace in catalog:
        if brace.order > 64:
            continue
        for x in sb.socle(brace):
            for a in brace.elements():
                assert brace.conj_circ(a, x) == brace.lam(a, x), name


def test_socle_trivial_brace_is_center(groups):
    for name in ("S3", "D4", "C6"):
        brace = sb.build_trivial(groups[name])
        z = sb.center(groups[name]).sorted()
        assert sb.socle(brace).sorted() == z
        assert sb.annihilator(brace).sorted() == z


def test_order_one_brace():
    brace = sb.build_trivial(sb.cyclic(1))
    assert sb.socle(brace).sorted() == [0]
    assert sb.annihilator(brace).sorted() == [0]
    assert terms(sb.left_series(brace)) == [[0]]
    assert sb.left_series(brace).reaches_terminal


def test_socle_series_pq(pq_i, pq_ii):
    chain = sb.socle_series(pq_i)
    assert terms(chain) == [ONE, C3, ALL6]
    assert chain.reaches_terminal and chain.terminal_class() == 2
    chain2 = sb.socle_series(pq_ii)
    assert terms(chain2) == [ONE, ONE]
    assert not chain2.reaches_terminal


def test_annihilator_series_pq(pq_i):
    chain = sb.annihilator_series(pq_i)
    assert terms(chain) == [ONE, ONE]
    assert not chain.reaches_terminal


def test_ascending_series_of_trivial_brace_match_upper_central(groups):
    for name in ("D4", "Q8", "C6", "S3"):
        g = groups[name]
        for build in (sb.build_trivial, sb.build_almost_trivial):
            brace = build(g)
            up = sb.upper_central_series(g)
            soc = sb.socle_series(brace)
            ann = sb.annihilator_series(brace)
            depth = max(len(up), len(soc), len(ann))
            for i in range(depth):
                assert soc.at(i).members == up.at(i).members, name
                assert ann.at(i).members == up.at(i).members, name


def test_lifted_socle_series_matches_quotient_oracle(catalog):
    """Independent oracle: socle of the materialized quotient, pulled back."""
    for name, brace in catalog:
        if brace.backing != "table" or brace.order > 21:
            continue
        chain = sb.socle_series(brace)
        prev = make_set({0}, brace.order)
        for term in chain.terms[1:]:
            q, proj = sb.quotient_brace(brace, prev)
            soc_q = set(sb.socle(q).members)
            expected = {x for x in brace.elements() if proj[x] in soc_q}
            assert set(term.members) == expected, name
            prev = term


def test_lifted_annihilator_series_matches_quotient_oracle(catalog):
    for name, brace in catalog:
        if brace.backing != "table" or brace.order > 21:
            continue
        chain = sb.annihilator_series(brace)
        prev = make_set({0}, brace.order)
        for term in chain.terms[1:]:
            q, proj = sb.quotient_brace(brace, prev)
            ann_q = set(sb.annihilator(q).members)
            expected = {x for x in brace.elements() if proj[x] in ann_q}
            assert set(term.members) == expected, name
            prev = term


def test_lifted_steps_on_generators_match_carrier_sweep(corpus8, sweep12):
    """Each term of the four lifted chains, taken as the previous term: the
    step over `brace.generators()` keeps the x that the sweep over the whole
    carrier keeps."""
    for name, brace in corpus8 + sweep12:
        chains = [
            (series.socle_series(brace), (brace.star, brace.comm_dot)),
            (series.annihilator_series(brace), (brace.star, brace.comm_dot, brace.comm_circ)),
            (series.zeta_dot_series(brace), (brace.dot_group.comm,)),
            (series.zeta_circ_series(brace), (brace.circ_group.comm,)),
        ]
        for chain, maps in chains:
            for prev in chain.terms:
                swept = {
                    x
                    for x in brace.elements()
                    if all(f(x, a) in prev.members for a in brace.elements() for f in maps)
                }
                got = lifted_step(brace.order, maps, prev, brace.generators())
                assert got.members == swept, (name, chain.kind, prev.sorted())


def test_socle_quotient_tower_orders(pq_i, groups):
    assert [b.order for b in sb.socle_quotient_tower(pq_i)] == [6, 2, 1]
    assert [b.order for b in sb.socle_quotient_tower(sb.build_trivial(groups["C6"]))] == [6, 1]
    assert [b.order for b in sb.socle_quotient_tower(sb.build_trivial(sb.cyclic(1)))] == [1]


def test_socle_quotient_tower_order_shadow(catalog):
    """|A_n| = |A| / |Soc_{n-1}(A)| for every step that was materialized."""
    for name, brace in catalog:
        if brace.backing != "table" or brace.order > 21:
            continue
        chain = sb.socle_series(brace)
        quotients = sb.socle_quotient_tower(brace)
        for i, q in enumerate(quotients):
            assert q.order == brace.order // len(chain.at(i)), name


def test_gamma_series_pq(pq_i):
    chain = sb.gamma_series(pq_i)
    assert terms(chain) == [ALL6, C3, C3]
    assert not chain.reaches_terminal


def test_gamma_series_trivial_matches_group_lower(groups):
    for name in ("S3", "D4", "Q8"):
        g = groups[name]
        brace = sb.build_trivial(g)
        low = sb.lower_central_series(g)
        gam = sb.gamma_series(brace)
        depth = max(len(low), len(gam))
        for i in range(1, depth + 1):
            assert gam.at(i).members == low.at(i).members, name


def test_gamma_prime_equals_gamma(catalog):
    for name, brace in catalog:
        if brace.backing != "table" or brace.order > 21:
            continue
        gam = sb.gamma_series(brace)
        prime = sb.gamma_prime_series(brace)
        depth = max(len(gam), len(prime))
        for i in range(1, depth + 1):
            assert gam.at(i).members == prime.at(i).members, name


def test_relative_gamma_trivial_ideal(pq_i):
    chain = sb.relative_gamma_series(pq_i, make_set({0}, 6))
    assert terms(chain) == [ONE]
    assert chain.terminal_class() == 1


def test_relative_gamma_whole_equals_gamma(pq_i, groups):
    for brace in (pq_i, sb.build_trivial(groups["D4"])):
        whole = sb.groups.full_set(brace.order)
        rel = sb.relative_gamma_series(brace, whole)
        gam = sb.gamma_series(brace)
        depth = max(len(rel), len(gam))
        for i in range(1, depth + 1):
            assert rel.at(i).members == gam.at(i).members


def test_relative_gamma_pq_socle(pq_i):
    chain = sb.relative_gamma_series(pq_i, make_set({0, 1, 2}, 6))
    assert terms(chain) == [C3, ONE]
    assert chain.terminal_class() == 2


def test_relative_gamma_rejects_non_ideal(groups):
    brace = sb.build_trivial(groups["S3"])
    s = sb.subgroup_closure(groups["S3"], {next(x for x in range(1, 6) if groups["S3"].mul[x][x] == 0)})
    with pytest.raises(errors.NotAnIdeal):
        sb.relative_gamma_series(brace, s)


def test_chain_term_membership_invariants(catalog):
    """Left/smok terms are left ideals; right/gamma/socle/ann terms ideals."""
    for name, brace in catalog:
        if brace.order > 64:
            continue
        for fn in (sb.left_series, sb.smoktunowicz_series):
            for t in fn(brace).terms:
                assert sb.is_left_ideal(brace, t), (name, fn.__name__)
        for fn in (sb.right_series, sb.gamma_series, sb.socle_series, sb.annihilator_series):
            for t in fn(brace).terms:
                assert sb.is_ideal(brace, t), (name, fn.__name__)


def test_series_inclusion_invariants(catalog):
    """Ann_n <= Soc_n <= zeta_n(dot) and Ann_n <= zeta_n(circ)."""
    for name, brace in catalog:
        soc = sb.socle_series(brace)
        ann = sb.annihilator_series(brace)
        zdot = series.zeta_dot_series(brace)
        zcirc = series.zeta_circ_series(brace)
        depth = max(len(soc), len(ann), len(zdot), len(zcirc))
        for n in range(depth):
            assert ann.at(n).members <= soc.at(n).members, name
            assert soc.at(n).members <= zdot.at(n).members, name
            assert ann.at(n).members <= zcirc.at(n).members, name


def test_non_comparability_witnesses(pq_i, pq_ii):
    soc_i = sb.socle_series(pq_i)
    zcirc_i = series.zeta_circ_series(pq_i)
    assert soc_i.at(2).is_full and zcirc_i.at(2).is_trivial
    soc_ii = sb.socle_series(pq_ii)
    zcirc_ii = series.zeta_circ_series(pq_ii)
    assert soc_ii.at(1).is_trivial and zcirc_ii.at(1).is_full


def test_descending_chains_monotone(catalog):
    for name, brace in catalog:
        for fn in (sb.left_series, sb.right_series, sb.gamma_series):
            chain = fn(brace)
            for a, b in zip(chain.terms, chain.terms[1:]):
                assert b.members <= a.members, name


def test_ascending_chains_monotone(catalog):
    for name, brace in catalog:
        for fn in (sb.socle_series, sb.annihilator_series):
            chain = fn(brace)
            for a, b in zip(chain.terms, chain.terms[1:]):
                assert a.members <= b.members, name
