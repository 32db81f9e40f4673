"""Formula-backed braces: construction guards, closed forms against the
generic definitions, and the subspace fast paths against full tables."""

from __future__ import annotations

import copy
import dataclasses
import gc
import itertools
import pickle
import random
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewbrace as sb
from skewbrace import errors, formula, groups, series
from skewbrace.formula import PairSpace, span_of_units
from skewbrace.fp import Subspace, mat_identity, mat_mul, mat_vec, unit_vec, vec_neg
from tests.conftest import I2, UNI2, bc16, bc81, identity_report_one_at_a_time, injective_phi_spec

SINGULAR = ((1, 1), (1, 1))
LOWER = ((1, 0), (1, 1))


def ker_phi(brace):
    """ker(phi) <= C, the fixer solve of the zero subspace of B."""
    return formula._fixers(brace, "phi", Subspace.zero(brace.p, brace.d_b))


def ker_psi(brace):
    """ker(psi) <= B, the fixer solve of the zero subspace of C."""
    return formula._fixers(brace, "psi", Subspace.zero(brace.p, brace.d_c))


def test_construction_rejects_composite_p():
    with pytest.raises(errors.BadPrime):
        sb.make_bc_brace(4, 2, 2, (I2, I2), (I2, I2))


def test_construction_rejects_singular_matrix():
    with pytest.raises(errors.NotInvertible):
        sb.make_bc_brace(2, 2, 2, (I2, SINGULAR), (I2, I2))


def test_construction_rejects_non_commuting_family():
    with pytest.raises(errors.NonCommutingFamily):
        sb.make_bc_brace(2, 2, 2, (UNI2, LOWER), (I2, I2))


def test_construction_rejects_condition_violation():
    # ker(phi) = <f2> but Im(psi_{e2} - id) = <f1>
    phi = (UNI2, I2)
    psi = (I2, UNI2)
    with pytest.raises(errors.ConditionViolated):
        sb.make_bc_brace(2, 2, 2, phi, psi)


def unipotent_family(rng, p, dim, count):
    """`count` commuting dim x dim matrices: all the identity, or each
    id + s N + t N^2 for one random strictly upper-triangular N, with N
    redrawn until every member has order dividing p."""
    ident = mat_identity(dim)
    if rng.random() < 0.25:
        return (ident,) * count
    while True:
        big_n = [[rng.randrange(p) if j > i else 0 for j in range(dim)] for i in range(dim)]
        n_sq = mat_mul(big_n, big_n, p)
        family = []
        for _ in range(count):
            s, t = rng.randrange(p), rng.randrange(p)
            family.append(tuple(
                tuple((ident[i][j] + s * big_n[i][j] + t * n_sq[i][j]) % p for j in range(dim))
                for i in range(dim)
            ))
        if all(mat_mul(formula._power_row(m, p)[-1], m, p) == ident for m in family):
            return tuple(family)


def test_condition_column_check_matches_kernel_solve():
    """`bc_brace` tests Im(psi_{e_i} - id) <= ker(phi) by phi(col) = id on
    each column. On 2,000 seeded specs (p in {2, 3, 5}, d_b, d_c <= 3)
    built without that check, ker(phi) is solved by `_fixers`: `bc_brace`
    accepts exactly the specs whose every column of each psi_{e_i} - id lies
    in it, and refuses the rest at the first basis index with a column
    outside; 243 are refused, at indices 0, 1 and 2."""
    rng = random.Random(sb.DEFAULT_SEED + 27)
    refused = []  # the first escaping basis index of each refused spec
    for _ in range(2000):
        p, d_b, d_c = rng.choice((2, 3, 5)), rng.randint(1, 3), rng.randint(1, 3)
        phi, psi = unipotent_family(rng, p, d_b, d_c), unipotent_family(rng, p, d_c, d_b)
        unchecked = formula.BCBrace(p, *([formula._power_row(m, p) for m in fam] for fam in (phi, psi)))
        kernel = ker_phi(unchecked)
        escapes = [
            i for i in range(d_b)
            if not all(kernel.contains(col) for col in zip(*unchecked.dpsi(unit_vec(d_b, i))))
        ]
        if escapes:
            refused.append(escapes[0])
            with pytest.raises(errors.ConditionViolated) as info:
                formula.bc_brace(p, phi, psi)
            assert info.value.basis_index == escapes[0], (p, phi, psi)
        else:
            assert formula.bc_brace(p, phi, psi).order == unchecked.order
    assert len(refused) >= 100 and set(refused) == {0, 1, 2}, refused


def test_wrong_matrix_counts():
    with pytest.raises(errors.BadParameters):
        sb.make_bc_brace(2, 2, 2, (I2,), (I2, I2))


def test_construction_rejects_matrix_order_not_dividing_p():
    # 1x1 entry 2 over F_3 has order 2, so c -> phi_c is not a homomorphism
    with pytest.raises(errors.BadParameters):
        sb.make_bc_brace(3, 1, 1, (((2,),),), (((1,),),))
    # the 4-dim unipotent block squares to id + N^2 over F_2; this is exactly
    # why this construction needs p >= 5
    j4 = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))
    i4 = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    with pytest.raises(errors.BadParameters):
        sb.make_bc_brace(2, 4, 1, (j4,), (i4,) * 4)
    with pytest.raises(errors.BadParameters):
        sb.make_bc_brace(3, 4, 1, (j4,), (i4,) * 4)


def bc8_wide():
    """d_b = 2, d_c = 1: nontrivial phi, identity psi."""
    one = ((1,),)
    return sb.make_bc_brace(2, 2, 1, (UNI2,), (one, one))


def bc8_tall():
    """d_b = 1, d_c = 2: identity phi, nontrivial psi."""
    one = ((1,),)
    return sb.make_bc_brace(2, 1, 2, (one, one), (UNI2,))


@pytest.mark.parametrize("make", [bc8_wide, bc8_tall])
def test_asymmetric_dims_match_tables(make):
    brace = make()
    assert brace.order == 8
    table = sb.materialize_table_brace(brace)
    for a in range(8):
        for b in range(8):
            assert brace.dot(a, b) == table.dot(a, b)
            assert brace.circ(a, b) == table.circ(a, b)
            assert brace.star(a, b) == table.star(a, b)
            assert brace.comm_circ(a, b) == table.comm_circ(a, b)
    for fn in (
        sb.left_series,
        sb.right_series,
        sb.smoktunowicz_series,
        sb.socle_series,
        sb.annihilator_series,
        sb.gamma_series,
    ):
        fast, slow = fn(brace), fn(table)
        assert [t.sorted() for t in fast.terms] == [t.sorted() for t in slow.terms]
        assert fast.reaches_terminal == slow.reaches_terminal


def test_identity_actions_give_trivial_brace():
    brace = sb.make_bc_brace(3, 1, 1, (((1,),),), (((1,),),))
    table = sb.materialize_table_brace(brace)
    assert table.dot_group.mul == table.circ_group.mul
    assert table.order == 9


def test_encode_decode_roundtrip():
    brace = bc81()
    for i in range(brace.order):
        b, c = brace.decode(i)
        assert brace.encode(b, c) == i


def test_counterexample_matrices_read_off():
    brace = sb.make_counterexample_F(5)
    e1, e2 = (1, 0, 0, 0), (0, 1, 0, 0)
    e4 = (0, 0, 0, 1)
    phi_e4 = brace.phi(e4)
    assert tuple(row[0] for row in phi_e4) == e1  # phi_e4(e1) = e1
    col2 = tuple(row[1] for row in phi_e4)
    assert col2 == (1, 1, 0, 0)  # phi_e4(e2) = e1 + e2
    psi_e3 = brace.psi((0, 0, 1, 0))
    image = tuple((row[1] - (1 if i == 1 else 0)) % 5 for i, row in enumerate(psi_e3))
    assert image == e1  # (psi_e3 - id)(e2) = e1
    del e2


def test_counterexample_star_value():
    brace = sb.make_counterexample_F(5)
    zero = (0, 0, 0, 0)
    val = brace.vstar(((0, 0, 1, 0), zero), (zero, (0, 1, 0, 0)))
    assert val == (zero, (1, 0, 0, 0))


def test_counterexample_rejects_small_or_composite_p():
    with pytest.raises(errors.BadPrime):
        sb.make_counterexample_F(3)
    with pytest.raises(errors.BadPrime):
        sb.make_counterexample_F(6)


def test_counterexample_kernels():
    brace = sb.make_counterexample_F(5)
    assert ker_phi(brace) == span_of_units(5, 4, (1, 2, 3))
    assert ker_psi(brace) == span_of_units(5, 4, (1, 2, 4))


@pytest.mark.parametrize("make", [bc16, bc81])
def test_ops_match_materialized_tables(make):
    brace = make()
    table = sb.materialize_table_brace(brace)
    n = brace.order
    for a in range(n):
        assert brace.inv(a) == table.inv(a)
        assert brace.bar(a) == table.bar(a)
        for b in range(n):
            assert brace.dot(a, b) == table.dot(a, b)
            assert brace.circ(a, b) == table.circ(a, b)
            assert brace.star(a, b) == table.star(a, b)
            assert brace.lam(a, b) == table.lam(a, b)
            assert brace.comm_dot(a, b) == table.comm_dot(a, b)
            assert brace.comm_circ(a, b) == table.comm_circ(a, b)


def tuple_forms(brace):
    """The closed forms on digit pairs (b, c), with phi_c and psi_b applied as
    products of basis-matrix powers: independent of the brace's element path.
    Returns the index <-> pair maps and the eight forms."""
    p, d_b, d_c = brace.p, brace.d_b, brace.d_c

    def mat_vec(m, vec):
        return tuple(sum(r * x for r, x in zip(row, vec)) % p for row in m)

    def powers(m):
        out = [None, m]
        for _ in range(p - 2):
            out.append(tuple(zip(*(mat_vec(m, col) for col in zip(*out[-1])))))
        return out

    phi_pows = [powers(m) for m in brace.phi_basis]
    psi_pows = [powers(m) for m in brace.psi_basis]

    def act(pows, coeffs, vec):
        for row, t in zip(pows, coeffs):
            if t:
                vec = mat_vec(row[t], vec)
        return vec

    def phi(c, x):
        return act(phi_pows, c, x)

    def psi(b, y):
        return act(psi_pows, b, y)

    def add(*vecs):
        return tuple(sum(t) % p for t in zip(*vecs))

    def neg(vec):
        return tuple(-t % p for t in vec)

    def split(idx):
        digits = [idx // p**i % p for i in range(d_b + d_c)]
        return tuple(digits[:d_b]), tuple(digits[d_b:])

    def join(b, c):
        return sum(t * p**i for i, t in enumerate(b + c))

    zb, zc = (0,) * d_b, (0,) * d_c
    forms = {
        "dot": lambda b, c, u, v: (add(b, phi(c, u)), add(c, v)),
        "circ": lambda b, c, u, v: (add(b, u), add(c, psi(b, v))),
        "lam": lambda b, c, u, v: (phi(neg(c), u), psi(b, v)),
        "star": lambda b, c, u, v: (add(phi(neg(c), u), neg(u)), add(psi(b, v), neg(v))),
        "comm_dot": lambda b, c, u, v: (add(b, neg(phi(v, b)), phi(c, u), neg(u)), zc),
        "comm_circ": lambda b, c, u, v: (zb, add(psi(b, v), neg(v), neg(psi(u, c)), c)),
        "inv": lambda b, c: (phi(neg(c), neg(b)), neg(c)),
        "bar": lambda b, c: (neg(b), neg(psi(neg(b), c))),
    }
    return split, join, forms


def assert_ops_match_tuple_forms(brace, pairs):
    split, join, forms = tuple_forms(brace)
    for a, y in pairs:
        (b, c), (u, v) = split(a), split(y)
        for name, form in forms.items():
            if name in ("inv", "bar"):
                assert getattr(brace, name)(a) == join(*form(b, c)), (name, a)
            else:
                assert getattr(brace, name)(a, y) == join(*form(b, c, u, v)), (name, a, y)


def _square_zero(rng, p, dim, allowed):
    """x y^T with y.x = 0 and `allowed(x)`, the zero matrix when no try finds one."""
    for _ in range(200):
        x = tuple(rng.randrange(p) for _ in range(dim))
        y = tuple(rng.randrange(p) for _ in range(dim))
        if any(x) and any(y) and sum(s * t for s, t in zip(x, y)) % p == 0 and allowed(x):
            return tuple(tuple(s * t % p for t in y) for s in x)
    return ((0,) * dim,) * dim


def random_bc(rng, p, d_b, d_c):
    """A valid bc brace with phi_{e_j} = id + a_j N and psi_{e_i} = id + s_i M,
    N and M square-zero of rank one and Im(M) inside ker(phi) = {c : a.c = 0}
    (all of C when N = 0); non-identity where the dimensions allow."""
    a = [rng.randrange(1, p) for _ in range(d_c)]
    big_n = _square_zero(rng, p, d_b, lambda x: True)
    phi_killed = not any(map(any, big_n))
    big_m = _square_zero(
        rng, p, d_c, lambda x: phi_killed or sum(s * t for s, t in zip(a, x)) % p == 0
    )

    def family(dim, mat, coeffs):
        return [
            [[(int(i == j) + s * mat[i][j]) % p for j in range(dim)] for i in range(dim)]
            for s in coeffs
        ]

    psi_coeffs = [rng.randrange(1, p) for _ in range(d_b)]
    return sb.make_bc_brace(p, d_b, d_c, family(d_b, big_n, a), family(d_c, big_m, psi_coeffs))


# (p, d_b, d_c): one-digit factors next to wide ones (p x p add tables, one
# of them at p >= 13 in each orientation), two full blocks (d = 2, 14), a
# short top block (d = 3, 5), unequal dimensions, and two wide factors with
# short top blocks on both sides or on one.
RANDOM_SHAPES = [
    (2, 1, 3), (3, 3, 1), (5, 3, 2), (13, 3, 1), (13, 1, 3), (7, 5, 1), (2, 14, 1), (3, 3, 3), (2, 5, 4),
    (13, 1, 2), (17, 2, 1),
]

KERNELS = ("dot", "circ", "inv", "bar", "lam", "star")


def test_index_ops_match_tuple_forms(f5):
    for make in (bc16, bc81):
        brace = make()
        n = brace.order
        assert_ops_match_tuple_forms(brace, [(a, b) for a in range(n) for b in range(n)])
    rng = random.Random(sb.DEFAULT_SEED)

    def random_pairs(n, count):
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]

    for brace in (f5, sb.make_counterexample_F(7)):
        assert_ops_match_tuple_forms(brace, random_pairs(brace.order, 2000))
    for shape in RANDOM_SHAPES:
        for _ in range(2):
            brace = random_bc(rng, *shape)
            assert any(m != mat_identity(brace.d_b) for m in brace.phi_basis) or any(
                m != mat_identity(brace.d_c) for m in brace.psi_basis
            )
            assert_ops_match_tuple_forms(brace, random_pairs(brace.order, 300))
    one = (((1,),),)
    for p in (2, 3, 5, 19997):  # (1, 1): the closed forms of the trivial brace
        brace = sb.make_bc_brace(p, 1, 1, one, one)
        n = brace.order
        pairs = [(a, y) for a in range(n) for y in range(n)] if n <= 25 else random_pairs(n, 300)
        assert_ops_match_tuple_forms(brace, pairs + [(n - 1, n - 1)])


def test_f5_group_laws(f5):
    rng = random.Random(sb.DEFAULT_SEED + 2)
    n = f5.order
    for _ in range(2000):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        assert f5.dot(f5.dot(a, b), c) == f5.dot(a, f5.dot(b, c))
        assert f5.circ(f5.circ(a, b), c) == f5.circ(a, f5.circ(b, c))
        assert f5.dot(a, 0) == f5.dot(0, a) == f5.circ(a, 0) == f5.circ(0, a) == a
        assert f5.dot(a, f5.inv(a)) == 0 == f5.circ(a, f5.bar(a))
        assert f5.circ(a, f5.dot(b, c)) == f5.dot(f5.dot(f5.circ(a, b), f5.inv(a)), f5.circ(a, c))


def vec_add(u, v, p: int):
    return tuple((a + b) % p for a, b in zip(u, v))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_tables_match_digit_tuples(p):
    """A factor's negations and its block add table, built by index
    arithmetic, equal the digit-tuple forms, odd d (short top block) included."""
    for d in range(1, 6):
        factor = formula._Component(p, d, [formula._power_row(mat_identity(d), p)])
        negs = [formula._index(vec_neg(formula._digits(x, p, d), p), p) for x in range(p**d)]
        assert factor.neg == negs, d
        block = [formula._digits(x, p, -(-d // 2)) for x in range(p ** -(-d // 2))]
        assert factor.table == [[formula._index(vec_add(x, y, p), p) for y in block] for x in block], d


def test_element_tables_are_lazy_and_capped(monkeypatch):
    """Each corner builds its element tables at the TABLE_CAP its largest
    table needs, and every table it then holds stays within it."""
    rng = random.Random(sb.DEFAULT_SEED + 3)
    one = (((1,),),)
    corners = [
        (random_bc(rng, 2, 14, 1), 128**2),  # B's add table, H = 2^7
        (random_bc(rng, 7, 5, 1), 343**2),  # B's add table, H = 7^3
        (sb.make_bc_brace(19997, 1, 1, one, one), 1),  # closed forms, no table
        (sb.brace_from_spec(injective_phi_spec(3)), 2 * 9 * 3**4),  # B's image maps
        (random_bc(rng, 13, 1, 3), 169**2),  # C's add table, next to B's 13 x 13 one
    ]
    small = bc81()
    sb.right_series(small)
    sb.socle_series(small)
    assert small._elem is None and not set(KERNELS) & set(vars(small))
    for brace, bound in corners:
        assert brace._elem is None and not set(KERNELS) & set(vars(brace))
        monkeypatch.setattr(groups, "TABLE_CAP", bound)
        n = brace.order
        pairs = [(n - 2, n // 3)] + [(rng.randrange(n), rng.randrange(n)) for _ in range(500)]
        for a, y in pairs:
            for name in ("dot", "circ", "lam", "star", "comm_dot", "comm_circ"):
                getattr(brace, name)(a, y)
            brace.inv(a)
            brace.bar(a)
        # every brace gets the kernels; a (1, 1) brace has no factors
        assert all(name in vars(brace) for name in KERNELS)
        assert (brace._elem == ()) == (brace.d_b == brace.d_c == 1)
        for part in brace._elem:
            # the acting indices with one matrix share one map, so a one-digit
            # factor (every action on it the identity) holds a single map
            built = {id(m): m for m in part.maps if m is not None}.values()
            sizes = [sum(map(len, part.table)), len(part.neg), len(part.maps)]
            assert max(sizes + [len(m) for m in built]) <= groups.TABLE_CAP
            assert sum(map(len, built)) <= groups.TABLE_CAP


def test_element_tables_are_refused_above_table_cap(monkeypatch):
    """One element operation is refused one below the largest table's size,
    before any table exists, and runs at it: F13's 169 x 169 add table (its
    13^4-entry maps list ties), a lopsided 3^10 x 3 brace's 243 x 243 one, a
    3^3 x 3 brace's 9 x 9 one (above its 27 negations and its one-digit
    factor's 3 x 3 one), and the 2 * 9 entries of each of the 3^4 image maps
    of an injective phi at p = 3. A (1, 1) brace builds no table: at p =
    19,997 it runs at TABLE_CAP = 1."""
    one = (((1,),),)
    cases = [
        (sb.make_counterexample_F(13), 169**2, "add table"),
        (sb.make_bc_brace(3, 10, 1, [mat_identity(10)], [((1,),)] * 10), 243**2, "add table"),
        (sb.make_bc_brace(3, 3, 1, [mat_identity(3)], [((1,),)] * 3), 9**2, "add table"),
        (sb.brace_from_spec(injective_phi_spec(3)), 2 * 9 * 3**4, "image maps"),
    ]
    trivial = sb.make_bc_brace(19997, 1, 1, one, one)
    for brace, bound, table in cases:
        monkeypatch.setattr(groups, "TABLE_CAP", bound - 1)
        for op in (lambda: brace.dot(1, brace.order - 1), lambda: brace.inv(1), lambda: brace.circ(2, 1)):
            tracemalloc.start()
            with pytest.raises(errors.TooLarge, match=f"{table}.*TABLE_CAP"):
                op()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert brace._elem is None and not set(KERNELS) & set(vars(brace))
            assert peak < 100_000  # F13's negation list alone holds 228 KB of pointers
        monkeypatch.setattr(groups, "TABLE_CAP", bound)
        assert_ops_match_tuple_forms(brace, [(1, brace.order - 1), (brace.order // 3, 2)])
        assert brace._elem is not None
    monkeypatch.setattr(groups, "TABLE_CAP", 1)
    assert_ops_match_tuple_forms(trivial, [(1, trivial.order - 1), (trivial.order // 3, 2)])
    assert trivial._elem == () and set(KERNELS) <= set(vars(trivial))


def test_formula_braces_are_freed_without_gc():
    """The kernels and the factors' image maps hold no reference to the
    brace: after element operations, bc81, bc16, a fresh F5, a 3 x 3^2
    brace (a one-digit factor) and a (1, 1) brace die by reference counting
    with the collector off, and leave no cyclic garbage. (F5's validation
    pool takes seconds, so it gets the identities only.)"""
    gc.collect()
    gc.disable()
    try:
        one = ((1,),)
        made = [
            bc81(),
            bc16(),
            sb.make_counterexample_F(5),
            sb.make_bc_brace(3, 1, 2, [one, one], [UNI2]),
            sb.make_bc_brace(5, 1, 1, [one], [one]),
        ]
        for brace in made:
            sb.check_identities(brace, samples=200)
            if brace.order < 5**8:
                sb.validate_formula_brace(brace, samples=200)
            a = brace.order - 1
            assert brace.circ(a, 7) == brace.dot(a, brace.lam(a, 7))
            assert brace.dot(brace.bar(a), brace.inv(brace.bar(a))) == 0
            assert "dot" in vars(brace) and brace._elem is not None
        refs = [weakref.ref(b) for b in made]
        del made, brace
        assert [r() for r in refs] == [None] * len(refs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_element_tables_above_the_default_table_cap_are_refused():
    """F37's 1369 x 1369 add tables (1.9 M cells) and the 11^4 image maps of
    an injective phi at p = 11 (3.5 M entries) are refused at the default
    TABLE_CAP before any table exists; the set-level check of F13 builds no
    table."""
    f13 = sb.make_counterexample_F(13)
    assert sb.verify_counterexample_F(13)["all_confirmed"] and f13._elem is None
    for brace, size in ((sb.make_counterexample_F(37), 1369**2),
                        (sb.brace_from_spec(injective_phi_spec(11)), 2 * 121 * 11**4)):
        tracemalloc.start()
        with pytest.raises(errors.TooLarge, match=f"take {size} cells.*TABLE_CAP = {groups.TABLE_CAP}"):
            brace.dot(1, 2)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert brace._elem is None and peak < 100_000


def test_materialization_is_refused_above_table_cap(monkeypatch):
    """bc16 has order 16: its 256-cell tables are refused at TABLE_CAP 255,
    before any element operation, and built at 256."""
    brace = bc16()
    monkeypatch.setattr(groups, "TABLE_CAP", 255)
    with pytest.raises(errors.TooLarge, match="TABLE_CAP"):
        sb.materialize_table_brace(brace)
    assert brace._elem is None
    monkeypatch.setattr(groups, "TABLE_CAP", 256)
    assert sb.materialize_table_brace(brace).order == 16


def kernel_off_units():
    """phi_{e1} = phi_{e2} != id: ker phi is spanned by e1 - e2, by no unit vector."""
    return sb.make_bc_brace(3, 2, 2, (UNI2, UNI2), (I2, I2))


def act(part, key: int, x: int) -> int:
    """x's image under acting index `key`'s matrix in factor `part`, read from
    its map (built on first use) at both blocks of x and added as the
    kernels do."""
    h, table = part.h, part.table
    m = part.maps[key] or part.image_map(key)
    y, z = m[x % h], m[h + x // h]
    return table[y % h][z % h] + h * table[y // h][z // h]


@pytest.mark.parametrize("make", [bc16, bc81, kernel_off_units])
def test_image_maps_are_shared_per_matrix(make):
    brace = make()
    p = brace.p
    B, C = brace._factors()
    factors = ((B, brace.phi, brace.d_b, brace.d_c), (C, brace.psi, brace.d_c, brace.d_b))
    for part, action, d, acting_dim in factors:
        held: dict = {}  # matrix -> the map of the first key with it
        for key in range(p**acting_dim):
            mat = action(formula._digits(key, p, acting_dim))
            for x in range(part.size):
                image = mat_vec(mat, formula._digits(x, p, d), p)
                assert act(part, key, x) == formula._index(image, p)
            assert part.maps[key] is held.setdefault(mat, part.maps[key])
        assert len({id(m) for m in part.maps}) == len(held)
    if make is kernel_off_units:
        assert len({id(m) for m in B.maps}) == 3 and len({id(m) for m in C.maps}) == 1


def test_f5_factors_hold_five_maps(f5):
    for part in f5._factors():
        for key in range(len(part.maps)):
            act(part, key, 0)
        assert len(part.maps) == 625
        assert len({id(m) for m in part.maps}) == 5


def formula_identity_triples(brace, samples: int, seed: int):
    """The triples check_identities takes on a formula brace: every generator
    triple, then `samples` seeded ones, a, x and y drawn in that order."""
    yield from itertools.product(brace.generators(), repeat=3)
    rng = random.Random(seed)
    for _ in range(samples):
        yield rng.randrange(brace.order), rng.randrange(brace.order), rng.randrange(brace.order)


def validate_one_triple_at_a_time(brace, samples: int, seed: int = sb.DEFAULT_SEED) -> dict:
    """validate_formula_brace with every term of every triple computed afresh:
    the pool of generators and their pairwise dots, then the seeded samples."""
    d, c, inv, lam = brace.dot, brace.circ, brace.inv, brace.lam
    gens = brace.generators()
    base = list(dict.fromkeys([*gens, *(d(g, h) for g in gens for h in gens)]))
    rng = random.Random(seed)
    n = brace.order
    drawn = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(samples))
    checked = 0
    for a, b, z in itertools.chain(itertools.product(base, repeat=3), drawn):
        if c(a, d(b, z)) != d(d(c(a, b), inv(a)), c(a, z)):
            raise errors.BraceRelationFails(a, b, z)
        if lam(c(a, b), z) != lam(a, lam(b, z)):
            raise errors.LambdaNotHomomorphism(a, b)
        checked += 1
    return {"passed": True, "checked": checked, "seed": seed}


def raised(check, brace, samples: int) -> tuple:
    """The class and args of the AlgebraError that `check` raises."""
    with pytest.raises(errors.AlgebraError) as info:
        check(brace, samples=samples)
    return type(info.value), info.value.args


def test_corrupted_shared_map_fails_validation():
    brace = sb.make_counterexample_F(5)
    B, _ = brace._factors()
    for key in range(len(B.maps)):
        act(B, key, 0)
    shared = B.maps[0]  # phi_c = id for the 5^3 keys c in ker phi
    assert sum(m is shared for m in B.maps) == 125
    shared[1] = (shared[1] + 1) % B.size
    got = raised(sb.validate_formula_brace, brace, 2000)
    assert got[0] in (errors.BraceRelationFails, errors.LambdaNotHomomorphism)
    assert got == raised(validate_one_triple_at_a_time, brace, 2000)


def test_corrupted_add_table_fails_identities():
    assert not sb.check_identities(corrupt_bc81(None, 1, 1), samples=2000)["passed"]


def test_pool_sizes(f5):
    """8 generators of F5 and 4 of bc81; 47 and 15 pool elements with the dots."""
    assert sb.check_identities(f5, samples=0)["checked"] == 512
    assert sb.check_identities(bc81(), samples=0)["checked"] == 64
    assert sb.validate_formula_brace(bc81(), samples=0)["checked"] == 3375
    assert sb.validate_formula_brace(f5, samples=0)["checked"] == 47**3


@pytest.mark.parametrize("seed", [1, 2, sb.DEFAULT_SEED])
@pytest.mark.parametrize("name", ["f5", "bc81", "bc16"])
def test_formula_identity_report_matches_one_at_a_time(f5, name, seed):
    brace = {"f5": f5, "bc81": bc81(), "bc16": bc16()}[name]
    report = sb.check_identities(brace, samples=300, seed=seed)
    assert report["passed"] and report["checked"] == len(brace.generators()) ** 3 + 300
    assert report == identity_report_one_at_a_time(brace, formula_identity_triples(brace, 300, seed))


def corrupt_bc81(part, key: int, index: int) -> sb.BCBrace:
    """bc81 with one wrong entry: of B's add table (part None), or of the
    image map of acting key `key` in factor `part`."""
    brace = bc81()
    factor = brace._factors()[0 if part is None else part]
    if part is None:
        factor.table[key][index] = (factor.table[key][index] + 1) % 3
    else:
        act(factor, key, 0)
        factor.maps[key][index] = (factor.maps[key][index] + 1) % factor.size
    return brace


@pytest.mark.parametrize("part, key, index, pool_fails", [(None, 1, 1, True), (1, 6, 2, False)])
def test_corrupted_identity_report_matches_one_at_a_time(part, key, index, pool_fails):
    """The second entry passes every generator triple: only samples catch it."""
    brace = corrupt_bc81(part, key, index)
    assert sb.check_identities(brace, samples=0)["passed"] != pool_fails
    report = sb.check_identities(brace, samples=2000, seed=5)
    assert len(report["failures"]) == 8 and (report["checked"] <= 64) == pool_fails
    assert report == identity_report_one_at_a_time(brace, formula_identity_triples(brace, 2000, 5))


@pytest.mark.parametrize("make", [bc16, bc81])
def test_validation_matches_one_triple_at_a_time(make):
    brace = make()
    report = sb.validate_formula_brace(brace, samples=500, seed=3)
    assert report == validate_one_triple_at_a_time(brace, samples=500, seed=3)


@pytest.mark.parametrize(
    "part, key, index, error",
    [(None, 1, 1, errors.BraceRelationFails), (1, 3, 1, errors.LambdaNotHomomorphism)],
)
def test_corrupted_bc81_validation_matches_one_triple_at_a_time(part, key, index, error):
    brace = corrupt_bc81(part, key, index)
    got = raised(sb.validate_formula_brace, brace, 500)
    assert got[0] is error
    assert got == raised(validate_one_triple_at_a_time, brace, 500)


ALL_CHAINS = [
    sb.left_series,
    sb.right_series,
    sb.smoktunowicz_series,
    sb.socle_series,
    sb.annihilator_series,
    sb.gamma_series,
    series.zeta_dot_series,
    series.zeta_circ_series,
    series.gamma_dot_series,
    series.gamma_circ_series,
]

# A 3 x 3 Jordan block over F_3 and its inverse.
J3 = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
J3_INV = ((1, 2, 1), (0, 1, 2), (0, 0, 1))


def psi_jordan_pair():
    """Order 3^5: psi_{e_1}, psi_{e_2} = J, J^-1 on C = F_3^3, phi trivial.
    b -> psi_b - id is not linear here: ker(psi) = span((1, 1)) although
    no combination of the two unit differences vanishes."""
    return sb.make_bc_brace(3, 2, 3, (I2, I2, I2), (J3, J3_INV))


def phi_jordan_pair():
    """The mirror: phi = J, J^-1 on B = F_3^3, psi trivial."""
    return sb.make_bc_brace(3, 3, 2, (J3, J3_INV), (I2, I2, I2))


@pytest.mark.parametrize("make", [bc16, bc81, psi_jordan_pair, phi_jordan_pair])
def test_series_match_materialized_tables(make):
    """All ten chains against the tables; on the Jordan-pair braces (order
    243) the fixer sets need more than one level."""
    brace = make()
    table = sb.materialize_table_brace(brace)
    for fn in ALL_CHAINS:
        fast = fn(brace)
        slow = fn(table)
        assert [t.sorted() for t in fast.terms] == [t.sorted() for t in slow.terms], fn.__name__
        assert fast.reaches_terminal == slow.reaches_terminal
        assert fast.stabilized_at == slow.stabilized_at


@st.composite
def bc_specs(draw):
    """Arguments of a valid `make_bc_brace` of order <= 81: phi_{e_j} =
    id + a_j N and psi_{e_i} = id + s_i M for N = x y^T and M = x' y'^T with
    y.x = y'.x' = 0, and Im(M) = <x'> inside ker(phi) = a-perp (all of C
    when N = 0)."""
    p = draw(st.sampled_from((2, 3)))
    total = draw(st.integers(2, 6 if p == 2 else 4))
    d_b = draw(st.integers(1, total - 1))
    d_c = total - d_b

    def vec(dim, perp=None, low=0):
        """A drawn nonzero vector with entries >= low, moved into perp^T when
        perp is nonzero (where it may become zero)."""
        entries = st.lists(st.integers(low, p - 1), min_size=dim, max_size=dim)
        v = draw(entries.filter(any))
        k = next((i for i, t in enumerate(perp or ()) if t), None)
        if k is not None:
            v[k] = 0
            v[k] = -sum(s * t for s, t in zip(v, perp)) * pow(perp[k], -1, p) % p
        return v

    def family(mat, coeffs):
        dim = len(mat)
        return [
            [[(int(i == j) + s * mat[i][j]) % p for j in range(dim)] for i in range(dim)]
            for s in coeffs
        ]

    def outer(x, y):
        return [[u * v % p for v in y] for u in x]

    a, s = vec(d_c, low=1), vec(d_b, low=1)
    x = vec(d_b)
    big_n = outer(x, vec(d_b, x))
    x = vec(d_c, a if any(map(any, big_n)) else None)
    big_m = outer(x, vec(d_c, x))
    return p, d_b, d_c, family(big_n, a), family(big_m, s)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(spec=bc_specs())
def test_random_bc_specs_match_materialized_tables(spec):
    """Every chain of a drawn valid bc spec has the terms, the
    stabilization index and the terminal flag of its materialized tables."""
    brace = sb.make_bc_brace(*spec)
    table = sb.materialize_table_brace(brace)
    for fn in ALL_CHAINS:
        fast, slow = fn(brace), fn(table)
        assert [t.sorted() for t in fast.terms] == [t.sorted() for t in slow.terms], fn.__name__
        assert fast.stabilized_at == slow.stabilized_at, fn.__name__
        assert fast.reaches_terminal == slow.reaches_terminal, fn.__name__


@pytest.mark.parametrize("make", [bc16, bc81])
def test_pair_members_match_encoded_pairs(make):
    """A term's members, a full term's included, are the encodings of its
    (b, c) pairs."""
    brace = make()
    terms = [brace.full_pair(), brace.trivial_pair()]
    terms += [t for fn in series.ALL_SERIES.values() for t in fn(brace).terms]
    for term in terms:
        pairs = {brace.encode(b, c) for b in term.b.elements() for c in term.c.elements()}
        assert term.members == pairs
    assert brace.full_pair().is_full and len(brace.full_pair().members) == brace.order


@pytest.mark.parametrize("make", [bc16, bc81])
def test_star_subgroup_without_pairs_matches_tables(make):
    """Sets stripped of their PairSpace take the generic star path on the
    materialized tables, and it agrees with the formula path on the pairs.
    On the formula brace itself those plain sets are refused."""
    brace = make()
    table = sb.materialize_table_brace(brace)
    terms = {
        term
        for fn in (sb.left_series, sb.right_series, sb.socle_series, sb.gamma_series)
        for term in fn(brace).terms
    }
    assert len(terms) >= 3
    grown = 0
    for x in terms:
        for y in terms:
            fast = sb.star_subgroup(brace, x, y).members
            plain = [sb.groups.make_set(t.members, brace.order) for t in (x, y)]
            assert fast == sb.star_subgroup(table, *plain).members
            grown += len(fast) > 1
    assert grown > 0
    with pytest.raises(errors.TooLarge, match="needs a table brace$"):
        sb.star_subgroup(brace, *plain)


TABLE_ONLY = {
    "quotient_brace": lambda b, one, whole, plain: sb.quotient_brace(b, one),
    "socle_quotient_tower": lambda b, one, whole, plain: sb.socle_quotient_tower(b),
    "relative_gamma_series": lambda b, one, whole, plain: sb.relative_gamma_series(b, whole),
    "gamma_prime_series": lambda b, one, whole, plain: sb.gamma_prime_series(b),
    "ideal_closure": lambda b, one, whole, plain: sb.ideal_closure(b, {1}),
    "huq_commutator": lambda b, one, whole, plain: sb.huq_commutator(b, whole, whole),
    "fitting_ideal": lambda b, one, whole, plain: sb.fitting_ideal(b),
    "star_subgroup": lambda b, one, whole, plain: sb.star_subgroup(b, *plain),
}


@pytest.mark.parametrize("name", TABLE_ONLY)
def test_table_only_operations_refuse_formula_braces_before_any_work(name):
    """Each operation that needs Cayley tables refuses F13 (order 13^8) by
    name before it allocates anything: no element table, no listing of a
    term, no cache entry. star_subgroup takes the formula path only on two
    PairSpaces; plain element sets of a formula brace are refused."""
    brace = sb.make_counterexample_F(13)
    one, whole = brace.pair_to_set(brace.trivial_pair()), brace.pair_to_set(brace.full_pair())
    plain = sb.groups.make_set({0}, brace.order), sb.groups.make_set({0, 1}, brace.order)
    cached = dict(brace._cache)
    tracemalloc.start()
    with pytest.raises(errors.TooLarge, match=f"^{name}.* needs a table brace$"):
        TABLE_ONLY[name](brace, one, whole, plain)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 100_000
    assert brace._elem is None and brace._cache == cached


def _subspaces(p: int, dim: int) -> set[Subspace]:
    vecs = list(itertools.product(range(p), repeat=dim))
    return {
        Subspace.from_vectors(p, dim, combo)
        for r in range(dim + 1)
        for combo in itertools.combinations(vecs, r)
    }


@pytest.mark.parametrize("make", [bc16, bc81])
def test_ideal_predicates_match_tables(make):
    """Every U x V, series terms among them; most are not ideals. The
    predicates need only dot and circ, so the plain element set of each term
    gives the same answer on the formula brace."""
    brace = make()
    table = sb.materialize_table_brace(brace)
    outcomes = {pred: set() for pred in (sb.is_subbrace, sb.is_left_ideal, sb.is_ideal)}
    for u in _subspaces(brace.p, brace.d_b):
        for v in _subspaces(brace.p, brace.d_c):
            term = brace.pair_to_set(PairSpace(u, v))
            plain = sb.groups.make_set(term.members, table.order)
            for pred, seen in outcomes.items():
                fast = pred(brace, term)
                assert fast == pred(table, plain) == pred(brace, plain), (pred.__name__, u.basis, v.basis)
                seen.add(fast)
    assert all(seen == {False, True} for seen in outcomes.values())


@pytest.mark.parametrize("make", [bc16, bc81])
def test_coset_agreement_matches_element_sets(make):
    """a.I = aoI on subspaces agrees with comparing the element sets: on the
    left series terms, and on every U x V, left ideal or not."""
    brace = make()

    def by_elements(term, a):
        return {brace.dot(a, x) for x in term} == {brace.circ(a, x) for x in term}

    for term in sb.left_series(brace).terms:
        for a in brace.elements():
            assert sb.coset_agreement(brace, term, a) == by_elements(term, a)
    seen = set()
    for u in _subspaces(brace.p, brace.d_b):
        for v in _subspaces(brace.p, brace.d_c):
            term = PairSpace(u, v)
            for a in brace.elements():
                fast = formula.bc_coset_agreement(brace, term, a)
                assert fast == by_elements(term, a), (u.basis, v.basis, a)
                seen.add(fast)
    assert seen == {False, True}


def sweep_spans(brace, x, y):
    """Element sweeps as an oracle: dphi(c) or dpsi(b) for every element of
    the acting subspace, on a basis of the moved one. Returns the star span,
    both commutator spans and the dot subgroup generated by the star span
    (B part closed under phi_c for every c of the C part)."""
    p = brace.p

    def sweep(mats, moved):
        vecs = (mat_vec(m, u, p) for m in mats for u in moved.basis)
        return Subspace.from_vectors(p, moved.dim, vecs)

    dphi_x, dphi_y = ([brace.dphi(c) for c in s.c.elements()] for s in (x, y))
    dpsi_x, dpsi_y = ([brace.dpsi(b) for b in s.b.elements()] for s in (x, y))
    star = (sweep(dphi_x, y.b), sweep(dpsi_x, y.c))
    comm_dot = sweep(dphi_y, x.b).union_span(star[0])
    comm_circ = star[1].union_span(sweep(dpsi_y, x.c))
    closed = star[0]
    while True:
        grown = closed.extended(
            mat_vec(brace.phi(c), u, p) for c in star[1].elements() for u in closed.basis
        )
        if grown == closed:
            return star, comm_dot, comm_circ, PairSpace(closed, star[1])
        closed = grown


def _random_pair(rng, brace):
    def subspace(dim):
        count = rng.randrange(dim + 1)
        vecs = [tuple(rng.randrange(brace.p) for _ in range(dim)) for _ in range(count)]
        return Subspace.from_vectors(brace.p, dim, vecs)

    return PairSpace(subspace(brace.d_b), subspace(brace.d_c))


def test_set_spans_match_element_sweeps(f5):
    """Star and commutator spans, closures of basis differences, against the
    sweeps over every element: on every pair of product subspaces of bc16 and
    bc81, and on seeded random pairs of F5 and F7. Of these braces only F5
    and F7 have (phi_g - id)(phi_h - id) != 0, so only they need the closure
    step."""

    def check(brace, x, y):
        star, comm_dot, comm_circ, star_pair = sweep_spans(brace, x, y)
        assert formula.star_span(brace, x, y) == star, (x, y)
        assert formula.comm_dot_span(brace, x, y) == comm_dot, (x, y)
        assert formula.comm_circ_span(brace, x, y) == comm_circ, (x, y)
        assert formula.star_subgroup_pair(brace, x, y) == star_pair, (x, y)

    for make in (bc16, bc81):
        brace = make()
        pairs = [
            PairSpace(u, v)
            for u in _subspaces(brace.p, brace.d_b)
            for v in _subspaces(brace.p, brace.d_c)
        ]
        for x in pairs:
            for y in pairs:
                check(brace, x, y)
    rng = random.Random(sb.DEFAULT_SEED + 4)
    for brace, count in ((f5, 100), (sb.make_counterexample_F(7), 20)):
        for _ in range(count):
            check(brace, _random_pair(rng, brace), _random_pair(rng, brace))


def _generator_pairs(brace, x, y):
    zero_b, zero_c = (0,) * brace.d_b, (0,) * brace.d_c
    x_gens = [(u, zero_c) for u in x.b.basis] + [(zero_b, w) for w in x.c.basis]
    y_gens = [(u, zero_c) for u in y.b.basis] + [(zero_b, w) for w in y.c.basis]
    return list(itertools.product(x_gens, y_gens))


def sweep_star_witness(brace, x, y, rhs):
    """The element-by-element oracle: generator pairs, then every element of
    the acting factor against every element of the moved one."""
    zero_b, zero_c = (0,) * brace.d_b, (0,) * brace.d_c
    candidates = itertools.chain(
        _generator_pairs(brace, x, y),
        (((zero_b, c), (u, zero_c)) for c in x.c.elements() for u in y.b.elements()),
        (((b, zero_c), (zero_b, v)) for b in x.b.elements() for v in y.c.elements()),
    )
    for a, b in candidates:
        val = brace.vstar(a, b)
        if not rhs.contains(*val):
            return a, b, val
    return None


def test_star_witness_sweep_is_refused_above_table_cap(monkeypatch, f5):
    """On F5, phi_{e4} = J, and the generator pair ((0, e4), (e3, 0)) has
    value (J^-1 - I) e3 = e1 - e2 in rhs, the span of that value. The sweep
    meets 2 e4 next, whose value (J^-2 - I) e3 = 3 e1 - 2 e2 escapes it. It
    may walk |<e4>| * 1 = 5 pairs: refused at TABLE_CAP 4, found at 5. A
    generator-pair witness is found whatever the cap."""
    x = PairSpace(Subspace.zero(5, 4), span_of_units(5, 4, [4]))
    y = PairSpace(span_of_units(5, 4, [3]), Subspace.zero(5, 4))
    rhs = _generator_span(f5, x, y)
    monkeypatch.setattr(groups, "TABLE_CAP", 4)
    with pytest.raises(errors.TooLarge, match="TABLE_CAP"):
        formula.find_star_witness(f5, x, y, rhs)
    monkeypatch.setattr(groups, "TABLE_CAP", 0)
    assert formula.find_star_witness(f5, x, y, f5.trivial_pair()) == sweep_star_witness(
        f5, x, y, f5.trivial_pair()
    )
    monkeypatch.setattr(groups, "TABLE_CAP", 5)
    found = formula.find_star_witness(f5, x, y, rhs)
    assert found == sweep_star_witness(f5, x, y, rhs)
    assert found == (((0,) * 4, (0, 0, 0, 2)), ((0, 0, 1, 0), (0,) * 4), ((3, 3, 0, 0), (0,) * 4))


def _generator_span(brace, x, y):
    """The least product subspace holding a * b for the generator pairs of X
    and Y, so only the fallback can find a witness that escapes it."""
    values = [brace.vstar(a, b) for a, b in _generator_pairs(brace, x, y)]
    b_part = Subspace.from_vectors(brace.p, brace.d_b, (v[0] for v in values))
    return PairSpace(b_part, Subspace.from_vectors(brace.p, brace.d_c, (v[1] for v in values)))


def test_star_witness_matches_element_sweep(f5):
    """find_star_witness, whose fallback pairs elements with a basis, returns
    the witness of the element-by-element sweep: on seeded triples of product
    subspaces of bc16 and bc81, of chain terms of seeded random braces, and of
    low-rank F5 pairs against the span of their generator values (the star
    value is not linear in the acting element, so the fallback can escape
    that span). Every witness lies in X x Y and escapes rhs."""
    rng = random.Random(sb.DEFAULT_SEED + 6)

    def triples(brace, pool, count):
        return [(brace, *(rng.choice(pool) for _ in range(3))) for _ in range(count)]

    cases = []
    for make in (bc16, bc81):
        brace = make()
        pool = [
            PairSpace(u, v)
            for u in _subspaces(brace.p, brace.d_b)
            for v in _subspaces(brace.p, brace.d_c)
        ]
        cases += triples(brace, pool, 300)
    for shape in LIFT_SHAPES:
        brace = random_bc(rng, *shape)
        pool = list({t for fn in ALL_CHAINS for t in fn(brace).terms})
        cases += triples(brace, pool + [_random_pair(rng, brace) for _ in range(4)], 60)

    def low_rank(dim):
        vecs = [tuple(rng.randrange(5) for _ in range(dim)) for _ in range(rng.randrange(3))]
        return Subspace.from_vectors(5, dim, vecs)

    for _ in range(60):
        x, y = PairSpace(low_rank(4), low_rank(4)), PairSpace(low_rank(4), low_rank(4))
        cases.append((f5, x, y, _generator_span(f5, x, y)))
    outcomes = {"none": 0, "generators": 0, "fallback": 0}
    for brace, x, y, rhs in cases:
        found = formula.find_star_witness(brace, x, y, rhs)
        assert found == sweep_star_witness(brace, x, y, rhs), (x, y, rhs)
        if found is None:
            outcomes["none"] += 1
            continue
        a, b, val = found
        assert x.contains(*a) and y.contains(*b) and val == brace.vstar(a, b)
        assert not rhs.contains(*val)
        on_gens = not rhs.contains_pair(_generator_span(brace, x, y))
        outcomes["generators" if on_gens else "fallback"] += 1
    assert min(outcomes.values()) > 0, outcomes


MAP_SETS = [{"star", "comm_dot"}, {"star", "comm_dot", "comm_circ"}, {"comm_dot"}, {"comm_circ"}]


def _kept(p, dim, tests):
    """The vectors of F_p^dim passing every test, checked to form a subspace."""
    vecs = [v for v in itertools.product(range(p), repeat=dim) if all(t(v) for t in tests)]
    space = Subspace.from_vectors(p, dim, vecs)
    assert space.size == len(vecs), "lifted predicate set is not a subspace"
    return space


def sweep_lifted_step(brace, prev, maps):
    """The per-vector sweep as an oracle: one dphi(c) or dpsi(b) matrix for
    every vector of a factor, tested against the conditions of `maps`."""
    p = brace.p

    def cols_in(m, space):
        return all(space.contains(col) for col in zip(*m))

    b_tests, c_tests = [], []
    if "star" in maps or "comm_circ" in maps:
        b_tests.append(lambda b: cols_in(brace.dpsi(b), prev.c))
    if "comm_dot" in maps:
        dot_diffs = [brace.dphi(unit_vec(brace.d_c, j)) for j in range(brace.d_c)]
        b_tests.append(lambda b: all(prev.b.contains(mat_vec(d, b, p)) for d in dot_diffs))
        c_tests.append(lambda c: cols_in(brace.dphi(c), prev.b))
    if "star" in maps:
        c_tests.append(lambda c: cols_in(brace.dphi(tuple(-x % p for x in c)), prev.b))
    if "comm_circ" in maps:
        circ_diffs = [brace.dpsi(unit_vec(brace.d_b, i)) for i in range(brace.d_b)]
        c_tests.append(lambda c: all(prev.c.contains(mat_vec(d, c, p)) for d in circ_diffs))
    return PairSpace(_kept(p, brace.d_b, b_tests), _kept(p, brace.d_c, c_tests))


def _stable(space, mats):
    return all(space.contains(mat_vec(m, v, space.p)) for m in mats for v in space.basis)


def check_lifted_steps_and_kernels(brace):
    """Every lifted step (each map set on every term of the ten chains) and
    both kernels against the sweeps. A term whose part is not invariant under
    the action a map set reads must be refused instead."""
    p = brace.p
    ident_b, ident_c = mat_identity(brace.d_b), mat_identity(brace.d_c)
    assert ker_phi(brace) == _kept(p, brace.d_c, [lambda c: brace.phi(c) == ident_b])
    assert ker_psi(brace) == _kept(p, brace.d_b, [lambda b: brace.psi(b) == ident_c])
    terms = {t.pair for fn in ALL_CHAINS for t in fn(brace).terms}
    refused = 0
    for prev in terms:
        for maps in MAP_SETS:
            bad_b = ("star" in maps or "comm_dot" in maps) and not _stable(prev.b, brace.phi_basis)
            bad_c = ("star" in maps or "comm_circ" in maps) and not _stable(prev.c, brace.psi_basis)
            if bad_b or bad_c:
                with pytest.raises(errors.AlgebraError):
                    formula.bc_lifted_step(brace, prev, maps)
                refused += 1
            else:
                got = formula.bc_lifted_step(brace, prev, maps)
                assert got == sweep_lifted_step(brace, prev, maps), (prev, maps)
    return len(terms), refused


# Shapes small enough for the per-vector sweep on every chain term.
LIFT_SHAPES = [(2, 1, 3), (3, 3, 1), (5, 3, 2), (3, 2, 3), (5, 2, 2), (3, 4, 2), (2, 3, 3)]


def test_lifted_steps_and_kernels_match_sweeps(f5):
    """Kernels from basis images against the per-vector sweep: bc16, bc81,
    F5, seeded random braces and the two Jordan-pair braces."""
    rng = random.Random(sb.DEFAULT_SEED + 5)
    braces = [bc16(), bc81(), f5, psi_jordan_pair(), phi_jordan_pair()]
    braces += [random_bc(rng, *shape) for shape in LIFT_SHAPES for _ in range(2)]
    for brace in braces:
        count, refused = check_lifted_steps_and_kernels(brace)
        assert count * len(MAP_SETS) > refused
    assert ker_psi(psi_jordan_pair()) == Subspace.from_vectors(3, 2, [(1, 1)])
    assert ker_phi(phi_jordan_pair()) == Subspace.from_vectors(3, 2, [(1, 1)])


def _rebuilt(seed, shape):
    """A maker that builds the same seeded random brace on every call."""
    return lambda: random_bc(random.Random(seed), *shape)


MEMO_BRACES = {
    "bc16": bc16,
    "bc81": bc81,
    "F5": lambda: sb.make_counterexample_F(5),
    "F7": lambda: sb.make_counterexample_F(7),
    **{f"random{shape}": _rebuilt(sb.DEFAULT_SEED + i, shape) for i, shape in enumerate(LIFT_SHAPES)},
}


@pytest.mark.parametrize("name", MEMO_BRACES)
def test_memoized_solves_do_not_depend_on_chain_order(name):
    """The fixer and difference-span solves are memoized per brace, so a chain
    may read solves another chain stored. All ten chains, computed in list
    order on one brace and in reverse order on another, equal each chain
    computed on a fresh brace; bc16 and bc81 also equal the table chains."""
    make = MEMO_BRACES[name]
    fresh = {fn: fn(make()) for fn in ALL_CHAINS}
    table = sb.materialize_table_brace(make()) if name in ("bc16", "bc81") else None
    for order in (ALL_CHAINS, ALL_CHAINS[::-1]):
        brace = make()
        for fn in order:
            chain = fn(brace)
            assert chain == fresh[fn], fn.__name__
            if table is not None:
                slow = fn(table)
                assert [t.sorted() for t in chain.terms] == [t.sorted() for t in slow.terms], fn.__name__
                assert chain.reaches_terminal == slow.reaches_terminal
                assert chain.stabilized_at == slow.stabilized_at


def test_jordan_pair_memos_never_answer_for_each_other():
    """The two Jordan-pair braces mirror each other: ker(phi) is all of C on
    one and span((1, 1)) on the other, ker(psi) the reverse, and both are
    solved from the zero subspace, whose basis is empty on either side of
    either brace. Interleaved, each brace keeps its own kernels and the chains
    of its own tables, so a memo keyed without the side, or shared between
    braces, would show. A refused solve stores nothing and is refused again."""
    line = Subspace.from_vectors(3, 2, [(1, 1)])
    braces = [psi_jordan_pair(), phi_jordan_pair()]
    kernels = [(Subspace.full(3, 3), line), (line, Subspace.full(3, 3))]
    tables = [sb.materialize_table_brace(make()) for make in (psi_jordan_pair, phi_jordan_pair)]
    for i in (0, 1, 1, 0):
        assert (ker_phi(braces[i]), ker_psi(braces[i])) == kernels[i]
    for fn in ALL_CHAINS:
        for brace, table in zip(braces, tables):
            fast, slow = fn(brace), fn(table)
            assert [t.sorted() for t in fast.terms] == [t.sorted() for t in slow.terms], fn.__name__
    # J e_3 = e_2 + e_3, so span(e_3) is not phi-invariant on phi_jordan_pair.
    brace = braces[1]
    cached = dict(brace._cache)
    for _ in range(2):
        with pytest.raises(errors.AlgebraError):
            formula._fixers(brace, "phi", span_of_units(3, 3, [3]))
    assert brace._cache == cached


def test_each_fixer_solve_runs_once_per_brace(monkeypatch):
    """Building F7 solves no fixer set, as `bc_brace` tests its condition
    column by column; its socle series solves ker(phi) level by level with
    the other fixer sets, and every (side, space) is solved once. A solve
    below the full space lifts `space` once, so `_lift` calls made by
    `_fixers` count solves."""
    solves = []
    lift = formula._lift

    def counted(domain, space, units):
        if sys._getframe(1).f_code.co_name == "_fixers":
            solves.append((units, space.basis))
        return lift(domain, space, units)

    monkeypatch.setattr(formula, "_lift", counted)
    brace = sb.make_counterexample_F(7)
    built = len(solves)
    sb.socle_series(brace)
    sides = {"phi": formula._units(brace.dphi, brace.d_c), "psi": formula._units(brace.dpsi, brace.d_b)}
    assert sides["phi"] != sides["psi"]
    keys = [(next(s for s, u in sides.items() if u == units), basis) for units, basis in solves]
    assert len(keys) == len(set(keys)) > built, keys
    assert built == 0


def test_star_closed_form_matches_generic_definition(f5):
    """a^-1 . (a o b) . b^-1 computed with raw ops, against the closed form."""
    rng = random.Random(sb.DEFAULT_SEED)
    for brace in (bc16(), f5):
        n = brace.order
        for _ in range(10_000):
            a, b = rng.randrange(n), rng.randrange(n)
            lam_generic = brace.dot(brace.inv(a), brace.circ(a, b))
            assert brace.lam(a, b) == lam_generic
            assert brace.star(a, b) == brace.dot(lam_generic, brace.inv(b))


def test_commutator_closed_form_matches_generic(f5):
    rng = random.Random(sb.DEFAULT_SEED + 1)
    for brace in (bc81(), f5):
        n = brace.order
        for _ in range(10_000):
            a, b = rng.randrange(n), rng.randrange(n)
            dd = brace.dot(brace.dot(a, b), brace.dot(brace.inv(a), brace.inv(b)))
            assert brace.comm_dot(a, b) == dd
            cc = brace.circ(brace.circ(a, b), brace.circ(brace.bar(a), brace.bar(b)))
            assert brace.comm_circ(a, b) == cc


def test_f5_right_series_subspaces(f5):
    right = sb.right_series(f5)
    assert right.at(2).pair == PairSpace(
        span_of_units(5, 4, (1, 2, 3)), span_of_units(5, 4, (1, 2))
    )
    assert len(right.at(2)) == 3125
    assert right.at(3).pair == PairSpace(
        span_of_units(5, 4, ()), span_of_units(5, 4, (1, 2))
    )
    assert len(right.at(3)) == 25
    assert right.reaches_terminal  # A^(4) = 1 here


def test_f5_left_series_subspaces(f5):
    left = sb.left_series(f5)
    expected = [
        (4, 4),
        (3, 2),
        (2, 1),
        (1, 0),
        (0, 0),
    ]
    got = [(t.pair.b.rank, t.pair.c.rank) for t in left.terms]
    assert got == expected


def test_f5_annihilator_series_exact(f5):
    """Computed exactly; the expected containments happen to be equalities."""
    ann = sb.annihilator_series(f5)
    ranks = [(t.pair.b.rank, t.pair.c.rank) for t in ann.terms]
    assert ranks == [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]
    assert ann.terminal_class() == 4


def test_f5_gamma_series(f5):
    gamma = sb.gamma_series(f5)
    ranks = [(t.pair.b.rank, t.pair.c.rank) for t in gamma.terms]
    assert ranks == [(4, 4), (3, 2), (2, 2), (1, 1), (0, 0)]
    assert gamma.terminal_class() == 5


def test_f5_smoktunowicz_series(f5):
    """Reaches the identity, squeezed between the one-sided chains."""
    smok = sb.smoktunowicz_series(f5)
    ranks = [(t.pair.b.rank, t.pair.c.rank) for t in smok.terms]
    assert ranks == [(4, 4), (3, 2), (2, 2), (1, 1), (0, 1), (0, 0)]
    assert smok.reaches_terminal
    left, right = sb.left_series(f5), sb.right_series(f5)
    for i in range(1, len(smok) + 1):
        assert smok.at(i).pair.contains_pair(left.at(i).pair)
        assert smok.at(i).pair.contains_pair(right.at(i).pair)


def test_f5_socle_series(f5):
    soc = sb.socle_series(f5)
    ranks = [(t.pair.b.rank, t.pair.c.rank) for t in soc.terms]
    assert ranks == [(0, 0), (1, 3), (2, 3), (3, 3), (4, 4)]


def pair_chains(brace, on_step=None):
    """The six series on PairSpace terms through `groups.run_chain`, with no
    element set built; `on_step(kind, step)` may wrap each step."""
    full, trivial = brace.full_pair(), brace.trivial_pair()
    steps = {
        "left": (full, lambda t: formula.star_subgroup_pair(brace, t[0], t[-1]), False, 2),
        "right": (full, lambda t: formula.star_subgroup_pair(brace, t[-1], t[0]), False, 2),
        "smoktunowicz": (full, lambda t: formula.bc_smoktunowicz_step(brace, t), False, 3),
        "socle": (trivial, lambda t: formula.bc_socle_step(brace, t[-1]), True, 2),
        "annihilator": (trivial, lambda t: formula.bc_annihilator_step(brace, t[-1]), True, 2),
        "gamma": (full, lambda t: formula.bc_gamma_step(brace, t), False, 2),
    }
    wrap = on_step or (lambda kind, step: step)
    return {
        kind: groups.run_chain(kind, start, wrap(kind, step), ascending, plateau)
        for kind, (start, step, ascending, plateau) in steps.items()
    }


def chain_shape(chain):
    return [(t.b.rank, t.c.rank) for t in chain.terms], chain.reaches_terminal


def test_f7_same_shape():
    """F7 has the right series of F5; F11 (order 11^8) has the six pair-space
    chains of F7, and each lifted step builds a number of dphi/dpsi matrices
    polynomial in the dimension, not 11^4."""
    brace = sb.make_counterexample_F(7)
    right = sb.right_series(brace)
    assert [t.pair.b.rank for t in right.terms] == [4, 3, 0, 0]
    assert [t.pair.c.rank for t in right.terms] == [4, 2, 2, 0]
    f7 = {kind: chain_shape(chain) for kind, chain in pair_chains(brace).items()}
    assert f7["socle"] == ([(0, 0), (1, 3), (2, 3), (3, 3), (4, 4)], True)

    f11 = sb.make_counterexample_F(11)
    made = [0]
    for name in ("dphi", "dpsi"):

        def counted(v, diff=getattr(f11, name)):
            made[0] += 1
            return diff(v)

        setattr(f11, name, counted)
    per_step = []

    def on_step(kind, step):
        if kind not in ("socle", "annihilator"):
            return step

        def run(terms):
            before = made[0]
            out = step(terms)
            per_step.append(made[0] - before)
            return out

        return run

    chains = pair_chains(f11, on_step)
    assert {kind: chain_shape(chain) for kind, chain in chains.items()} == f7
    assert len(per_step) >= 8 and max(per_step) <= 200, per_step


def test_identity_psi_kills_second_star_component():
    brace = sb.make_bc_brace(2, 2, 2, (I2, UNI2), (I2, I2))
    zero = (0, 0)
    for a in range(brace.order):
        for b in range(brace.order):
            assert brace.vstar(brace.decode(a), brace.decode(b))[1] == zero


def test_quotients_of_formula_braces_are_refused(f5):
    with pytest.raises(errors.TooLarge, match="quotient_brace needs a table brace"):
        sb.quotient_brace(f5, sb.annihilator_series(f5).at(1))
    with pytest.raises(errors.TooLarge, match="socle_quotient_tower needs a table brace"):
        sb.socle_quotient_tower(f5)


def _chain_terms(brace) -> list[PairSpace]:
    """The distinct terms of the ten chains, in first-seen order."""
    return list(dict.fromkeys(t for fn in ALL_CHAINS for t in fn(brace).terms))


@pytest.mark.parametrize("make", [bc16, bc81, lambda: sb.make_counterexample_F(5)])
def test_membership_matches_subspace_test(make):
    """`x in term` against the subspace test on every distinct chain term,
    the full term (a bound check) among them; indices outside the carrier
    are in no term."""
    brace = make()
    rng = random.Random(7)
    order = brace.order
    terms = _chain_terms(brace)
    assert {type(t) for t in terms} == {PairSpace, formula._FullPairSpace}
    for term in terms:
        inside = [0, order - 1] + [rng.randrange(order) for _ in range(200)]
        for x in inside:
            assert (x in term) == term.contains(*brace.decode(x)), (term, x)
        assert -1 not in term and order not in term
    full = PairSpace(Subspace.full(brace.p, brace.d_b), Subspace.full(brace.p, brace.d_c))
    assert full == brace.full_pair() and hash(full) == hash(brace.full_pair())
    assert type(dataclasses.replace(full, c=Subspace.full(brace.p, brace.d_c))) is type(full)
    zero_c = Subspace.zero(brace.p, brace.d_c)
    proper = dataclasses.replace(full, c=zero_c)
    assert type(proper) is PairSpace and proper == PairSpace(full.b, zero_c)
    assert type(brace.trivial_pair()) is PairSpace
    for term in (full, brace.trivial_pair()):
        assert copy.copy(term) == term and pickle.loads(pickle.dumps(term)) == term


def test_full_term_membership_lists_nothing():
    """Reading every F5 chain term by membership, as the formula_p8 bench
    workload does, lists the partial terms but not the 5^8-element full
    term; on 11^8 the full term answers without reaching TABLE_CAP."""
    brace = sb.make_counterexample_F(5)
    terms = _chain_terms(brace)
    tracemalloc.start()
    for term in terms:
        assert 0 in term
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    (full,) = [t for t in terms if t.is_full]
    assert full._members is None
    assert all(t._members is not None for t in terms if not t.is_full)
    assert peak < 5_000_000  # the full term's index set alone is ~28 MB
    f11 = sb.make_counterexample_F(11).full_pair()
    assert 0 in f11 and 11**8 - 1 in f11 and 11**8 not in f11
