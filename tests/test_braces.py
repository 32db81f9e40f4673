"""Brace validation, lambda/star/bar, the identity suite, and the builders."""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json

import pytest

import skewbrace as sb
from skewbrace import cli, errors
from tests.conftest import identity_report_one_at_a_time, radical_z4_tables
from tests.test_enumeration import _all_group_tables


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def relabeled_cyclic4():
    """C4 with the labels 2 and 3 swapped; a group, but not a brace with C4."""
    sigma = [0, 1, 3, 2]
    return [[sigma[(sigma[a] + sigma[b]) % 4] for b in range(4)] for a in range(4)]


def test_validate_trivial_pair(groups):
    brace = sb.validate_brace(c := cyclic_table(6), c)
    assert brace.order == 6


def test_pq_brace_validates():
    brace = sb.make_pq_brace(3, 2, 2, "i")
    assert brace.order == 6
    assert brace.dot_group.is_abelian()
    assert not brace.circ_group.is_abelian()


def test_brace_relation_failure_witnessed():
    with pytest.raises(errors.BraceRelationFails) as info:
        sb.validate_brace(cyclic_table(4), relabeled_cyclic4())
    assert len(info.value.witness) == 3


def _relation_fails(dot, circ, a, b, c) -> bool:
    """a o (b . c) != (a o b) . a^-1 . (a o c)."""
    d, o = dot.mul, circ.mul
    return o[a][d[b][c]] != d[d[o[a][b]][dot.inv[a]]][o[a][c]]


def _lambda_fails(dot, circ, a, b) -> bool:
    """lambda_{a o b} != lambda_a lambda_b somewhere."""
    d, o, inv = dot.mul, circ.mul, dot.inv

    def lam(g, x):
        return d[inv[g]][o[g][x]]

    return any(lam(o[a][b], x) != lam(a, lam(b, x)) for x in dot.elements())


def test_generator_check_matches_exhaustive_check():
    """validate_brace, which checks the relation on generators, accepts
    exactly the pairs of group tables that pass the relation on every triple
    and the lambda homomorphism on every pair; each witness it raises is a
    real failure."""
    pairs = 0
    for n in range(1, 7):
        tables = [sb.validate_group(t) for t in _all_group_tables(n)]
        carrier = range(n)
        for dot in tables:
            for circ in tables:
                pairs += 1
                exhaustive = not any(
                    _relation_fails(dot, circ, a, b, c)
                    for a in carrier
                    for b in carrier
                    for c in carrier
                ) and not any(_lambda_fails(dot, circ, a, b) for a in carrier for b in carrier)
                try:
                    sb.validate_brace(dot, circ)
                    accepted = True
                except errors.BraceRelationFails as exc:
                    assert _relation_fails(dot, circ, *exc.witness)
                    accepted = False
                assert accepted == exhaustive, (dot.mul, circ.mul)
    assert pairs == 6455


def test_brace_relation_checked_on_every_dot_generator():
    """(A, .) = C2^3 as xor and (A, o) = Z/8 on bit-reversed labels: the
    relation holds for c = 1, the first generator, and fails for c = 2."""
    rev = [int(f"{x:03b}"[::-1], 2) for x in range(8)]
    dot = sb.validate_group([[a ^ b for b in range(8)] for a in range(8)])
    circ = sb.validate_group([[rev[(rev[a] + rev[b]) % 8] for b in range(8)] for a in range(8)])
    with pytest.raises(errors.BraceRelationFails) as info:
        sb.validate_brace(dot, circ)
    assert _relation_fails(dot, circ, *info.value.witness)
    assert info.value.witness[2] != 1


def test_identity_mismatch():
    xor = [[a ^ b for b in range(4)] for a in range(4)]
    shifted = [[(1 ^ ((1 ^ a) ^ (1 ^ b))) for b in range(4)] for a in range(4)]
    assert shifted[1][1] == 1  # identity moved to index 1
    with pytest.raises(errors.IdentityMismatch):
        sb.validate_brace(cyclic_table(4), shifted)
    del xor


def test_cyclic4_with_klein_is_a_brace():
    """The xor table with the cyclic one genuinely satisfies the relation."""
    xor = [[a ^ b for b in range(4)] for a in range(4)]
    brace = sb.validate_brace(cyclic_table(4), xor)
    assert brace.star(1, 1) == 2


def lambda_perm(brace, a):
    """lambda_a as a permutation tuple of the carrier."""
    return tuple(brace.lam(a, b) for b in brace.elements())


def test_lambda_trivial_is_identity(groups):
    brace = sb.build_trivial(groups["S3"])
    for a in brace.elements():
        assert lambda_perm(brace, a) == tuple(range(6))


def test_lambda_almost_trivial_is_conjugation(groups):
    g = groups["S3"]
    brace = sb.build_almost_trivial(g)
    for a in brace.elements():
        expected = tuple(g.mul[g.mul[g.inv[a]][b]][a] for b in range(6))
        assert lambda_perm(brace, a) == expected


def test_lambda_pq_closed_form():
    brace = sb.make_pq_brace(3, 2, 2, "i")
    a = 0 + 3 * 1  # the element (0, 1)
    perm = lambda_perm(brace, a)
    expected = tuple((2 * s) % 3 + 3 * t for t in range(2) for s in range(3))
    assert perm == expected


def test_star_pq_closed_form():
    """Every star value matches ((k^j - 1) s mod p, 0)."""
    for p, q, k in ((3, 2, 2), (7, 3, 2)):
        brace = sb.make_pq_brace(p, q, k, "i")
        for i in range(p):
            for j in range(q):
                for s in range(p):
                    for t in range(q):
                        got = brace.star(i + p * j, s + p * t)
                        assert got == ((pow(k, j, p) - 1) * s) % p
    assert sb.make_pq_brace(3, 2, 2, "i").star(0 + 3 * 1, 1) == 1


def test_star_pq_variant_ii_closed_form():
    """Every star value matches (k^-j (k^t - 1) i mod p, 0)."""
    for p, q, k in ((3, 2, 2), (7, 3, 2)):
        brace = sb.make_pq_brace(p, q, k, "ii")
        for i in range(p):
            for j in range(q):
                for s in range(p):
                    for t in range(q):
                        got = brace.star(i + p * j, s + p * t)
                        expected = (pow(k, -j, p) * (pow(k, t, p) - 1) * i) % p
                        assert got == expected


def test_star_trivial_vanishes(groups):
    brace = sb.build_trivial(groups["S3"])
    assert all(brace.star(a, b) == 0 for a in range(6) for b in range(6))


def test_star_identity_absorbs(catalog):
    for name, brace in catalog:
        if brace.order > 64:
            continue
        for x in brace.elements():
            assert brace.star(0, x) == 0
            assert brace.star(x, 0) == 0


def test_bar(groups):
    brace = sb.build_trivial(groups["S3"])
    assert brace.bar(0) == 0
    for a in brace.elements():
        assert brace.bar(a) == brace.inv(a)
    pq = sb.make_pq_brace(3, 2, 2, "i")
    a = 1 + 3 * 1
    assert pq.circ(a, pq.bar(a)) == 0


def test_circ_decomposes_through_lambda(catalog):
    """a o b = a . lam_a(b) and a . b = a o lam_{bar a}(b)."""
    for name, brace in catalog:
        if brace.order > 64:
            continue
        for a in brace.elements():
            for b in brace.elements():
                assert brace.circ(a, b) == brace.dot(a, brace.lam(a, b)), name
                assert brace.dot(a, b) == brace.circ(a, brace.lam(brace.bar(a), b)), name


def test_lambda_preserves_dot(catalog):
    for name, brace in catalog:
        if brace.order > 21:
            continue
        for a in brace.elements():
            for x in brace.elements():
                for y in brace.elements():
                    lhs = brace.lam(a, brace.dot(x, y))
                    assert lhs == brace.dot(brace.lam(a, x), brace.lam(a, y)), name


def test_lambda_is_homomorphism(catalog):
    for name, brace in catalog:
        if brace.order > 64:
            continue
        for a in brace.elements():
            for b in brace.elements():
                ab = brace.circ(a, b)
                for x in brace.elements():
                    assert brace.lam(ab, x) == brace.lam(a, brace.lam(b, x)), name


def test_check_identities_trivial(groups):
    report = sb.check_identities(sb.build_trivial(groups["S3"]))
    assert report["passed"]
    assert report["checked"] == 216


def test_check_identities_pq():
    for variant in ("i", "ii"):
        report = sb.check_identities(sb.make_pq_brace(3, 2, 2, variant))
        assert report["passed"], report["failures"]


@pytest.mark.parametrize("entry", [None, (0, 0), (1, 3), (2, 5), (5, 5)])
def test_identity_report_matches_one_at_a_time(groups, entry):
    brace = sb.build_almost_trivial(groups["S3"])
    if entry is not None:  # one wrong entry of the star table
        a, b = entry
        rows = [list(row) for row in brace._tabulate()[1]]
        rows[a][b] = (rows[a][b] + 1) % brace.order
        brace._star_table = tuple(map(tuple, rows))
    report = sb.check_identities(brace)
    assert report == identity_report_one_at_a_time(brace)
    assert report["passed"] == (entry is None)
    assert len(report["failures"]) == (0 if entry is None else 8)


def test_trivial_brace_series(groups):
    brace = sb.build_trivial(groups["S3"])
    left = sb.left_series(brace)
    right = sb.right_series(brace)
    assert [len(t) for t in left.terms] == [6, 1]
    assert [len(t) for t in right.terms] == [6, 1]


def test_almost_trivial_series_match_group_series(groups):
    for name in ("S3", "D4", "Q8", "A4"):
        g = groups[name]
        brace = sb.build_almost_trivial(g)
        low = sb.lower_central_series(g)
        left = sb.left_series(brace)
        right = sb.right_series(brace)
        depth = max(len(left), len(right), len(low))
        for i in range(1, depth + 1):
            assert left.at(i).members == low.at(i).members, name
            assert right.at(i).members == low.at(i).members, name


def test_radical_ring_zero_multiplication():
    add = cyclic_table(3)
    zero = [[0] * 3 for _ in range(3)]
    brace = sb.build_from_radical_ring(add, zero)
    assert brace.dot_group.mul == brace.circ_group.mul


def test_radical_ring_square_zero_two_elements():
    add = cyclic_table(2)
    zero = [[0, 0], [0, 0]]
    brace = sb.build_from_radical_ring(add, zero)
    assert brace.order == 2


def test_radical_ring_z4_double_product():
    add, mult = radical_z4_tables()
    brace = sb.build_from_radical_ring(add, mult)
    assert brace.star(1, 1) == 2
    assert brace.circ_group.is_abelian()
    # the circle group is the Klein table here
    assert all(brace.circ(x, x) == 0 for x in range(4))


def test_radical_ring_rejects_unital():
    add = cyclic_table(4)
    mult = [[(a * b) % 4 for b in range(4)] for a in range(4)]
    with pytest.raises(errors.NotRadical):
        sb.build_from_radical_ring(add, mult)


def test_radical_ring_rejects_non_ring():
    add = cyclic_table(3)
    mult = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    with pytest.raises(errors.NotARing):
        sb.build_from_radical_ring(add, mult)


def test_radical_ring_rejects_displaced_zero():
    shifted_add = [[(1 + ((a - 1) + (b - 1))) % 3 + 0 for b in range(3)] for a in range(3)]
    # zero of this table sits at index 1, which would desync the tables
    with pytest.raises(errors.NotARing):
        sb.build_from_radical_ring(shifted_add, [[0] * 3 for _ in range(3)])


def _z3_with(row, col, value):
    table = cyclic_table(3)
    table[row][col] = value
    return table


NOT_SQUARE = ("ParseError: dot table is not square", "ParseError: addition table is not square",
              "ParseError: multiplication table shape does not match addition")
NOT_ITERABLE = "TypeError: 'int' object is not iterable"
OUTSIDE_MULT = "ParseError: multiplication table entries outside the carrier"


# Each malformed table, then the error of validate_group on it, of
# validate_brace with it as dot, of build_from_radical_ring with it as add
# and as mult, and the exit code and stderr of `analyze` on a tables spec with
# it as dot. One row parser serves all four; these pin what each raised
# before it was shared, check order included.
MALFORMED_TABLES = {
    "bool": (_z3_with(1, 0, True), *["ParseError: expected an integer, got True"] * 4,
             "1 parse error: expected an integer, got True"),
    "bool_in_row_0": (_z3_with(0, 0, False), *["ParseError: expected an integer, got False"] * 4,
                      "1 parse error: expected an integer, got False"),
    "float": (_z3_with(1, 1, 2.0), *["ParseError: expected an integer, got 2.0"] * 4,
              "1 parse error: expected an integer, got 2.0"),
    "str": (_z3_with(2, 2, "1"), *["ParseError: expected an integer, got '1'"] * 4,
            "1 parse error: expected an integer, got '1'"),
    "short_row": ([[0, 1, 2], [1, 2], [2, 0, 1]], "ParseError: row 1 has length 2, expected 3",
                  *NOT_SQUARE, "1 parse error: dot table is not square"),
    "non_list_row": ([[0, 1, 2], 5, [2, 0, 1]], "ParseError: row 1 is not a list", *[NOT_ITERABLE] * 3,
                     "1 parse error: brace spec of kind 'tables' has a malformed field: "
                     "'int' object is not iterable"),
    "minus_one": (_z3_with(2, 1, -1), *["ParseError: row 2 has entries outside 0..2"] * 3, OUTSIDE_MULT,
                  "1 parse error: row 2 has entries outside 0..2"),
    "n": (_z3_with(1, 2, 3), *["ParseError: row 1 has entries outside 0..2"] * 3, OUTSIDE_MULT,
          "1 parse error: row 1 has entries outside 0..2"),
    # the identity row is checked before the range and before any relabeling
    "minus_one_in_row_0": (_z3_with(0, 2, -1), "ParseError: row 0 has entries outside 0..2",
                           "IdentityMismatch: dot identity is not at index 0",
                           "NotARing: not a ring: the zero element must sit at index 0", OUTSIDE_MULT,
                           "2 validation error: dot identity is not at index 0"),
    "identity_at_1": ([[2, 0, 1], [0, 1, 2], [1, 2, 0]], "ok",
                      "IdentityMismatch: dot identity is not at index 0",
                      "NotARing: not a ring: the zero element must sit at index 0",
                      "NotARing: not a ring: left distributivity fails at (0, 0, 1)",
                      "2 validation error: dot identity is not at index 0"),
    "non_square": ([[0, 1, 2], [1, 2, 0]], "ParseError: row 0 has length 3, expected 2", *NOT_SQUARE,
                   "1 parse error: dot table is not square"),
}


def _raised(fn) -> str:
    try:
        fn()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


@pytest.mark.parametrize("name", list(MALFORMED_TABLES))
def test_malformed_tables_raise_the_same_errors_everywhere(name, tmp_path):
    table, group, brace, ring_add, ring_mult, cli_out = MALFORMED_TABLES[name]
    z3, zero = cyclic_table(3), [[0] * 3 for _ in range(3)]
    assert _raised(lambda: sb.validate_group(table)) == group
    assert _raised(lambda: sb.validate_brace(table, z3)) == brace
    assert _raised(lambda: sb.build_from_radical_ring(table, zero)) == ring_add
    assert _raised(lambda: sb.build_from_radical_ring(z3, table)) == ring_mult
    path = tmp_path / "brace.json"
    path.write_text(json.dumps({"kind": "tables", "dot": table, "circ": z3}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", str(path), "--json"])
    assert f"{code} {err.getvalue().strip()}" == cli_out


def test_radical_ring_star_equals_multiplication():
    add, mult = radical_z4_tables()
    brace = sb.build_from_radical_ring(add, mult)
    for a in range(4):
        for b in range(4):
            assert brace.star(a, b) == mult[a][b]


RING_LAWS = {
    "multiplication not associative": lambda add, m, a, b, c: m[m[a][b]][c] != m[a][m[b][c]],
    "left distributivity fails": lambda add, m, a, b, c: m[a][add[b][c]] != add[m[a][b]][m[a][c]],
    "right distributivity fails": lambda add, m, a, b, c: m[add[a][b]][c] != add[m[a][c]][m[b][c]],
}


def _check_radical_ring(add, mult):
    """build_from_radical_ring, which checks the ring laws on additive
    generators, raises NotARing exactly when a law fails on some triple, with
    a real witness; an accepted ring is NotRadical exactly when some element
    has no circle inverse, and otherwise gives a brace whose star is the
    ring product. Returns the outcome's name."""
    carrier = range(len(add))
    triples = list(itertools.product(carrier, repeat=3))
    ring = not any(law(add, mult, *w) for law in RING_LAWS.values() for w in triples)
    try:
        brace = sb.build_from_radical_ring(add, mult)
    except errors.NotARing as exc:
        assert not ring
        reason = str(exc).removeprefix("not a ring: ").split(" at ")[0]
        assert RING_LAWS[reason](add, mult, *exc.witness), (add, mult, exc)
        return "not a ring"
    except errors.NotRadical:
        assert ring
        circ = [[add[add[a][b]][mult[a][b]] for b in carrier] for a in carrier]
        assert any(all(circ[a][b] != 0 for b in carrier) for a in carrier)
        return "not radical"
    assert ring
    sb.validate_brace(brace.dot_group, brace.circ_group)
    assert all(brace.star(a, b) == mult[a][b] for a in carrier for b in carrier)
    return "radical"


def test_radical_ring_laws_match_exhaustive_check():
    outcomes = collections.Counter()
    for n in (2, 3):
        add = cyclic_table(n)
        for entries in itertools.product(range(n), repeat=n * n):
            mult = [list(entries[a * n:(a + 1) * n]) for a in range(n)]
            outcomes[n, _check_radical_ring(add, mult)] += 1
    # F2[x] mod x^4, restricted to the ideal spanned by x, x^2, x^3 (bits 0..2).
    def poly_mul(a, b):
        out = 0
        for i in range(3):
            if a >> i & 1:
                out ^= b << (i + 1)
        return out & 7

    xor = [[a ^ b for b in range(8)] for a in range(8)]
    ring = [[poly_mul(a, b) for b in range(8)] for a in range(8)]
    assert _check_radical_ring(xor, ring) == "radical"
    for a, b, v in itertools.product(range(8), repeat=3):
        mutant = [list(row) for row in ring]
        mutant[a][b] = v
        outcomes[8, _check_radical_ring(xor, mutant)] += 1
    # Tables that need the generators past the first (1): the ring above with
    # one value added to both of (a, b), (a, b ^ 1), which keeps
    # a(b + 1) = ab + a1, and every bilinear product on F2^2, which is
    # distributive and associative or not.
    for a, b, d in itertools.product(range(8), (2, 4, 6), range(1, 8)):
        mutant = [list(row) for row in ring]
        mutant[a][b] ^= d
        mutant[a][b ^ 1] ^= d
        outcomes["pair", _check_radical_ring(xor, mutant)] += 1
    for e in itertools.product(range(4), repeat=4):
        mult = [[0] * 4 for _ in range(4)]
        for a, b, i, j in itertools.product(range(4), range(4), range(2), range(2)):
            if a >> i & 1 and b >> j & 1:
                mult[a][b] ^= e[2 * i + j]
        outcomes["F2^2", _check_radical_ring([r[:4] for r in xor[:4]], mult)] += 1
    # The rings on Z/n are a * b = kab; only k = 0 is radical. Every true
    # mutant breaks a ring law. F2^2 carries 28 associative products; the
    # radical ones are zero and the 3 labelings of x F2[x] / (x^3).
    assert outcomes == {
        (2, "not a ring"): 16 - 2, (2, "radical"): 1, (2, "not radical"): 1,
        (3, "not a ring"): 3**9 - 3, (3, "radical"): 1, (3, "not radical"): 2,
        (8, "not a ring"): 8 * 8 * 7, (8, "radical"): 8 * 8,
        ("pair", "not a ring"): 8 * 3 * 7,
        ("F2^2", "not a ring"): 256 - 28, ("F2^2", "radical"): 4, ("F2^2", "not radical"): 24,
    }
