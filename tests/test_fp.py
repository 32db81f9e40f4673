"""Subspaces of F_p^dim against brute-force span enumeration."""

from __future__ import annotations

import itertools
import random

from skewbrace.fp import Subspace, mat_identity, mat_is_invertible, mat_mul, mat_pow


def span(p: int, dim: int, vecs) -> set[tuple[int, ...]]:
    """Every linear combination of `vecs`, listed."""
    vecs = list(vecs)
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(vecs)):
        acc = [0] * dim
        for c, v in zip(coeffs, vecs):
            acc = [(x + c * y) % p for x, y in zip(acc, v)]
        out.add(tuple(acc))
    return out


def check_rref(space: Subspace) -> None:
    rows = space.basis
    assert list(space.pivots) == sorted(set(space.pivots))
    for row, j in zip(rows, space.pivots):
        assert not any(row[:j]) and row[j] == 1
        assert [r[j] for r in rows].count(0) == len(rows) - 1


def test_subspace_matches_brute_force_spans():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for dim in range(1, 5 if p < 5 else 4):
            for _ in range(40):
                vecs = [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(rng.randrange(5))]
                members = span(p, dim, vecs)
                space = Subspace.from_vectors(p, dim, vecs)
                check_rref(space)
                assert set(space.elements()) == members and space.size == len(members)
                # canonical: any spanning list of the same space gives the same basis
                assert Subspace.from_vectors(p, dim, rng.sample(sorted(members), len(members))) == space
                extra = [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(rng.randrange(3))]
                assert space.extended(extra) == Subspace.from_vectors(p, dim, vecs + extra)
                for v in itertools.product(range(p), repeat=dim):
                    r = space.residue(v)
                    assert tuple((x - y) % p for x, y in zip(v, r)) in members
                    assert not any(r[j] for j in space.pivots)
                    assert space.contains(v) == (v in members)
                width = rng.randrange(1, 4)
                images = [tuple(rng.randrange(p) for _ in range(width)) for _ in space.basis]
                kernel = {
                    tuple(sum(c * v[i] for c, v in zip(coeffs, space.basis)) % p for i in range(dim))
                    for coeffs in itertools.product(range(p), repeat=space.rank)
                    if not any(sum(c * w[i] for c, w in zip(coeffs, images)) % p for i in range(width))
                }
                found = space.kernel(images)
                check_rref(found)
                assert set(found.elements()) == kernel
                assert found == Subspace.from_vectors(p, dim, kernel)


def test_mat_mul_matches_triple_loop():
    rng = random.Random(17)
    for p in (2, 3, 5, 7):
        for _ in range(30):
            n, k, m = (rng.randrange(1, 5) for _ in range(3))
            a = tuple(tuple(rng.randrange(p) for _ in range(k)) for _ in range(n))
            b = tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(k))
            naive = [[0] * m for _ in range(n)]
            for i in range(n):
                for j in range(m):
                    for t in range(k):
                        naive[i][j] = (naive[i][j] + a[i][t] * b[t][j]) % p
            assert mat_mul(a, b, p) == tuple(map(tuple, naive))


def test_mat_pow_matches_repeated_products():
    """m^t by squaring equals the product of t copies of m (the identity at
    t = 0) on seeded random invertible matrices, t from 0 to 3p."""
    rng = random.Random(19)
    tested = 0
    for p in (2, 3, 5, 7):
        for _ in range(8):
            n = rng.randrange(1, 5)
            m = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
            if not mat_is_invertible(m, p):
                continue
            tested += 1
            power = mat_identity(n)
            for t in range(3 * p + 1):
                assert mat_pow(m, t, p) == power, (p, m, t)
                power = mat_mul(power, m, p)
    assert tested >= 12, tested
