"""Small dense linear algebra over prime fields F_p.

Vectors are tuples of ints in [0, p); matrices are tuples of row tuples
acting on column vectors from the left. Everything here is sized for the
4x4-over-F_5 scale of the matrix brace constructions, so plain Python
arithmetic is deliberate.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def vec_neg(u: Vec, p: int) -> Vec:
    return tuple((-a) % p for a in u)


def zero_vec(dim: int) -> Vec:
    return (0,) * dim


def unit_vec(dim: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(dim))


def mat_identity(dim: int) -> Mat:
    return tuple(unit_vec(dim, i) for i in range(dim))


def mat_vec(m: Mat, v: Vec, p: int) -> Vec:
    return tuple(sum(map(operator.mul, row, v)) % p for row in m)


def mat_mul(a: Mat, b: Mat, p: int) -> Mat:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) % p for col in cols) for row in a)


def mat_pow(m: Mat, t: int, p: int) -> Mat:
    """m^t for t >= 0 by repeated squaring: bit_length(t) squarings."""
    out = mat_identity(len(m))
    while t:
        if t & 1:
            out = mat_mul(out, m, p)
        t >>= 1
        m = mat_mul(m, m, p)
    return out


def mat_sub(a: Mat, b: Mat, p: int) -> Mat:
    return tuple(tuple((x - y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_is_invertible(m: Mat, p: int) -> bool:
    return len(m) == len(m[0]) and Subspace.from_vectors(p, len(m), m).rank == len(m)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^dim held as a reduced row echelon basis.

    The basis is canonical, so dataclass equality is subspace equality.
    """

    p: int
    dim: int
    basis: tuple[Vec, ...]

    @staticmethod
    def zero(p: int, dim: int) -> "Subspace":
        return Subspace(p, dim, ())

    @staticmethod
    def full(p: int, dim: int) -> "Subspace":
        return Subspace(p, dim, mat_identity(dim))

    @staticmethod
    def from_vectors(p: int, dim: int, vectors) -> "Subspace":
        rows: list[list[int]] = []
        pivots: list[int] = []
        for v in vectors:
            _reduce_into(rows, pivots, list(v), p)
        return Subspace(p, dim, _canonical(rows, pivots, p))

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.p**self.rank

    @functools.cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row, increasing."""
        return tuple(map(_pivot, self.basis))

    def residue(self, v: Vec) -> Vec:
        """The canonical representative of v modulo this subspace."""
        return tuple(_residue(self.basis, self.pivots, v, self.p))

    def contains(self, v: Vec) -> bool:
        return not any(_residue(self.basis, self.pivots, v, self.p))

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def extended(self, vectors) -> "Subspace":
        rows = [list(v) for v in self.basis]
        pivots = list(self.pivots)
        for v in vectors:
            _reduce_into(rows, pivots, list(v), self.p)
        return Subspace(self.p, self.dim, _canonical(rows, pivots, self.p))

    def union_span(self, other: "Subspace") -> "Subspace":
        return self.extended(other.basis)

    def kernel(self, images) -> "Subspace":
        """Members sent to 0 by the linear map taking basis[k] to images[k]: the
        basis parts of the rows [images[k] | basis[k]] whose image part reduces to 0."""
        rows: list[list[int]] = []
        pivots: list[int] = []
        for image, v in zip(images, self.basis):
            _reduce_into(rows, pivots, [*image, *v], self.p)
        width = len(rows[0]) - self.dim if rows else 0
        first = bisect.bisect_left(pivots, width)  # the rows with a zero image part
        kept = [r[width:] for r in rows[first:]]
        kept_pivots = [j - width for j in pivots[first:]]
        return Subspace(self.p, self.dim, _canonical(kept, kept_pivots, self.p))

    def elements(self):
        """Iterate all members, the zero vector first."""
        if not self.basis:
            yield zero_vec(self.dim)
            return
        for coeffs in itertools.product(range(self.p), repeat=self.rank):
            acc = [0] * self.dim
            for c, row in zip(coeffs, self.basis):
                if c:
                    for j, x in enumerate(row):
                        acc[j] = (acc[j] + c * x) % self.p
            yield tuple(acc)


def _pivot(row: Vec | list[int]) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    return -1


def _reduce_into(rows: list[list[int]], pivots: list[int], v: list[int], p: int) -> None:
    """Add v to the echelon rows, kept in increasing pivot order with unit
    pivots; `pivots` holds each row's pivot column."""
    v = _residue(rows, pivots, v, p)
    j = _pivot(v)
    if j < 0:
        return
    inv = pow(v[j], -1, p)
    v = [(x * inv) % p for x in v]
    i = bisect.bisect(pivots, j)
    rows.insert(i, v)
    pivots.insert(i, j)


def _residue(rows, pivots, v: Vec | list[int], p: int) -> list[int]:
    """v reduced by echelon rows with unit pivots, in increasing pivot order:
    zero at every pivot column afterwards."""
    v = [x % p for x in v]
    for j, row in zip(pivots, rows):
        c = v[j]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, row)]
    return v


def _canonical(rows: list[list[int]], pivots: list[int], p: int) -> tuple[Vec, ...]:
    # Back-substitute so every pivot column is cleared above its pivot.
    for i, j in enumerate(pivots):
        for k in range(i):
            c = rows[k][j]
            if c:
                rows[k] = [(x - c * y) % p for x, y in zip(rows[k], rows[i])]
    return tuple(map(tuple, rows))
