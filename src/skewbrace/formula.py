"""Formula-backed braces on a product of two prime-field vector spaces.

The carrier is B x C with B = F_p^{d_b}, C = F_p^{d_c}. Two commuting
families of invertible matrices (one per basis vector of the other factor)
define the actions phi and psi; the compatibility condition
Im(psi_b - id) <= ker(phi) makes the two twisted products a skew brace:

    (b, c) . (x, y) = (b + phi_c(x), c + y)
    (b, c) o (x, y) = (b + x, c + psi_b(y))

Every series on such a brace is computed on pairs of subspaces, so the
order-p^8 instances stay tractable: every set-level star product, commutator,
lifted condition and ideal test reads the difference maps `BCBrace.dphi(c)` =
phi_c - id and `BCBrace.dpsi(b)` = psi_b - id on basis vectors only. Spans
and generated subgroups are invariant-subspace closures of basis differences
(`_closure`, `_diff_span`); the lifted step of the four ascending chains
(`bc_lifted_step`) is a kernel of linear maps given by basis images (`_lift`,
`_fixers`), so none sweeps a factor's vectors. Each `_fixers` and
`_diff_span` solve is memoized in the brace's `_cache` on its side ("phi" or
"psi") and the RREF bases of its subspaces: the result is a function of the
brace's maps and those canonical bases, so the chains and the inclusion
checks share one solve each. `bc_brace` solves no kernel: it tests its
condition on the columns of the basis differences.
`series` runs the chain steps through `groups.run_chain` on `PairSpace` terms,
the brace's element sets, listed only when read element by element. The
tests check these paths against the table machinery and element sweeps.

Element operations work on indices b + p^d_b * c, split by quotient and
remainder. Each factor (`_Component`) adds on two digit blocks through one
table (p x p for one digit) and applies phi_c or psi_b through index maps
built once per distinct matrix. lambda is a homomorphism, so phi_c depends
only on c modulo ker phi (psi_b on b modulo ker psi): F5's 625 acting
indices of a factor share 5 maps, and a one-digit factor's all share its
identity map. The first element operation builds both factors in
`BCBrace._factors` once each table passes groups.TABLE_CAP (set-level paths
build none) and puts six kernels (`_kernels`: dot, circ, inv, bar, lam,
star) in the brace's instance dict, each one body over both factors' tables
with no further call once the maps it reads are built. A (1, 1) brace is
the trivial brace on F_p^2 and gets closed forms instead (`_trivial_kernels`),
with no table at any p. The tuple forms of the products live only in the
tests; `vstar` stays.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import errors, groups
from .braces import DEFAULT_SEED, SkewBrace, TableBrace, validate_brace
from .fp import (
    Mat,
    Subspace,
    Vec,
    is_prime,
    mat_identity,
    mat_is_invertible,
    mat_mul,
    mat_sub,
    mat_vec,
    unit_vec,
    vec_neg,
    zero_vec,
)


@dataclass(frozen=True, init=False)
class PairSpace:
    """A product subspace U x V of the carrier B x C, and so the element set of a
    formula brace: indices b + p^d_b * c, listed on first read (not by B x C's `in`)."""

    b: Subspace
    c: Subspace
    _members = None  # set by `members`

    def __new__(cls, b: Subspace, c: Subspace):
        """The class is a function of (b, c), so equal terms share class and hash."""
        self = object.__new__(_FullPairSpace if b.rank == b.dim and c.rank == c.dim else PairSpace)
        object.__setattr__(self, "b", b)  # reading __dict__ would slow later attribute reads
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "order", b.size * c.size)  # len() fails above sys.maxsize
        return self

    def __getnewargs__(self):
        return self.b, self.c

    @property
    def pair(self) -> "PairSpace":
        """Itself, for the one reader of `term.pair`: bench/make_reference.py."""
        return self

    @property
    def members(self) -> frozenset[int]:
        """The element indices, listed once; refused above groups.TABLE_CAP."""
        if self._members is None:
            groups.check_table_cap(self.order, "listing a formula set")
            if self.is_full:  # every index below p^(d_b + d_c)
                members = frozenset(range(self.order))
            else:
                p = self.b.p
                b_idx = [_index(b, p) for b in self.b.elements()]
                c_idx = [p**self.b.dim * _index(c, p) for c in self.c.elements()]
                members = frozenset(i + j for j in c_idx for i in b_idx)
            object.__setattr__(self, "_members", members)
        return self._members

    def __contains__(self, x: int) -> bool:
        try:
            return x in self._members
        except TypeError:  # not listed yet
            return x in self.members

    def __iter__(self):
        return iter(self.sorted())

    def __len__(self) -> int:
        return self.order

    def sorted(self) -> list[int]:
        return sorted(self.members)

    @property
    def parent_order(self) -> int:
        return self.b.p ** (self.b.dim + self.c.dim)

    @property
    def is_trivial(self) -> bool:
        return self.b.rank == 0 and self.c.rank == 0

    @property
    def is_full(self) -> bool:
        return self.b.rank == self.b.dim and self.c.rank == self.c.dim

    def contains(self, bvec: Vec, cvec: Vec) -> bool:
        return self.b.contains(bvec) and self.c.contains(cvec)

    def contains_pair(self, other: "PairSpace") -> bool:
        return self.b.contains_space(other.b) and self.c.contains_space(other.c)


class _FullPairSpace(PairSpace):
    """B x C: `in` lists nothing; `members`, `sorted` and `iter` still do."""

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.order


def _first_call(name: str):
    """BCBrace's element operation `name` until the brace's first one, which
    builds its factors (`BCBrace._factors`) and so puts its kernels in the
    instance dict, where later calls find them."""

    def op(self, *args):
        self._factors()
        return vars(self)[name](*args)

    op.__name__ = op.__qualname__ = name
    return op


class BCBrace(SkewBrace):
    """Skew brace on B x C defined by the two matrix actions."""

    backing = "formula"

    def __init__(self, p: int, phi_pows: list[list[Mat]], psi_pows: list[list[Mat]]):
        """Built by `bc_brace` from the power rows [id, m, ..., m^(p-1)] of
        each basis matrix m, which its order check computes."""
        super().__init__()
        self.p = p
        self.d_b = len(psi_pows)
        self.d_c = len(phi_pows)
        self.phi_basis = tuple(row[1] for row in phi_pows)
        self.psi_basis = tuple(row[1] for row in psi_pows)
        self.order = p ** (self.d_b + self.d_c)
        self._phi: dict[Vec, Mat] = {}
        self._psi: dict[Vec, Mat] = {}
        self._dphi: dict[Vec, Mat] = {}
        self._dpsi: dict[Vec, Mat] = {}
        self._ident_b = mat_identity(self.d_b)
        self._ident_c = mat_identity(self.d_c)
        self._phi_pows, self._psi_pows = phi_pows, psi_pows
        self._sets: dict[tuple, PairSpace] = {}
        self._elem: tuple[_Component, ...] | None = None

    # -- vector-level operations ---------------------------------------------

    def phi(self, c: Vec) -> Mat:
        m = self._phi.get(c)
        if m is None:
            m = _family_product(self._phi_pows, c, self.p)
            self._phi[c] = m
        return m

    def psi(self, b: Vec) -> Mat:
        m = self._psi.get(b)
        if m is None:
            m = _family_product(self._psi_pows, b, self.p)
            self._psi[b] = m
        return m

    def dphi(self, c: Vec) -> Mat:
        """phi_c - id; (0, c) * (u, 0) = (dphi(-c) u, 0)."""
        m = self._dphi.get(c)
        if m is None:
            m = self._dphi[c] = mat_sub(self.phi(c), self._ident_b, self.p)
        return m

    def dpsi(self, b: Vec) -> Mat:
        """psi_b - id; (b, 0) * (0, v) = (0, dpsi(b) v)."""
        m = self._dpsi.get(b)
        if m is None:
            m = self._dpsi[b] = mat_sub(self.psi(b), self._ident_c, self.p)
        return m

    def vstar(self, x: tuple[Vec, Vec], y: tuple[Vec, Vec]) -> tuple[Vec, Vec]:
        (b, c), (u, v) = x, y
        return mat_vec(self.dphi(vec_neg(c, self.p)), u, self.p), mat_vec(self.dpsi(b), v, self.p)

    # -- index encoding --------------------------------------------------------

    def encode(self, b: Vec, c: Vec) -> int:
        return _index(b, self.p) + self.p**self.d_b * _index(c, self.p)

    def decode(self, idx: int) -> tuple[Vec, Vec]:
        c, b = divmod(idx, self.p**self.d_b)
        return _digits(b, self.p, self.d_b), _digits(c, self.p, self.d_c)

    def _factors(self) -> tuple["_Component", ...]:
        """B and C index arithmetic, built on the first element operation once
        each table passes groups.TABLE_CAP: for a factor of dimension d, H =
        p^ceil(d/2), the H x H add table (above the p^d negations) and 2H
        image-map entries per action matrix, at most p^m of them for m
        non-identity acting basis matrices of order dividing p. A `maps` list
        is no longer than the other factor's negations, and a one-digit
        factor's p x p table no larger than a wide one's (H >= p).

        It then sets `_kernels` as the instance's dot, circ, inv, bar, lam and
        star, so later calls skip the first-call methods below; they hold the
        factors, not the brace. A (1, 1) brace has no factors: bc_brace forces
        each 1 x 1 basis matrix [[a]] to a^p = a = 1, so it is the trivial
        brace on F_p^2 and gets the closed forms of `_trivial_kernels`."""
        if self._elem is None:
            p, d_b, d_c = self.p, self.d_b, self.d_c
            if d_b == d_c == 1:
                vars(self).update(_trivial_kernels(p))
                self._elem = ()
                return self._elem
            for d, pow_rows in ((d_b, self._phi_pows), (d_c, self._psi_pows)):
                h, m = p ** -(-d // 2), sum(row[1] != row[0] for row in pow_rows)
                groups.check_table_cap(h * h, f"a {h} x {h} factor add table")
                groups.check_table_cap(2 * h * p**m, f"the image maps of {p}^{m} action matrices")
            self._elem = (_Component(p, d_b, self._phi_pows), _Component(p, d_c, self._psi_pows))
            vars(self).update(_kernels(*self._elem))
        return self._elem

    # -- SkewBrace surface: an element is b + p^d_b * c ---------------------------

    dot, circ, inv, bar, lam, star = map(_first_call, ("dot", "circ", "inv", "bar", "lam", "star"))
    # bench/tracer.py hooks these names in the class dict
    comm_dot, comm_circ = SkewBrace.comm_dot, SkewBrace.comm_circ

    def generators(self) -> tuple[int, ...]:
        """The unit vectors of B, then of C."""
        return tuple(self.p**i for i in range(self.d_b + self.d_c))

    # -- structure spaces ----------------------------------------------------------

    def full_pair(self) -> PairSpace:
        return PairSpace(Subspace.full(self.p, self.d_b), Subspace.full(self.p, self.d_c))

    def trivial_pair(self) -> PairSpace:
        return PairSpace(Subspace.zero(self.p, self.d_b), Subspace.zero(self.p, self.d_c))

    def pair_to_set(self, pair: PairSpace) -> PairSpace:
        """The first term equal to `pair`, so equal terms share one listing."""
        return self._sets.setdefault((pair.b.basis, pair.c.basis), pair)


def _power_row(m: Mat, p: int) -> list[Mat]:
    pows = [mat_identity(len(m))]
    for _ in range(1, p):
        pows.append(mat_mul(pows[-1], m, p))
    return pows


def _family_product(pow_rows: list[list[Mat]], coeffs: Vec, p: int) -> Mat:
    """The product of the factors pow_rows[i][coeffs[i]] that are not the
    identity, which starts every power row."""
    out = ident = pow_rows[0][0]
    for row, t in zip(pow_rows, coeffs):
        if row[t % p] != ident:
            out = row[t % p] if out is ident else mat_mul(out, row[t % p], p)
    return out


def _index(vec: Vec, p: int) -> int:
    idx = 0
    for digit in reversed(vec):
        idx = idx * p + digit
    return idx


def _digits(idx: int, p: int, dim: int) -> Vec:
    return tuple(idx // p**i % p for i in range(dim))


def _block_neg(p: int, w: int) -> list[int]:
    """-x digit by digit mod p for each x below p^w, one top digit at a time."""
    neg = [0]
    for n in (p**i for i in range(w)):
        neg = [v + n * (-s % p) for s in range(p) for v in neg]
    return neg


def _block_sums(p: int, w: int) -> list[list[int]]:
    """The p^w x p^w table of x + y digit by digit mod p, one top digit at a
    time: (x + n s) + (y + n t) = (x + y) + n (s + t mod p) for x, y below n."""
    table = [[0]]
    for n in (p**i for i in range(w)):
        shifted = [[[v + n * s for v in row] for s in range(p)] for row in table]
        table = [
            [v for part in rows[s:] + rows[:s] for v in part]
            for s in range(p)
            for rows in shifted
        ]
    return table


class _Component:
    """Index arithmetic on one factor F_p^d, x = sum x_i p^i.

    It adds on two blocks of w = ceil(d/2) digits, the top one short (empty
    for one digit) when d is odd, through one H x H table, H = p^w. It keeps
    the images of every block value under each distinct action matrix, and
    `maps[key]` points at the one for key's matrix, the product of the
    acting power rows `pow_rows` that key's digits pick, built by
    `image_map(key)` on first use. When every acting basis matrix is the
    identity (always on one digit, see `BCBrace._factors`), all keys share
    one identity map, built with the factor. `neg` has p^d entries, one
    block negation per digit block. `_kernels` reads `table`, `maps`, `neg`
    and `image_map`.
    """

    def __init__(self, p: int, d: int, pow_rows: list[list[Mat]]):
        from array import array  # loaded on the first element op, not on import

        self.size = p**d
        w = -(-d // 2)
        self.h = h = p**w
        neg = _block_neg(p, w)
        self.neg = [lo + h * hi for hi in neg[: self.size // h] for lo in neg]
        self.table = table = _block_sums(p, w)
        self.maps = maps = [None] * p ** len(pow_rows)
        by_matrix: dict[Mat, array] = {}

        def add(x: int, y: int) -> int:
            return table[x % h][y % h] + h * table[x // h][y // h]

        def image_map(key: int) -> array:
            """Images of every value of each block under key's matrix, built
            from its columns on the first key with that matrix."""
            mat = _family_product(pow_rows, _digits(key, p, len(pow_rows)), p)
            if mat not in by_matrix:
                cols = [_index(col, p) for col in zip(*mat)]
                by_matrix[mat] = out = array("I")
                for j in (0, w):
                    img = [0]
                    for col in cols[j : j + w]:
                        n = len(img)
                        for _ in range(p - 1):
                            img += [add(u, col) for u in img[-n:]]
                    out.extend(img)
            maps[key] = out = by_matrix[mat]
            return out

        self.image_map = image_map
        if all(row[1] == row[0] for row in pow_rows):
            maps[:] = [image_map(0)] * len(maps)


def _kernels(B: _Component, C: _Component) -> dict:
    """dot, circ, inv, bar, lam and star on B x C, each one body over both
    factors' tables, maps and negations. An action on x reads its map at
    both blocks of x, then adds the two images; a sum adds block by block.
    A one-digit factor runs the same body: its top block is empty, so x's
    second read is entry H = p of the map, 0, and adds nothing."""
    n, hb, tb, mb, nb, ib = B.size, B.h, B.table, B.maps, B.neg, B.image_map
    hc, tc, mc, nc, ic = C.h, C.table, C.maps, C.neg, C.image_map

    def dot(a: int, y: int) -> int:  # (b + phi_c(u), c + v)
        c, b = a // n, a % n
        v, u = y // n, y % n
        m = mb[c] or ib(c)
        s, t = m[u % hb], m[hb + u // hb]
        x = tb[s % hb][t % hb] + hb * tb[s // hb][t // hb]
        z = tc[c % hc][v % hc] + hc * tc[c // hc][v // hc]
        return tb[b % hb][x % hb] + hb * tb[b // hb][x // hb] + n * z

    def circ(a: int, y: int) -> int:  # (b + u, c + psi_b(v))
        c, b = a // n, a % n
        v, u = y // n, y % n
        m = mc[b] or ic(b)
        s, t = m[v % hc], m[hc + v // hc]
        z = tc[s % hc][t % hc] + hc * tc[s // hc][t // hc]
        z = tc[c % hc][z % hc] + hc * tc[c // hc][z // hc]
        return tb[b % hb][u % hb] + hb * tb[b // hb][u // hb] + n * z

    def inv(a: int) -> int:  # (phi_{-c}(-b), -c)
        c, b = a // n, a % n
        k, x = nc[c], nb[b]
        m = mb[k] or ib(k)
        s, t = m[x % hb], m[hb + x // hb]
        return tb[s % hb][t % hb] + hb * tb[s // hb][t // hb] + n * k

    def bar(a: int) -> int:  # (-b, -psi_{-b}(c))
        c, b = a // n, a % n
        k = nb[b]
        m = mc[k] or ic(k)
        s, t = m[c % hc], m[hc + c // hc]
        return k + n * nc[tc[s % hc][t % hc] + hc * tc[s // hc][t // hc]]

    def lam(a: int, y: int) -> int:  # (phi_{-c}(u), psi_b(v))
        c, b = a // n, a % n
        v, u = y // n, y % n
        k = nc[c]
        m = mb[k] or ib(k)
        s, t = m[u % hb], m[hb + u // hb]
        x = tb[s % hb][t % hb] + hb * tb[s // hb][t // hb]
        m = mc[b] or ic(b)
        s, t = m[v % hc], m[hc + v // hc]
        return x + n * (tc[s % hc][t % hc] + hc * tc[s // hc][t // hc])

    def star(a: int, y: int) -> int:  # (phi_{-c}(u) - u, psi_b(v) - v)
        c, b = a // n, a % n
        v, u = y // n, y % n
        k = nc[c]
        m = mb[k] or ib(k)
        s, t = m[u % hb], m[hb + u // hb]
        x, w = tb[s % hb][t % hb] + hb * tb[s // hb][t // hb], nb[u]
        m = mc[b] or ic(b)
        s, t = m[v % hc], m[hc + v // hc]
        z, e = tc[s % hc][t % hc] + hc * tc[s // hc][t // hc], nc[v]
        z = tc[z % hc][e % hc] + hc * tc[z // hc][e // hc]
        return tb[x % hb][w % hb] + hb * tb[x // hb][w // hb] + n * z

    return {"dot": dot, "circ": circ, "inv": inv, "bar": bar, "lam": lam, "star": star}


def _trivial_kernels(p: int) -> dict:
    """The six operations of the trivial brace on F_p^2, a (1, 1) brace:
    dot = circ add digit-wise mod p, inv = bar negate, lam(a, y) = y and
    star = 0. They build no table."""

    def add(a: int, y: int) -> int:
        return (a + y) % p + p * ((a // p + y // p) % p)

    def neg(a: int) -> int:
        return -a % p + p * (-(a // p) % p)

    return {"dot": add, "circ": add, "inv": neg, "bar": neg, "lam": lambda a, y: y, "star": lambda a, y: 0}


def bc_brace(p: int, phi_basis, psi_basis) -> BCBrace:
    """Validate the structural preconditions and build the brace.

    Checks, in order (a huge p is refused before its primality test): the p
    powers of each basis matrix within TABLE_CAP cells, p prime, matrices
    square and invertible with order dividing p (without which the
    digit-defined actions are not homomorphisms and the products are not
    associative), each family pairwise commuting, and Im(psi_b - id) <= ker(phi)
    on the basis of B (which makes it hold for every b); `_factors` bounds the rest.
    The last is tested column by column, phi(col) = id for each column of
    psi_{e_i} - id: phi is a homomorphism, so ker(phi) is a subgroup of C and
    holds the span of those columns, the image, exactly when it holds each.

    These make the result a skew brace for every element, so the sampled
    checks (`validate_formula_brace`, `check_identities`) test the element
    operations, not the construction. phi: C -> GL(B) and psi: B -> GL(C) are
    homomorphisms with commuting images, so (A, .) and (A, o) are the
    semidirect products of the module docstring. For a = (b, c) put
    lambda_a(x, y) = (phi_{-c}(x), psi_b(y)). Then:
    - a o y = a . lambda_a(y): (b, c) . (phi_{-c}(x), psi_b(y))
      = (b + phi_c phi_{-c}(x), c + psi_b(y)) = (b + x, c + psi_b(y)).
    - lambda_a is in Aut(A, .): it is bijective, and
      lambda_a((x, y) . (x', y')) = (phi_{-c}(x) + phi_{-c} phi_y(x'), ...)
      while lambda_a(x, y) . lambda_a(x', y')
      = (phi_{-c}(x) + phi_{psi_b(y)} phi_{-c}(x'), ...), with equal C parts
      psi_b(y) + psi_b(y'). As phi's image commutes, the B parts agree for
      all x' iff phi_{psi_b(y) - y} = id, that is iff
      Im(psi_b - id) <= ker(phi).
    - lambda_{a o a'} = lambda_a lambda_{a'}: with a' = (b', c'),
      a o a' = (b + b', c + psi_b(c')), so the B part of lambda_{a o a'} is
      phi_{-c - psi_b(c')} and that of lambda_a lambda_{a'} is
      phi_{-c - c'}; they agree by the same condition, and the C parts are
      both psi_{b + b'}.
    Then a o (a' o a'') = a . lambda_a(a') . lambda_a lambda_{a'}(a'')
    = (a o a') o a'', and a o (y . z) = a . lambda_a(y) . lambda_a(z)
    = (a o y) . a^-1 . (a o z) is the brace relation.
    """
    d_c, d_b = len(phi_basis), len(psi_basis)
    groups.check_table_cap(p * d_b * d_c * (d_b + d_c), "the basis matrices' power rows")
    if not is_prime(p):
        raise errors.BadPrime(f"{p} is not prime")
    phi_basis, psi_basis = (
        tuple(tuple(tuple(groups.as_int(x) % p for x in row) for row in m) for m in family)
        for family in (phi_basis, psi_basis)
    )
    if d_b < 1 or d_c < 1:
        raise errors.BadParameters("both factors need dimension >= 1")
    families = (("phi", phi_basis, d_b, "d_b"), ("psi", psi_basis, d_c, "d_c"))
    pows: dict[str, list[list[Mat]]] = {"phi": [], "psi": []}
    for name, family, dim, label in families:
        for m in family:
            if len(m) != dim or any(len(row) != dim for row in m):
                raise errors.ParseError(f"{name} matrices must be {label} x {label}")
            if not mat_is_invertible(m, p):
                raise errors.NotInvertible(f"a {name} basis matrix is singular")
            row = _power_row(m, p)
            if mat_mul(row[-1], m, p) != row[0]:
                raise errors.BadParameters(
                    f"a {name} basis matrix has order not dividing p, so the action "
                    "is not a homomorphism from the exponent-p group"
                )
            pows[name].append(row)
    for name, family, _, _ in families:
        for a, b in itertools.combinations(family, 2):
            if mat_mul(a, b, p) != mat_mul(b, a, p):
                raise errors.NonCommutingFamily(f"{name} basis matrices do not commute")

    brace = BCBrace(p, pows["phi"], pows["psi"])
    for i in range(d_b):
        if any(brace.phi(col) != brace._ident_b for col in zip(*brace.dpsi(unit_vec(d_b, i)))):
            raise errors.ConditionViolated(i, "Im(psi_b - id) escapes ker(phi)")
    return brace


def validate_formula_brace(brace: BCBrace, samples: int = 100_000, seed: int = DEFAULT_SEED) -> dict:
    """Sampled validation of the brace relation and the lambda homomorphism.

    Exhausts every triple from the generating set together with its pairwise
    dot products, then adds `samples` uniform random triples drawn from the
    fixed seed. A witness raises BraceRelationFails / LambdaNotHomomorphism,
    the relation checked before lambda within a triple. On the pool, dot(b, c)
    and lam(b, c) come from base x base tables built once, circ(a, c) once
    per a, and circ(a, b) and circ(a, b) . inv(a) once per (a, b); every
    triple is still checked, in the same order.
    """
    gens = brace.generators()
    base = list(dict.fromkeys([*gens, *(brace.dot(g, h) for g in gens for h in gens)]))
    rng = random.Random(seed)
    dot, circ, inv, lam = brace.dot, brace.circ, brace.inv, brace.lam

    def check(a: int, b: int, c: int) -> None:
        if circ(a, dot(b, c)) != dot(dot(circ(a, b), inv(a)), circ(a, c)):
            raise errors.BraceRelationFails(a, b, c)
        if lam(circ(a, b), c) != lam(a, lam(b, c)):
            raise errors.LambdaNotHomomorphism(a, b)

    dots = [[dot(b, c) for c in base] for b in base]
    lams = [[lam(b, c) for c in base] for b in base]
    for a in base:
        ia, circ_a = inv(a), [circ(a, c) for c in base]
        for b, dot_b, lam_b in zip(base, dots, lams):
            ab = circ(a, b)
            ab_ia = dot(ab, ia)
            for c, bc, lbc, ac in zip(base, dot_b, lam_b, circ_a):
                if circ(a, bc) != dot(ab_ia, ac):
                    raise errors.BraceRelationFails(a, b, c)
                if lam(ab, c) != lam(a, lbc):
                    raise errors.LambdaNotHomomorphism(a, b)
    for _ in range(samples):
        check(rng.randrange(brace.order), rng.randrange(brace.order), rng.randrange(brace.order))
    return {"passed": True, "checked": len(base) ** 3 + max(samples, 0), "seed": seed}


def materialize_table_brace(brace: BCBrace) -> TableBrace:
    """Expand a small formula brace into fully validated Cayley tables."""
    n = brace.order
    groups.check_table_cap(n * n, "table materialization")
    dot_rows = [[brace.dot(a, b) for b in range(n)] for a in range(n)]
    circ_rows = [[brace.circ(a, b) for b in range(n)] for a in range(n)]
    return validate_brace(dot_rows, circ_rows)


# ---------------------------------------------------------------------------
# Set-level operations on product subspaces.


def _invariant(space: Subspace, mats) -> bool:
    """m(space) <= space for every m in `mats`, tested on the basis."""
    return all(space.contains(mat_vec(m, v, space.p)) for m in mats for v in space.basis)


def _cols_in(m: Mat, space: Subspace) -> bool:
    """Every column of m lies in `space`, so Im(m) <= space."""
    return all(space.contains(col) for col in zip(*m))


def _images(mats, vecs, p: int) -> list[Vec]:
    """m(v) for every m in `mats` (read once each) and v in `vecs`."""
    return [mat_vec(m, v, p) for m in mats for v in vecs]


def _mod(space: Subspace, vecs) -> Vec:
    """The residues of `vecs` modulo `space`, concatenated: zero iff all lie in it."""
    return tuple(x for v in vecs for x in space.residue(v))


def _units(diff, dim: int) -> list[Mat]:
    """diff(e_i) for the unit vectors e_i of F_p^dim (diff is dphi or dpsi)."""
    return [diff(unit_vec(dim, i)) for i in range(dim)]


def _lift(domain: Subspace, space: Subspace, units) -> Subspace:
    """{v in domain : d v in space for every d in `units`}, a kernel on the basis."""
    return domain.kernel([_mod(space, _images(units, [v], space.p)) for v in domain.basis])


def _fixers(brace: BCBrace, side: str, space: Subspace) -> Subspace:
    """{g : Im diff(g) <= space}, g over the whole acting factor, for diff =
    dphi (`side` "phi") or dpsi ("psi") and `space` invariant under the
    action (else AlgebraError).

    Not linear in g (J and J^-1, J a 3 x 3 Jordan block, acting on one factor
    show it), so solved level by level. If `space` is everything, so is the
    answer. Else W+ = `_lift` of `space` is invariant and strictly larger (a
    p-group fixes a nonzero vector of V / space), each fixer of `space` fixes
    W+, and D = diff maps W+ into `space`. So on the fixers of W+, D_{g+h} =
    D_g D_h + D_g + D_h makes g -> D_g mod `space` additive: take its kernel.

    Memoized per brace on (side, RREF basis of `space`): the answer is a
    function of the brace's maps and the subspace, whose basis is canonical.
    A refusal raises before anything is stored.
    """
    key = ("fixers", side, space.basis)
    out = brace._cache.get(key)
    if out is None:
        diff, dim = (brace.dphi, brace.d_c) if side == "phi" else (brace.dpsi, brace.d_b)
        units = _units(diff, dim)
        if not _invariant(space, units):
            raise errors.AlgebraError("internal: lifted part expected to be invariant")
        if space.rank == space.dim:
            out = Subspace.full(space.p, len(units))
        else:
            kept = _fixers(brace, side, _lift(Subspace.full(space.p, space.dim), space, units))
            out = kept.kernel([_mod(space, zip(*diff(g))) for g in kept.basis])
        brace._cache[key] = out
    return out


def _closure(start: Subspace, mats) -> Subspace:
    """Least subspace containing `start` that every m in `mats` maps into itself."""
    while True:
        grown = start.extended(_images(mats, start.basis, start.p))
        if grown.rank == start.rank:
            return start
        start = grown


def _diff_span(brace: BCBrace, side: str, acting: Subspace, moved: Subspace) -> Subspace:
    """Span of diff(c) u over c in `acting` and u in `moved`, for diff = dphi
    (`side` "phi") or dpsi ("psi"). With D_c = diff(c), phi_{c+c'} = phi_c
    phi_{c'} gives D_{c+c'} = D_c D_{c'} + D_c + D_{c'} (psi likewise). So the
    span is invariant under each D_g, and the closure of {D_g u} (g, u over
    bases) under the D_g, invariant under every phi_c, holds D_{c+g} u once
    it holds D_c u: the two agree.

    Memoized per brace on (side, RREF bases of `acting` and `moved`), sound
    for the reason `_fixers` is."""
    key = ("diff_span", side, acting.basis, moved.basis)
    out = brace._cache.get(key)
    if out is None:
        diff = brace.dphi if side == "phi" else brace.dpsi
        diffs = [diff(g) for g in acting.basis]
        start = Subspace.from_vectors(moved.p, moved.dim, _images(diffs, moved.basis, moved.p))
        out = brace._cache[key] = _closure(start, diffs)
    return out


def close_pair(brace: BCBrace, b_span: Subspace, c_span: Subspace) -> PairSpace:
    """Subgroup of (A, .) generated by the product set b_span x c_span: the
    phi-closure of the B part under the C part, times the C part."""
    return PairSpace(_closure(b_span, [brace.phi(v) for v in c_span.basis]), c_span)


def star_span(brace: BCBrace, x: PairSpace, y: PairSpace) -> tuple[Subspace, Subspace]:
    """Componentwise span of {a * b : a in X, b in Y} (a product set), two
    closures of basis differences. The B part takes dphi(c) where the product
    has dphi(-c): -c runs over X.c exactly when c does."""
    return _diff_span(brace, "phi", x.c, y.b), _diff_span(brace, "psi", x.b, y.c)


def comm_dot_span(brace: BCBrace, x: PairSpace, y: PairSpace) -> Subspace:
    """Span of the B components of [X, Y] in (A, .); the C components vanish.
    It is the union of two closures of basis differences (`_diff_span`)."""
    return _diff_span(brace, "phi", y.c, x.b).union_span(_diff_span(brace, "phi", x.c, y.b))


def comm_circ_span(brace: BCBrace, x: PairSpace, y: PairSpace) -> Subspace:
    """Span of the C components of the circ commutators [X, Y]_o, the union
    of two closures of basis differences (`_diff_span`)."""
    return _diff_span(brace, "psi", x.b, y.c).union_span(_diff_span(brace, "psi", y.b, x.c))


def star_subgroup_pair(brace: BCBrace, x: PairSpace, y: PairSpace) -> PairSpace:
    return close_pair(brace, *star_span(brace, x, y))


def _union_close(brace: BCBrace, parts: list[tuple[Subspace, Subspace]]) -> PairSpace:
    b_total, c_total = parts[0]
    for b_span, c_span in parts[1:]:
        b_total = b_total.union_span(b_span)
        c_total = c_total.union_span(c_span)
    return close_pair(brace, b_total, c_total)


# ---------------------------------------------------------------------------
# Chain steps on product subspaces. `series` runs them through
# `groups.run_chain`; a step given `terms` maps the terms so far to the next,
# one given `prev` reads only the last term.


def bc_gamma_step(brace: BCBrace, terms: list[PairSpace]) -> PairSpace:
    """Gamma_{n+1}, generated by Gamma_n * A, A * Gamma_n and [A, Gamma_n]."""
    full, last = terms[0], terms[-1]
    parts = [
        star_span(brace, last, full),
        star_span(brace, full, last),
        (comm_dot_span(brace, full, last), Subspace.zero(brace.p, brace.d_c)),
    ]
    return _union_close(brace, parts)


def bc_smoktunowicz_step(brace: BCBrace, terms: list[PairSpace]) -> PairSpace:
    """A^[n+1], generated by the union of A^[i] * A^[n+1-i]."""
    n = len(terms)
    return _union_close(brace, [star_span(brace, terms[i], terms[n - 1 - i]) for i in range(n)])


def bc_lifted_step(brace: BCBrace, prev: PairSpace, maps) -> PairSpace:
    """Pair-space form of `groups.lifted_step`: keep x iff every f(x, a)
    lies in `prev`, for f named in `maps` (a subset of "star", "comm_dot",
    "comm_circ").

    The kept set is a product, so (b, 0) and (0, c) are tested apart, each
    part the kernel of fixer (`_fixers`) and unit-difference (`_lift`) maps.
    These need `prev.b` phi- and `prev.c` psi-invariant; the chain terms are
    normal in the group concerned, so a failure is internal.
    """
    b_kept, c_kept = Subspace.full(brace.p, brace.d_b), Subspace.full(brace.p, brace.d_c)
    if "star" in maps or "comm_circ" in maps:
        # (b, 0) * (u, v) and [(b, 0), (u, v)]_o are (0, (psi_b - id) v).
        b_kept = _fixers(brace, "psi", prev.c)
    if "star" in maps or "comm_dot" in maps:
        # (0, c) * (u, v) = ((phi_{-c} - id) u, 0) and [(0, c), (u, v)] =
        # ((phi_c - id) u, 0); the fixers form a subgroup, closed under c -> -c.
        c_kept = _fixers(brace, "phi", prev.b)
    if "comm_dot" in maps:
        # [(b, 0), (u, e_j)] = ((id - phi_{e_j}) b, 0).
        b_kept = _lift(b_kept, prev.b, _units(brace.dphi, brace.d_c))
    if "comm_circ" in maps:
        # [(0, c), (e_i, v)]_o = (0, -(psi_{e_i} - id) c).
        c_kept = _lift(c_kept, prev.c, _units(brace.dpsi, brace.d_b))
    return PairSpace(b_kept, c_kept)


def bc_socle_step(brace: BCBrace, prev: PairSpace) -> PairSpace:
    return bc_lifted_step(brace, prev, {"star", "comm_dot"})


def bc_annihilator_step(brace: BCBrace, prev: PairSpace) -> PairSpace:
    return bc_lifted_step(brace, prev, {"star", "comm_dot", "comm_circ"})


def bc_zeta_dot_step(brace: BCBrace, prev: PairSpace) -> PairSpace:
    return bc_lifted_step(brace, prev, {"comm_dot"})


def bc_zeta_circ_step(brace: BCBrace, prev: PairSpace) -> PairSpace:
    return bc_lifted_step(brace, prev, {"comm_circ"})


def bc_gamma_dot_step(brace: BCBrace, terms: list[PairSpace]) -> PairSpace:
    span = comm_dot_span(brace, terms[0], terms[-1])
    return PairSpace(span, Subspace.zero(brace.p, brace.d_c))


def bc_gamma_circ_step(brace: BCBrace, terms: list[PairSpace]) -> PairSpace:
    span = comm_circ_span(brace, terms[0], terms[-1])
    return PairSpace(Subspace.zero(brace.p, brace.d_b), span)


# ---------------------------------------------------------------------------
# Substructure predicates on product subspaces.


def bc_is_subbrace(brace: BCBrace, pair: PairSpace) -> bool:
    return _invariant(pair.b, [brace.phi(v) for v in pair.c.basis]) and _invariant(
        pair.c, [brace.psi(u) for u in pair.b.basis]
    )


def bc_is_left_ideal(brace: BCBrace, pair: PairSpace) -> bool:
    """Stable under every lambda_(b, c) = (phi_{-c}, psi_b), which also makes
    U x V a dot subgroup."""
    return _invariant(pair.b, brace.phi_basis) and _invariant(pair.c, brace.psi_basis)


def bc_is_ideal(brace: BCBrace, pair: PairSpace) -> bool:
    """Left ideal normal in both groups: conjugating (0, v) by (u, 0) in
    (A, .) adds ((id - phi_v) u, 0), and (u, 0) by (0, v) in (A, o) adds
    (0, (id - psi_u) v)."""
    return (
        bc_is_left_ideal(brace, pair)
        and all(_cols_in(brace.dphi(v), pair.b) for v in pair.c.basis)
        and all(_cols_in(brace.dpsi(u), pair.c) for u in pair.b.basis)
    )


def bc_coset_agreement(brace: BCBrace, pair: PairSpace, a: int) -> bool:
    """For a = (b, c), a . (U x V) = (b + phi_c U) x (c + V) and
    a o (U x V) = (b + U) x (c + psi_b V): equal iff phi_c U = U and
    psi_b V = V, that is (the maps being invertible) iff each maps its
    subspace into itself."""
    b, c = brace.decode(a)
    return _invariant(pair.b, [brace.phi(c)]) and _invariant(pair.c, [brace.psi(b)])


def find_star_witness(brace: BCBrace, x: PairSpace, y: PairSpace, rhs: PairSpace):
    """A concrete pair (a, b) with a*b outside rhs, or None.

    Scans embedded generator pairs first (where the counterexample witnesses
    live), then factored sweeps that find an escape when one exists. As
    (b, c) * (u, v) = (dphi(-c) u, dpsi(b) v) is linear in u and v, they pair
    each acting element with the moved basis, reversed so as to meet first
    the witness a sweep over both factors' elements would; above TABLE_CAP
    pairs they are refused, once no generator pair escapes.
    """
    zero_b, zero_c = zero_vec(brace.d_b), zero_vec(brace.d_c)
    x_gens = [(u, zero_c) for u in x.b.basis] + [(zero_b, w) for w in x.c.basis]
    y_gens = [(u, zero_c) for u in y.b.basis] + [(zero_b, w) for w in y.c.basis]

    def sweeps():
        groups.check_table_cap(x.c.size * y.b.rank + x.b.size * y.c.rank, "the star witness sweep")
        yield from (((zero_b, c), (u, zero_c)) for c in x.c.elements() for u in reversed(y.b.basis))
        yield from (((b, zero_c), (zero_b, v)) for b in x.b.elements() for v in reversed(y.c.basis))

    for a, b in itertools.chain(itertools.product(x_gens, y_gens), sweeps()):
        val = brace.vstar(a, b)
        if not rhs.contains(*val):
            return a, b, val
    return None


def span_of_units(p: int, dim: int, indices) -> Subspace:
    """Subspace spanned by the listed standard basis vectors (1-based)."""
    return Subspace.from_vectors(p, dim, (unit_vec(dim, i - 1) for i in indices))
