"""Exhaustive enumeration of brace structures on a fixed additive group.

`enumerate_braces` backtracks over assignments of the lambda map with the
homomorphism constraint propagated eagerly, and builds each brace from the
lambda map it reaches. The tests hold its oracles: the unpruned search, a
brute-force filter of every group table sharing the identity (orders <= 6),
and the full `validate_brace` on every enumerated brace of order <= 12.

`isomorphism_classes` splits such a list into its isomorphism classes, the
Aut(A)-orbits of the braces (Guarnieri-Vendramin), by moving each brace's
lambda map with a greedy generating set of Aut(A). Its oracles in the tests
are the classes found by relabeling every circ table with every
automorphism, orbit-stabilizer with the stabilizers counted directly, and
the published class counts of orders 12 and 16.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

from . import errors
from .braces import TableBrace
from .groups import GroupTable, _close, check_table_cap, greedy_generators, subgroup_closure

ENUMERATE_MAX_ORDER = 12


def automorphism_group(g: GroupTable) -> list[tuple[int, ...]]:
    """All automorphisms as sorted permutation tuples, by extension over
    generator images with order-based pruning.

    The images of gens[:i] extend to <gens[:i]> by a breadth-first search
    from 0 over right products by those generators: x.h -> phi(x).phi(h).
    A consistent closure is a homomorphism there, as every element is such
    a product, and an injective one on all of g is an automorphism.

    An automorphism is fixed by its generator images, each among the
    elements of the generator's order, so |g| times the product of the
    candidate counts bounds the search's leaves and the listing; it is
    checked against TABLE_CAP before the search.
    """
    gens = greedy_generators(g)
    orders = [len(subgroup_closure(g, (x,))) for x in g.elements()]
    candidates = [
        [y for y in g.elements() if orders[y] == orders[gen]] for gen in gens
    ]
    check_table_cap(g.order * math.prod(map(len, candidates)), "the automorphism search", "search leaves")
    mul = g.mul

    def extend(images: tuple[int, ...]) -> dict[int, int] | None:
        placed = list(zip(gens, images))
        phi = {0: 0}
        frontier = [0]
        while frontier:
            nxt: list[int] = []
            for x in frontier:
                row, image_row = mul[x], mul[phi[x]]
                for h, image in placed:
                    z, w = row[h], image_row[image]
                    if z not in phi:
                        phi[z] = w
                        nxt.append(z)
                    elif phi[z] != w:
                        return None
            frontier = nxt
        return phi if len(set(phi.values())) == len(phi) else None

    found: list[tuple[int, ...]] = []
    # An explicit stack: a recursive closure would keep itself and `found`
    # alive in a reference cycle until the next garbage collection.
    stack: list[tuple[int, ...]] = [()]
    while stack:
        images = stack.pop()
        phi = extend(images)
        if phi is None:
            continue
        if len(images) == len(gens):
            found.append(tuple(phi[x] for x in g.elements()))
        else:
            stack.extend(images + (y,) for y in candidates[len(images)])
    return sorted(found)


def _semiregular(perm: list[int]) -> bool:
    """Whether a permutation fixes no point and has all its cycles of one length."""
    seen = [False] * len(perm)
    length = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        x, k = start, 0
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            k += 1
        if k == 1 or (length and k != length):
            return False
        length = k
    return True


def enumerate_braces(g: GroupTable, max_order: int = ENUMERATE_MAX_ORDER) -> list[TableBrace]:
    """Every brace with additive group exactly this table (labeled, no
    quotient by isomorphism), via lambda-map backtracking, sorted by circ
    table.

    Each leaf is a brace, so none is validated again (Guarnieri-Vendramin):
    - `propagate` checks every pair of assigned elements, in both orders, once
      the later one is fresh. At a leaf, lambda_{a o b} = lambda_a lambda_b
      with each lambda_a in Aut(A), lambda_0 = id and a o b = a . lambda_a(b).
    - Then o is associative, has identity 0 and is left-cancellative, so on a
      finite set it is a group; and lambda_a(b . c) = lambda_a(b) . lambda_a(c)
      is the brace relation.
    - Sibling branches differ at `free`, so no lambda map, and no circ table,
      is reached twice.

    Aut(A) acts on these braces, and the search runs once per orbit of the
    stabilizer S of x0 = 1 on the choices of lambda_{x0}:
    - For sigma in Aut(A), let B^sigma have lambda'_{sigma(a)} =
      sigma lambda_a sigma^-1. Then sigma(a o b) = sigma(a) . sigma lambda_a(b)
      = sigma(a) . lambda'_{sigma(a)}(sigma(b)) = sigma(a) o' sigma(b), so
      sigma: B -> B^sigma is an isomorphism and B^sigma is a brace on A.
    - For sigma in S, lambda'_{x0} = sigma lambda_{x0} sigma^-1, so
      B -> B^sigma maps the braces with lambda_{x0} = c into those with
      lambda_{x0} = sigma c sigma^-1, and B -> B^(sigma^-1) maps them back:
      a bijection.
    - The root therefore tries one c per S-conjugacy class and conjugates
      each brace found by one chosen sigma per member of the class. Distinct
      members give distinct lambda_{x0}, and one sigma is injective, so no
      brace appears twice and every brace appears once.

    Only the lambda maps a regular subgroup allows are tried. A brace on A
    is a regular subgroup {(a, lambda_a)} of Hol(A) (Guarnieri-Vendramin):
    - (a, lambda_a) acts on A as x -> a . lambda_a(x) = a o x, the regular
      action of (A, o).
    - In a regular permutation group no non-identity element fixes a point,
      and neither does any of its nontrivial powers. So each cycle of
      x -> a o x has the length of a's order, and for a != 0 lambda_a is a
      candidate for a: an automorphism sigma for which x -> a . sigma(x)
      fixes no point and has all its cycles of one length.
    - The root skips a c that is not a candidate for x0, `free` tries only
      the candidates for its element, and `propagate` fails a branch that
      forces a lambda_z that is not a candidate for z.
    - For sigma in S, sigma(x0) = x0, so the permutation of
      (x0, sigma c sigma^-1) is sigma P sigma^-1, where P is the permutation
      of (x0, c); the same holds at sigma(a) for the conjugated maps, as
      sigma(a) . sigma lambda_a sigma^-1(x) = sigma(a . lambda_a(sigma^-1(x))).
      Conjugate permutations have the same cycles, so conjugation keeps a
      candidate a candidate, and the root split stays valid.
    Each element's candidates are listed once, as a list for `free` and
    the root and a set for `propagate`.

    Automorphisms are composed only when the search meets a pair, into a
    flat dict keyed by i * |Aut| + j.
    """
    if g.order > max_order:
        raise errors.TooLarge(f"enumeration capped at order {max_order}")
    if g.order == 1:
        return [TableBrace(g, g)]
    n = g.order
    auts = automorphism_group(g)
    m = len(auts)
    aut_index = {a: i for i, a in enumerate(auts)}
    identity_aut = aut_index[tuple(range(n))]
    products: dict[int, int] = {}  # i * m + j -> index of auts[i] o auts[j]
    mul = g.mul
    # Empty for a = 0, as every sigma fixes 0; lambda_0 = id is set at the root.
    candidates = [
        [s for s, sigma in enumerate(auts) if _semiregular([row[v] for v in sigma])] for row in mul
    ]
    allowed = [set(c) for c in candidates]

    def propagate(lam: list[int | None], fresh: list[int]) -> bool:
        while fresh:
            a = fresh.pop()
            la = lam[a]
            for b in range(n):
                lb = lam[b]
                if lb is None:
                    continue
                for x, lx, y, ly in ((a, la, b, lb), (b, lb, a, la)):
                    z = mul[x][auts[lx][y]]
                    key = lx * m + ly
                    lz = products.get(key)
                    if lz is None:
                        outer = auts[lx]
                        lz = products[key] = aut_index[tuple([outer[v] for v in auts[ly]])]
                    if lam[z] is None:
                        if lz not in allowed[z]:
                            return False
                        lam[z] = lz
                        fresh.append(z)
                    elif lam[z] != lz:
                        return False
        return True

    def search(start: list[int | None]) -> list[list[int]]:
        """Every complete lambda map extending `start`, already propagated."""
        leaves = []
        # An explicit stack, as in `automorphism_group`: a recursive closure
        # would pin the found maps until a full collection.
        stack = [start]
        while stack:
            lam = stack.pop()
            free = next((x for x in range(n) if lam[x] is None), None)
            if free is None:
                leaves.append(lam)
                continue
            for choice in candidates[free]:
                trial = list(lam)
                trial[free] = choice
                if propagate(trial, [free]):
                    stack.append(trial)
        return leaves

    conjugates: dict[int, int] = {}  # s * m + c -> index of s c s^-1

    def conjugate(s: int, c: int) -> int:
        key = s * m + c
        out = conjugates.get(key)
        if out is None:
            sigma, inner, image = auts[s], auts[c], [0] * n
            for v in range(n):
                image[sigma[v]] = sigma[inner[v]]
            out = conjugates[key] = aut_index[tuple(image)]
        return out

    stabilizer = [s for s in range(m) if auts[s][1] == 1]
    covered = [False] * m
    maps: list[list[int]] = []
    for c in candidates[1]:
        if covered[c]:
            continue
        members: dict[int, int] = {}  # sigma c sigma^-1 -> the first such sigma
        for s in stabilizer:
            members.setdefault(conjugate(s, c), s)
        for d in members:
            covered[d] = True
        trial: list[int | None] = [identity_aut, c] + [None] * (n - 2)
        if not propagate(trial, [1]):
            continue
        found = search(trial)
        for s in members.values():
            if s == identity_aut:
                maps += found
                continue
            sigma = auts[s]
            for lam in found:
                moved = [0] * n
                for a, la in enumerate(lam):
                    moved[sigma[a]] = conjugate(s, la)
                maps.append(moved)
    braces = [
        TableBrace(g, GroupTable.from_trusted([[mul[a][x] for x in auts[lam[a]]] for a in range(n)]))
        for lam in maps
    ]
    braces.sort(key=lambda b: b.circ_group.mul)
    return braces


class _Lookup:
    """`table[key]` is `fn(key)`, computed on every read."""

    def __init__(self, fn: Callable[[int], object]):
        self.fn = fn

    def __getitem__(self, key: int):
        return self.fn(key)


class _Memo(dict):
    """A dict that fills a missing key with `fn(key)` on its first read."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        out = self[key] = self.fn(key)
        return out


def isomorphism_classes(g: GroupTable, braces: Sequence[TableBrace]) -> list[int]:
    """For each brace of `braces`, the index of the first brace of its
    isomorphism class, given the distinct braces on g that
    `enumerate_braces(g)` lists, or any list closed under Aut(A).

    Two braces on A are isomorphic iff an automorphism sigma of A carries one
    to the other, B -> B^sigma with lambda'_{sigma(a)} = sigma lambda_a
    sigma^-1 (Guarnieri-Vendramin; see `enumerate_braces`). So the classes
    are the Aut(A)-orbits:
    - Each brace's lambda map is read off its tables as automorphism
      indices, lambda_a(x) = a^-1 . (a o x), one lookup per circ row.
    - Aut(A) is generated greedily: an automorphism is taken only when it
      lies outside the closure of those taken before it (`groups._close`
      over the composition table, read lazily; the identity is auts[0]).
    - Each orbit is walked from its first brace, moving every map reached by
      every generator. On a finite group the generators' words reach the
      whole orbit, so no brace is walked twice.

    A moved map missing from the list means the list is not closed under
    Aut(A), and raises AlgebraError.
    """
    n = g.order
    mul, inv = g.mul, g.inv
    auts = automorphism_group(g)
    aut_index = {a: i for i, a in enumerate(auts)}

    def after(outer: Sequence[int], inner) -> int:
        """The index of the automorphism x -> outer[inner[x]]."""
        return aut_index[tuple(map(outer.__getitem__, inner))]

    def conjugate(sigma: tuple[int, ...], inverse: list[int], c: int) -> int:
        """The index of sigma auts[c] sigma^-1."""
        return after(sigma, map(auts[c].__getitem__, inverse))

    lambdas = [_Memo(partial(after, mul[inv[a]])) for a in range(n)]  # circ row of a -> lambda_a
    maps = []
    for b in braces:
        if b.dot_group != g:
            raise errors.AlgebraError("isomorphism_classes takes braces with the given additive group")
        maps.append(tuple(map(dict.__getitem__, lambdas, b.circ_group.mul)))
    position = {lam: i for i, lam in enumerate(maps)}
    # From the last tuple down: on the builtins of order 16 this takes 2-4
    # generators, where the sorted order takes up to 9 (C2^4).
    compositions = _Lookup(lambda i: _Lookup(lambda j: after(auts[i], auts[j])))
    _, gens = _close(compositions, range(len(auts) - 1, 0, -1))
    moves = []  # (sigma^-1, c -> sigma auts[c] sigma^-1) per generator sigma
    for s in gens:
        inverse = sorted(range(n), key=auts[s].__getitem__)
        moves.append((inverse, _Memo(partial(conjugate, auts[s], inverse))))
    first = [-1] * len(maps)
    for i in range(len(maps)):
        if first[i] >= 0:
            continue
        first[i] = i
        orbit = [i]
        while orbit:
            k = orbit.pop()
            lam = maps[k]
            for inverse, conj in moves:
                moved = tuple(map(conj.__getitem__, map(lam.__getitem__, inverse)))
                j = position.get(moved)
                if j is None:
                    raise errors.AlgebraError(
                        f"an image of brace {k} under Aut(A) is not in the list: it is not closed under Aut(A)"
                    )
                if first[j] < 0:
                    first[j] = i
                    orbit.append(j)
    return first
