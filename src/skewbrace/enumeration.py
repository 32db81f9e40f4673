"""Exhaustive enumeration of brace structures on a fixed additive group.

`enumerate_braces` backtracks over assignments of the lambda map with the
homomorphism constraint propagated eagerly; `brute_force_oracle` instead
enumerates every group table sharing the identity and filters by the brace
relation. The two must agree on every group small enough for the oracle,
which is the acceptance gate for the enumerator.
"""

from __future__ import annotations

import itertools

from . import errors
from .braces import TableBrace, validate_brace
from .groups import GroupTable, greedy_generators, validate_group

AUT_MAX_ORDER = 64
ENUMERATE_MAX_ORDER = 12
ORACLE_MAX_ORDER = 6


def _element_orders(g: GroupTable) -> list[int]:
    orders = []
    for x in g.elements():
        n, y = 1, x
        while y != 0:
            y = g.mul[y][x]
            n += 1
        orders.append(n)
    return orders


def automorphism_group(g: GroupTable) -> list[tuple[int, ...]]:
    """All automorphisms as permutation tuples, by extension over generator
    images with order-based pruning."""
    if g.order > AUT_MAX_ORDER:
        raise errors.TooLarge(f"automorphism listing capped at order {AUT_MAX_ORDER}")
    if g.order == 1:
        return [(0,)]
    gens = greedy_generators(g)
    orders = _element_orders(g)
    candidates = [
        [y for y in g.elements() if orders[y] == orders[gen]] for gen in gens
    ]
    found: list[tuple[int, ...]] = []

    def extend(partial: dict[int, int], gen: int, image: int) -> dict[int, int] | None:
        if gen in partial:
            return partial if partial[gen] == image else None
        new = dict(partial)
        new[gen] = image
        frontier = [gen]
        while frontier:
            nxt: list[int] = []
            for f in frontier:
                for x in list(new):
                    for a, b in ((x, f), (f, x)):
                        z = g.mul[a][b]
                        w = g.mul[new[a]][new[b]]
                        if z in new:
                            if new[z] != w:
                                return None
                        else:
                            new[z] = w
                            nxt.append(z)
            frontier = nxt
        return new

    # An explicit stack: a recursive closure would keep itself and `found`
    # alive in a reference cycle until the next garbage collection.
    stack = [(0, {0: 0})]
    while stack:
        i, partial = stack.pop()
        if i < len(gens):
            for image in candidates[i]:
                grown = extend(partial, gens[i], image)
                if grown is not None:
                    stack.append((i + 1, grown))
        elif len(partial) == g.order and len(set(partial.values())) == g.order:
            perm = tuple(partial[x] for x in g.elements())
            if all(
                perm[g.mul[a][b]] == g.mul[perm[a]][perm[b]]
                for a in g.elements()
                for b in g.elements()
            ):
                found.append(perm)
    return sorted(set(found))


def enumerate_braces(g: GroupTable, max_order: int = ENUMERATE_MAX_ORDER) -> list[TableBrace]:
    """Every brace with additive group exactly this table (labeled, no
    quotient by isomorphism), via lambda-map backtracking."""
    if g.order > max_order:
        raise errors.TooLarge(f"enumeration capped at order {max_order}")
    n = g.order
    auts = automorphism_group(g)
    aut_index = {a: i for i, a in enumerate(auts)}
    identity_aut = aut_index[tuple(range(n))]
    compose = [
        [aut_index[tuple(a[b[x]] for x in range(n))] for b in auts] for a in auts
    ]
    mul = g.mul
    braces: list[TableBrace] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()

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
                    lz = compose[lx][ly]
                    if lam[z] is None:
                        lam[z] = lz
                        fresh.append(z)
                    elif lam[z] != lz:
                        return False
        return True

    def emit(lam: list[int]) -> None:
        circ = tuple(tuple(mul[a][auts[lam[a]][b]] for b in range(n)) for a in range(n))
        if circ in seen:
            return
        seen.add(circ)
        braces.append(validate_brace(g, validate_group(circ)))

    start: list[int | None] = [None] * n
    start[0] = identity_aut
    # An explicit stack, as in `automorphism_group`: a recursive closure would
    # pin `braces`, with every brace and its caches, until a full collection.
    stack = [start] if propagate(start, [0]) else []
    while stack:
        lam = stack.pop()
        free = next((x for x in range(n) if lam[x] is None), None)
        if free is None:
            emit(lam)  # type: ignore[arg-type]
            continue
        for choice in range(len(auts)):
            trial = list(lam)
            trial[free] = choice
            if propagate(trial, [free]):
                stack.append(trial)
    braces.sort(key=lambda b: b.circ_group.mul)
    return braces


# ---------------------------------------------------------------------------
# Independent oracle.


def _all_group_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every group table on 0..n-1 with identity 0, by cell backtracking
    with Latin and incremental associativity pruning."""
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]
    table = [[-1] * n for _ in range(n)]
    for x in range(n):
        table[0][x] = x
        table[x][0] = x
    # Row x already holds x (column 0); column b already holds b (row 0).
    row_used = [{x} for x in range(n)]
    col_used = [{b} for b in range(n)]
    results: list[tuple[tuple[int, ...], ...]] = []

    def assoc_ok(a: int, b: int) -> bool:
        t = table
        for c in range(n):
            ab = t[a][b]
            bc = t[b][c]
            if bc >= 0 and t[a][bc] >= 0 and t[ab][c] >= 0 and t[ab][c] != t[a][bc]:
                return False
            xa = t[c][a]
            if xa >= 0 and t[xa][b] >= 0 and t[c][ab] >= 0 and t[xa][b] != t[c][ab]:
                return False
        return True

    def fill(i: int) -> None:
        if i == len(cells):
            results.append(tuple(tuple(row) for row in table))
            return
        a, b = cells[i]
        for v in range(n):
            if v in row_used[a] or v in col_used[b]:
                continue
            table[a][b] = v
            row_used[a].add(v)
            col_used[b].add(v)
            if assoc_ok(a, b):
                fill(i + 1)
            table[a][b] = -1
            row_used[a].remove(v)
            col_used[b].remove(v)

    fill(0)
    checked = []
    for t in results:
        if _fully_associative(t, n):
            checked.append(t)
    return checked


def _fully_associative(t: tuple[tuple[int, ...], ...], n: int) -> bool:
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[a][t[b][c]]:
                    return False
    return True


def brute_force_oracle(g: GroupTable) -> list[TableBrace]:
    """Filter every identity-sharing group table by the brace relation.

    Also closes the table list under relabelings fixing 0 as a completeness
    self-check before filtering.
    """
    n = g.order
    if n > ORACLE_MAX_ORDER:
        raise errors.TooLarge(f"oracle capped at order {ORACLE_MAX_ORDER}")
    tables = set(_all_group_tables(n))
    for t in list(tables):
        for perm_rest in itertools.permutations(range(1, n)):
            sigma = (0,) + perm_rest
            inv = [0] * n
            for i, s in enumerate(sigma):
                inv[s] = i
            relabeled = tuple(
                tuple(inv[t[sigma[a]][sigma[b]]] for b in range(n)) for a in range(n)
            )
            if relabeled not in tables:
                raise AssertionError("oracle table set is not relabel-closed")

    mul = g.mul
    dinv = g.inv
    braces = []
    for t in sorted(tables):
        ok = True
        for a in range(n):
            ia = dinv[a]
            for b in range(n):
                ab = t[a][b]
                for c in range(n):
                    if t[a][mul[b][c]] != mul[mul[ab][ia]][t[a][c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            braces.append(validate_brace(g, validate_group(t)))
    return braces
