"""The six series of a skew brace, the group series of its two groups, and
the quotient-based socle variant.

Every chain runs through `groups.run_chain`, and each series below only
declares its step on both backings. Formula braces run the `formula` step on
their element sets, `PairSpace`s interned by `BCBrace.pair_to_set`; table
braces run the step here on `ElementSet`s. `_series` is the one place that
memoizes on the brace and picks the backing. Descending chains stop
when a term repeats or hits {1}; ascending chains use lifted elementwise
predicates so no quotient is ever materialized.
"""

from __future__ import annotations

from dataclasses import replace

from . import errors, formula
from .braces import SkewBrace, TableBrace
from .formula import BCBrace
from .groups import (
    ElementSet,
    SeriesChain,
    commutator_set,
    full_set,
    lifted_step,
    run_chain,
    subgroup_closure,
    trivial_set,
)
from .substructures import _commutator, _tables_only, is_ideal, quotient_brace, star_subgroup


def _series(
    brace: SkewBrace,
    kind: str,
    pair_step,
    set_step,
    ascending: bool = False,
    plateau: int = 2,
    key: str | None = None,
) -> SeriesChain:
    """The chain of `kind`, cached under `key` (default `<kind>_series`).

    Both steps map the terms so far to the next one: `pair_step` on the
    PairSpace terms of a formula brace, `set_step` on element sets.
    """

    key = key or f"{kind}_series"
    chain = brace._cache.get(key)
    if chain is None:
        if isinstance(brace, BCBrace):
            start = brace.trivial_pair() if ascending else brace.full_pair()
            chain = run_chain(kind, start, pair_step, ascending, plateau)
            chain = replace(chain, terms=tuple(brace.pair_to_set(t) for t in chain.terms))
        else:
            start = trivial_set(brace.order) if ascending else full_set(brace.order)
            chain = run_chain(kind, start, set_step, ascending, plateau)
        brace._cache[key] = chain
    return chain


def left_series(brace: SkewBrace) -> SeriesChain:
    """A^1 = A, A^{n+1} = A * A^n."""
    return _series(
        brace,
        "left",
        lambda terms: formula.star_subgroup_pair(brace, terms[0], terms[-1]),
        lambda terms: star_subgroup(brace, terms[0], terms[-1]),
    )


def right_series(brace: SkewBrace) -> SeriesChain:
    """A^(1) = A, A^(n+1) = A^(n) * A."""
    return _series(
        brace,
        "right",
        lambda terms: formula.star_subgroup_pair(brace, terms[-1], terms[0]),
        lambda terms: star_subgroup(brace, terms[-1], terms[0]),
    )


def smoktunowicz_series(brace: SkewBrace) -> SeriesChain:
    """A^[1] = A, A^[n+1] generated by the union of A^[i] * A^[n+1-i].

    Because each term looks at every earlier one, a plateau is confirmed by
    two additional equal terms before the chain is declared stable.
    """

    def set_step(terms: list[ElementSet]) -> ElementSet:
        n = len(terms)
        union: set[int] = set()
        for i in range(n):
            union |= star_subgroup(brace, terms[i], terms[n - 1 - i]).members
        return subgroup_closure(brace.dot_group, union)

    return _series(
        brace,
        "smoktunowicz",
        lambda terms: formula.bc_smoktunowicz_step(brace, terms),
        set_step,
        plateau=3,
    )


def socle(brace: SkewBrace) -> ElementSet:
    """Soc(A) = ker(lambda) intersect Z(A, .), the first socle term."""
    return socle_series(brace).at(1)


def annihilator(brace: SkewBrace) -> ElementSet:
    """Ann(A) = Soc(A) intersect Z(A, o), the first annihilator term."""
    return annihilator_series(brace).at(1)


def socle_series(brace: SkewBrace) -> SeriesChain:
    """Soc_0 = 1 and the lifted predicate x in Soc_{n+1} iff every x*a and
    every [x, a] lands in Soc_n."""
    return _series(
        brace,
        "socle",
        lambda terms: formula.bc_socle_step(brace, terms[-1]),
        lambda terms: lifted_step(
            brace.order, (brace.star, brace.comm_dot), terms[-1], brace.generators()
        ),
        ascending=True,
    )


def annihilator_series(brace: SkewBrace) -> SeriesChain:
    return _series(
        brace,
        "annihilator",
        lambda terms: formula.bc_annihilator_step(brace, terms[-1]),
        lambda terms: lifted_step(
            brace.order,
            (brace.star, brace.comm_dot, brace.comm_circ),
            terms[-1],
            brace.generators(),
        ),
        ascending=True,
    )


def socle_quotient_tower(brace: SkewBrace) -> list[TableBrace]:
    """Iterated quotients A_1 = A, A_{n+1} = A_n / Soc(A_n).

    Stops once the socle becomes trivial (the chain is then constant) or the
    quotient collapses to the one-element brace.
    """
    _tables_only(brace, "socle_quotient_tower")
    chain = [brace]
    for _ in range(brace.order + 1):
        current = chain[-1]
        soc = socle(current)
        if current.order == 1 or soc.is_trivial:
            break
        nxt, _ = quotient_brace(current, soc)
        chain.append(nxt)
    return chain


def gamma_series(brace: SkewBrace) -> SeriesChain:
    """Gamma_1 = A, Gamma_{n+1} generated by Gamma_n*A, A*Gamma_n, [A, Gamma_n]."""

    def set_step(terms: list[ElementSet]) -> ElementSet:
        whole, last = terms[0], terms[-1]
        gens = set(star_subgroup(brace, last, whole).members)
        gens |= star_subgroup(brace, whole, last).members
        # all of A: Gamma_n being normal is what `gamma_equals_gamma_prime` checks
        gens |= {brace.comm_dot(a, x) for a in brace.elements() for x in last.members}
        return subgroup_closure(brace.dot_group, gens)

    return _series(brace, "gamma", lambda terms: formula.bc_gamma_step(brace, terms), set_step)


def gamma_prime_series(brace: SkewBrace) -> SeriesChain:
    """Gamma'_1 = A, Gamma'_{n+1} = [A, Gamma'_n]^A: the relative series of A."""
    _tables_only(brace, "gamma_prime_series")
    return relative_gamma_series(brace, full_set(brace.order))


def relative_gamma_series(brace: SkewBrace, ideal: ElementSet) -> SeriesChain:
    """Gamma_1(I)^A = I, Gamma_{n+1}(I)^A = [I, Gamma_n(I)^A]^A; each later
    term is an ideal closure.

    Cached per brace on the members of I. I is checked only when its chain
    is computed, so a non-ideal is never cached and always raises. A is an
    ideal by definition, and once the brace's ideals are listed, the check
    is a lookup, as the list is complete.
    """
    _tables_only(brace, "relative_gamma_series")
    key = ("relative_gamma", ideal.members)
    chain = brace._cache.get(key)
    if chain is None:
        ideals = brace._cache.get("ideals")
        if ideals is not None:
            known = ideal in ideals
        else:
            known = ideal == full_set(brace.order) or is_ideal(brace, ideal)
        if not known:
            raise errors.NotAnIdeal("relative series of a non-ideal")
        chain = run_chain(
            "relative_gamma", ideal, lambda terms: _commutator(brace, terms[0], terms[-1])
        )
        brace._cache[key] = chain
    return chain


def zeta_dot_series(brace: SkewBrace) -> SeriesChain:
    """Upper central series of (A, .), on either backing."""
    return _series(
        brace,
        "group_upper",
        lambda terms: formula.bc_zeta_dot_step(brace, terms[-1]),
        lambda terms: lifted_step(
            brace.order, (brace.dot_group.comm,), terms[-1], brace.generators()
        ),
        ascending=True,
        key="zeta_dot",
    )


def zeta_circ_series(brace: SkewBrace) -> SeriesChain:
    return _series(
        brace,
        "group_upper",
        lambda terms: formula.bc_zeta_circ_step(brace, terms[-1]),
        lambda terms: lifted_step(
            brace.order, (brace.circ_group.comm,), terms[-1], brace.generators()
        ),
        ascending=True,
        key="zeta_circ",
    )


def gamma_dot_series(brace: SkewBrace) -> SeriesChain:
    """Lower central series of (A, .), on either backing."""
    return _series(
        brace,
        "group_lower",
        lambda terms: formula.bc_gamma_dot_step(brace, terms),
        lambda terms: commutator_set(brace.dot_group, brace.generators(), terms[-1]),
        key="gamma_dot",
    )


def gamma_circ_series(brace: SkewBrace) -> SeriesChain:
    return _series(
        brace,
        "group_lower",
        lambda terms: formula.bc_gamma_circ_step(brace, terms),
        lambda terms: commutator_set(brace.circ_group, brace.generators(), terms[-1]),
        key="gamma_circ",
    )


ALL_SERIES = {
    "left": left_series,
    "right": right_series,
    "smoktunowicz": smoktunowicz_series,
    "socle": socle_series,
    "annihilator": annihilator_series,
    "gamma": gamma_series,
}
