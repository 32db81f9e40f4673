"""The six series of a skew brace, the group series of its two groups, and
the quotient-based socle variant.

Every chain runs through `groups.run_chain`, and each series below is
declared once, as its definition over the set operations of
`substructures`: star subgroups, dot joins, lifted steps and commutators.
Those pick the backing from the term type, so a formula brace's terms are
interned `PairSpace`s and a table brace's are element sets. `_series` is the
one place that memoizes a chain on the brace. Descending chains stop when a
term repeats or hits {1}; ascending chains use lifted elementwise predicates
so no quotient is ever materialized.
"""

from __future__ import annotations

from . import errors
from .braces import SkewBrace, TableBrace
from .groups import ElementSet, SeriesChain, full_set, run_chain
from .substructures import (
    _commutator,
    _tables_only,
    commutators,
    dot_join,
    is_ideal,
    lifted,
    quotient_brace,
    star_subgroup,
    trivial_and_full,
)


def _series(
    brace: SkewBrace,
    kind: str,
    step,
    ascending: bool = False,
    plateau: int = 2,
    key: str | None = None,
) -> SeriesChain:
    """The chain of `kind` from {1} (ascending) or A, where `step` maps the
    terms so far to the next; cached under `key` (default `<kind>_series`)."""
    key = key or f"{kind}_series"
    chain = brace._cache.get(key)
    if chain is None:
        one, whole = trivial_and_full(brace)
        start = one if ascending else whole
        chain = brace._cache[key] = run_chain(kind, start, step, ascending, plateau)
    return chain


def left_series(brace: SkewBrace) -> SeriesChain:
    """A^1 = A, A^{n+1} = A * A^n."""
    return _series(brace, "left", lambda terms: star_subgroup(brace, terms[0], terms[-1]))


def right_series(brace: SkewBrace) -> SeriesChain:
    """A^(1) = A, A^(n+1) = A^(n) * A."""
    return _series(brace, "right", lambda terms: star_subgroup(brace, terms[-1], terms[0]))


def smoktunowicz_series(brace: SkewBrace) -> SeriesChain:
    """A^[1] = A, A^[n+1] generated by the union of A^[i] * A^[n+1-i].

    Because each term looks at every earlier one, a plateau is confirmed by
    two additional equal terms before the chain is declared stable.
    """

    def step(terms: list[ElementSet]) -> ElementSet:
        n = len(terms)
        return dot_join(brace, [star_subgroup(brace, terms[i], terms[n - 1 - i]) for i in range(n)])

    return _series(brace, "smoktunowicz", step, plateau=3)


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
        brace, "socle", lambda terms: lifted(brace, terms[-1], ("star", "comm_dot")), ascending=True
    )


def annihilator_series(brace: SkewBrace) -> SeriesChain:
    maps = ("star", "comm_dot", "comm_circ")
    return _series(
        brace, "annihilator", lambda terms: lifted(brace, terms[-1], maps), ascending=True
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

    def step(terms: list[ElementSet]) -> ElementSet:
        whole, last = terms[0], terms[-1]
        parts = [
            star_subgroup(brace, last, whole),
            star_subgroup(brace, whole, last),
            commutators(brace, "dot", last),
        ]
        return dot_join(brace, parts)

    return _series(brace, "gamma", step)


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
    """Upper central series of (A, .)."""
    step = lambda terms: lifted(brace, terms[-1], ("comm_dot",))
    return _series(brace, "group_upper", step, ascending=True, key="zeta_dot")


def zeta_circ_series(brace: SkewBrace) -> SeriesChain:
    step = lambda terms: lifted(brace, terms[-1], ("comm_circ",))
    return _series(brace, "group_upper", step, ascending=True, key="zeta_circ")


def gamma_dot_series(brace: SkewBrace) -> SeriesChain:
    """Lower central series of (A, .)."""
    step = lambda terms: commutators(brace, "dot", terms[-1])
    return _series(brace, "group_lower", step, key="gamma_dot")


def gamma_circ_series(brace: SkewBrace) -> SeriesChain:
    step = lambda terms: commutators(brace, "circ", terms[-1])
    return _series(brace, "group_lower", step, key="gamma_circ")


ALL_SERIES = {
    "left": left_series,
    "right": right_series,
    "smoktunowicz": smoktunowicz_series,
    "socle": socle_series,
    "annihilator": annihilator_series,
    "gamma": gamma_series,
}
