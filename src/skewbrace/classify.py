"""Nilpotency classification, the comparison theorems as executable checks,
the eight inclusion relations, relative annihilator nilpotency, and the
Fitting ideal."""

from __future__ import annotations

from dataclasses import dataclass

from . import errors, formula
from .braces import SkewBrace, TableBrace
from .formula import PairSpace
from .groups import SUBGROUPS_MAX_ORDER, ElementSet, normal_subgroups
from .series import (
    annihilator_series,
    gamma_circ_series,
    gamma_dot_series,
    gamma_prime_series,
    gamma_series,
    left_series,
    relative_gamma_series,
    right_series,
    smoktunowicz_series,
    socle_series,
)
from .substructures import _tables_only, ideal_closure, star_subgroup


@dataclass(frozen=True)
class NilpotencyProfile:
    """Least classes of the four brace series plus both group classes.

    Every field is the least index reaching the terminal set, or None when
    the chain stabilizes short of it.
    """

    left: int | None
    right: int | None
    socle: int | None
    annihilator: int | None
    add_group_nilpotent: int | None
    mult_group_nilpotent: int | None


def _descending_class(chain) -> int | None:
    cls = chain.terminal_class()
    return None if cls is None else cls - 1


def nilpotency_profile(brace: SkewBrace) -> NilpotencyProfile:
    return NilpotencyProfile(
        left=_descending_class(left_series(brace)),
        right=_descending_class(right_series(brace)),
        socle=socle_series(brace).terminal_class(),
        annihilator=annihilator_series(brace).terminal_class(),
        add_group_nilpotent=_descending_class(gamma_dot_series(brace)),
        mult_group_nilpotent=_descending_class(gamma_circ_series(brace)),
    )


def check_equivalence_theorems(brace: SkewBrace) -> dict:
    """Evaluate both sides of every nilpotency biconditional independently.

    Covers: socle nilpotent iff right nilpotent with nilpotent additive
    group; the three-way equivalence with annihilator nilpotency; the
    mixed-index series theorem; the annihilator/lower-central
    correspondence with its index offset; and (for table braces) equality
    of the two lower central series.
    """
    prof = nilpotency_profile(brace)
    left_n = prof.left is not None
    right_n = prof.right is not None
    add_n = prof.add_group_nilpotent is not None
    mult_n = prof.mult_group_nilpotent is not None
    socle_n = prof.socle is not None
    ann_n = prof.annihilator is not None

    results: dict[str, dict] = {}
    results["socle_iff_right_and_additive"] = {
        "lhs": socle_n,
        "rhs": right_n and add_n,
        "agree": socle_n == (right_n and add_n),
    }
    sides = {
        "a": left_n and right_n and add_n,
        "b": right_n and add_n and mult_n,
        "c": ann_n,
    }
    results["annihilator_equivalence"] = {
        **sides,
        "agree": sides["a"] == sides["b"] == sides["c"],
    }
    smok = smoktunowicz_series(brace).reaches_terminal
    results["smoktunowicz_iff_left_and_right"] = {
        "lhs": smok,
        "rhs": left_n and right_n,
        "agree": smok == (left_n and right_n),
    }
    gamma_chain = gamma_series(brace)
    gamma_cls = gamma_chain.terminal_class()
    ann_cls = prof.annihilator
    agree = (gamma_cls is None) == (ann_cls is None)
    if agree and gamma_cls is not None:
        agree = gamma_cls == ann_cls + 1
    results["annihilator_iff_gamma"] = {
        "gamma_class": gamma_cls,
        "annihilator_class": ann_cls,
        "agree": agree,
    }
    if isinstance(brace, TableBrace):
        prime = gamma_prime_series(brace)
        depth = max(len(gamma_chain), len(prime))
        same = all(
            gamma_chain.at(i).members == prime.at(i).members
            for i in range(1, depth + 1)
        )
        results["gamma_equals_gamma_prime"] = {"agree": same}
    disagreements = [name for name, r in results.items() if not r["agree"]]
    return {"results": results, "disagreements": disagreements, "passed": not disagreements}


def check_cube_right_nilpotency(brace: SkewBrace) -> dict:
    """If A^3 = 1 with nilpotent additive group, right nilpotency must follow;
    reports a vacuous pass when the hypothesis fails."""
    prof = nilpotency_profile(brace)
    a3_trivial = left_series(brace).at(3).is_trivial
    hypothesis = a3_trivial and prof.left is not None and prof.add_group_nilpotent is not None
    if not hypothesis:
        return {"hypothesis": False, "holds": True, "vacuous": True}
    return {"hypothesis": True, "holds": prof.right is not None, "vacuous": False}


INCLUSION_LABELS = "ABCDEFGH"


def _inclusion_parts(brace: SkewBrace, label: str, n: int, k: int):
    soc = socle_series(brace)
    ann = annihilator_series(brace)
    left = left_series(brace)
    right = right_series(brace)
    if label in "ABCD":
        central, target = soc, soc
    else:
        central, target = ann, ann
    descending = left if label in "ACEG" else right
    if label in "AB" or label in "EF":
        lhs = (central.at(n), descending.at(n - k))
    else:
        lhs = (descending.at(n - k), central.at(n))
    return lhs, target.at(k)


def is_inclusion_label(label: str) -> bool:
    """One of the letters A..H, in either case."""
    return len(label) == 1 and label.upper() in INCLUSION_LABELS


def check_inclusion(brace: SkewBrace, label: str, n: int, k: int) -> dict:
    """Evaluate one of the eight inclusion relations at indices (n, k)."""
    label = label.upper()
    if not is_inclusion_label(label):
        raise errors.BadIndices(f"unknown inclusion label {label!r}")
    if n < 1 or k < 0 or k > n - 1:
        raise errors.BadIndices(f"need n >= 1 and 0 <= k <= n-1, got ({n}, {k})")
    (x, y), rhs = _inclusion_parts(brace, label, n, k)
    lhs = star_subgroup(brace, x, y)
    holds = rhs.contains_pair(lhs) if isinstance(rhs, PairSpace) else lhs.members <= rhs.members
    witness = None
    if not holds:
        witness = _star_escape_witness(brace, x, y, rhs)
    return {
        "label": label,
        "n": n,
        "k": k,
        "holds": holds,
        "witness": witness,
        "lhs": lhs,
    }


def _star_escape_witness(brace: SkewBrace, x: ElementSet, y: ElementSet, rhs: ElementSet):
    if isinstance(x, PairSpace):
        found = formula.find_star_witness(brace, x, y, rhs)
        return found and tuple(brace.encode(*v) for v in found)
    inside = rhs.members
    for a in x:
        for b in y:
            v = brace.star(a, b)
            if v not in inside:
                return (a, b, v)
    return None


def check_inclusion_sweep(brace: SkewBrace, labels: str = INCLUSION_LABELS, max_n: int = 5) -> list[dict]:
    reports = []
    for label in labels:
        for n in range(1, max_n + 1):
            for k in range(0, n):
                reports.append(check_inclusion(brace, label, n, k))
    return reports


def verify_counterexample_F(p: int) -> dict:
    """Build the F_p^8 brace and confirm every step of the counterexample
    to inclusion (F) at indices (3, 0)."""
    from .catalog import make_counterexample_F

    brace = make_counterexample_F(p)
    d = 4
    expected_r2 = PairSpace(
        formula.span_of_units(p, d, (1, 2, 3)), formula.span_of_units(p, d, (1, 2))
    )
    expected_r3 = PairSpace(
        formula.span_of_units(p, d, ()), formula.span_of_units(p, d, (1, 2))
    )
    right = right_series(brace)
    r2, r3 = right.at(2), right.at(3)
    right_ok = r2 == expected_r2 and r3 == expected_r3

    ann = annihilator_series(brace)
    bounds = {
        n: PairSpace(
            formula.span_of_units(p, d, range(1, n + 1)),
            formula.span_of_units(p, d, range(1, n + 1)),
        )
        for n in (1, 2, 3)
    }
    ann_ok = all(ann.at(n).contains_pair(bounds[n]) for n in (1, 2, 3))

    e3 = tuple(1 if i == 2 else 0 for i in range(d))
    e2 = tuple(1 if i == 1 else 0 for i in range(d))
    zero = (0,) * d
    star_val = brace.vstar((e3, zero), (zero, e2))
    e1 = tuple(1 if i == 0 else 0 for i in range(d))
    star_ok = star_val == (zero, e1)

    inclusion = check_inclusion(brace, "F", 3, 0)
    report = {
        "p": p,
        "order": brace.order,
        "right_terms_match": right_ok,
        "right_2_order": r2.order,
        "right_3_order": r3.order,
        "ann_contains_expected_bounds": ann_ok,
        "ann_3_order": ann.at(3).order,
        "star_value_matches": star_ok,
        "star_value": brace.encode(*star_val),
        "inclusion_F_fails": not inclusion["holds"],
        "witness": inclusion["witness"],
    }
    report["all_confirmed"] = bool(
        right_ok and ann_ok and star_ok and report["inclusion_F_fails"]
    )
    return report


def is_rel_ann_nilpotent(brace: SkewBrace, ideal: ElementSet) -> int | None:
    """Least n with the relative chain trivial at step n, or None."""
    chain = relative_gamma_series(brace, ideal)
    return chain.terminal_class()


def fitting_ideal(brace: SkewBrace) -> ElementSet:
    """Ideal generated by all ideals that are relatively annihilator nilpotent."""
    _tables_only(brace, "fitting_ideal")
    nil_ideals = [
        i for i in enumerate_ideals(brace) if is_rel_ann_nilpotent(brace, i) is not None
    ]
    union: set[int] = {0}
    for i in nil_ideals:
        union |= i.members
    return ideal_closure(brace, union)


def enumerate_ideals(brace: TableBrace) -> list[ElementSet]:
    """Every ideal, sorted by (order, members), found once per brace; each
    call gets a fresh list.

    The ideals are the normal subgroups N of (A, .), in the order of
    `groups.normal_subgroups`, with lambda_a(x) and a o x o a-bar in N for
    every a in `brace.generators()` and x in N. Such an N is a left ideal,
    so a subgroup of (A, o), and the argument of `is_ideal` applies. The
    lattice search reads (A, .) alone, so braces on one group share it.
    """
    ideals = brace._cache.get("ideals")
    if ideals is None:
        if brace.order > SUBGROUPS_MAX_ORDER:
            raise errors.TooLargeForIdealEnumeration(
                f"ideal enumeration capped at order {SUBGROUPS_MAX_ORDER}"
            )
        gens, maps = brace.generators(), (brace.lam, brace.conj_circ)
        images = [[f(a, x) for a in gens for f in maps] for x in brace.elements()]
        ideals = brace._cache["ideals"] = tuple(
            n
            for n in normal_subgroups(brace.dot_group)
            if all(n.members.issuperset(images[x]) for x in n.members)
        )
    return list(ideals)


def check_fitting_theorem(brace: SkewBrace, i: ElementSet, j: ElementSet) -> dict:
    """For relatively nilpotent ideals of classes m and n, the product IJ
    must satisfy the m+n-1 bound on its relative chain. IJ is an ideal
    holding I and J, and every such ideal holds IJ: it is their ideal closure."""
    m = is_rel_ann_nilpotent(brace, i)
    n = is_rel_ann_nilpotent(brace, j)
    if m is None or n is None:
        return {"hypothesis_met": False, "holds": True, "vacuous": True}
    chain = relative_gamma_series(brace, ideal_closure(brace, i.members | j.members))
    bound = m + n - 1
    holds = chain.at(bound).is_trivial
    return {
        "hypothesis_met": True,
        "m": m,
        "n": n,
        "bound": bound,
        "holds": holds,
        "vacuous": False,
    }
