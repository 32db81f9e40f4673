"""Shared fixtures: the named test groups, the brace catalog, the enumerated
corpus of order <= 8, the braces of order 9 to 12, and the big formula
brace."""

from __future__ import annotations

import itertools

import pytest

import skewbrace as sb
from skewbrace.braces import IDENTITY_NAMES

I2 = ((1, 0), (0, 1))
UNI2 = ((1, 1), (0, 1))


def small_group_tables() -> dict[str, sb.GroupTable]:
    groups = {
        "C1": sb.cyclic(1),
        "C2": sb.cyclic(2),
        "C3": sb.cyclic(3),
        "C4": sb.cyclic(4),
        "V4": sb.builtin_group("C2xC2"),
        "C5": sb.cyclic(5),
        "C6": sb.cyclic(6),
        "C3xC2": sb.direct_product(sb.cyclic(3), sb.cyclic(2)),
        "S3": sb.symmetric(3),
        "C7": sb.cyclic(7),
        "C8": sb.cyclic(8),
        "C2xC4": sb.builtin_group("C2xC4"),
        "C2xC2xC2": sb.builtin_group("C2xC2xC2"),
        "D4": sb.dihedral(4),
        "Q8": sb.quaternion8(),
        "C9": sb.cyclic(9),
        "C3xC3": sb.builtin_group("C3xC3"),
        "D5": sb.dihedral(5),
        "C12": sb.cyclic(12),
        "A4": sb.builtin_group("A4"),
        "D6": sb.dihedral(6),
        "D8": sb.dihedral(8),
    }
    return groups


ORDER8_GROUPS = [
    "C1",
    "C2",
    "C3",
    "C4",
    "V4",
    "C5",
    "C6",
    "S3",
    "C7",
    "C8",
    "C2xC4",
    "C2xC2xC2",
    "D4",
    "Q8",
]


@pytest.fixture(scope="session")
def groups() -> dict[str, sb.GroupTable]:
    return small_group_tables()


def radical_z4_tables():
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mult = [[(2 * a * b) % 4 for b in range(4)] for a in range(4)]
    return add, mult


def bc16() -> sb.BCBrace:
    return sb.make_bc_brace(2, 2, 2, (I2, UNI2), (I2, UNI2))


def bc81() -> sb.BCBrace:
    u3 = ((1, 1), (0, 1))
    return sb.make_bc_brace(3, 2, 2, (I2, u3), (I2, u3))


def injective_phi_spec(p: int) -> dict:
    """A bc spec on F_p^4 x F_p^4 whose phi is injective: phi_{e_j} = id + E_j
    for the four commuting square-zero units E_13, E_14, E_23, E_24, and psi
    trivial (ker phi = 0). Each of the p^4 values of c has its own matrix."""
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    phi = [[[int(i == j or (i, j) == unit) for j in range(4)] for i in range(4)]
           for unit in ((0, 2), (0, 3), (1, 2), (1, 3))]
    return {"kind": "bc", "p": p, "d_b": 4, "d_c": 4, "phi": phi, "psi": [ident] * 4}


@pytest.fixture(scope="session")
def f5() -> sb.BCBrace:
    return sb.make_counterexample_F(5)


@pytest.fixture(scope="session")
def catalog(groups, f5) -> list[tuple[str, sb.SkewBrace]]:
    add, mult = radical_z4_tables()
    entries: list[tuple[str, sb.SkewBrace]] = [
        ("trivial_C2", sb.build_trivial(groups["C2"])),
        ("trivial_C6", sb.build_trivial(groups["C6"])),
        ("trivial_S3", sb.build_trivial(groups["S3"])),
        ("trivial_D4", sb.build_trivial(groups["D4"])),
        ("trivial_Q8", sb.build_trivial(groups["Q8"])),
        ("almost_trivial_S3", sb.build_almost_trivial(groups["S3"])),
        ("almost_trivial_D4", sb.build_almost_trivial(groups["D4"])),
        ("pq_i", sb.make_pq_brace(3, 2, 2, "i")),
        ("pq_ii", sb.make_pq_brace(3, 2, 2, "ii")),
        ("pq_i_52", sb.make_pq_brace(5, 2, 4, "i")),
        ("pq_i_73", sb.make_pq_brace(7, 3, 2, "i")),
        ("pq_ii_73", sb.make_pq_brace(7, 3, 2, "ii")),
        ("radical_z4", sb.build_from_radical_ring(add, mult)),
        ("bc16", bc16()),
        ("bc81", bc81()),
        ("counterexample_F5", f5),
    ]
    return entries


@pytest.fixture(scope="session")
def corpus8(groups) -> list[tuple[str, sb.TableBrace]]:
    out: list[tuple[str, sb.TableBrace]] = []
    for name in ORDER8_GROUPS:
        for i, brace in enumerate(sb.enumerate_braces(groups[name])):
            out.append((f"{name}#{i}", brace))
    return out


# Groups of order 9 to 12 and their labeled brace counts, frozen as a regression.
EXTENDED_SWEEP = {
    "C9": 3,
    "C3xC3": 9,
    "C10": 2,
    "D5": 12,
    "C11": 1,
    "C12": 6,
    "C2xC6": 12,
    "A4": 42,
    "D6": 28,
}


@pytest.fixture(scope="session")
def sweep12() -> list[tuple[str, sb.TableBrace]]:
    """Every brace on the EXTENDED_SWEEP groups."""
    out: list[tuple[str, sb.TableBrace]] = []
    for name in EXTENDED_SWEEP:
        for i, brace in enumerate(sb.enumerate_braces(sb.builtin_group(name), max_order=12)):
            out.append((f"{name}#{i}", brace))
    return out


def identity_report_one_at_a_time(brace, triples=None) -> dict:
    """The identity suite on `triples` (by default every triple of the
    carrier), each identity evaluated on its own as IDENTITY_NAMES writes it,
    failures capped at 8."""
    d, c, s, lm, inv, bar = brace.dot, brace.circ, brace.star, brace.lam, brace.inv, brace.bar
    identities = (
        lambda a, x, y: s(a, d(x, y)) == d(d(d(s(a, x), x), s(a, y)), inv(x)),
        lambda a, x, y: s(c(x, y), a) == d(d(s(x, s(y, a)), s(y, a)), s(x, a)),
        lambda a, x, y: lm(a, s(x, y)) == s(c(c(a, x), bar(a)), lm(a, y)),
        lambda a, x, y: c(c(a, x), bar(a)) == d(d(a, lm(a, d(x, s(x, bar(a))))), inv(a)),
    )
    failures, checked = [], 0
    if triples is None:
        triples = itertools.product(brace.elements(), repeat=3)
    for triple in triples:
        checked += 1
        for name, holds in zip(IDENTITY_NAMES, identities):
            if not holds(*triple):
                failures.append({"identity": name, "triple": triple})
                if len(failures) == 8:
                    return {"passed": False, "checked": checked, "failures": failures}
    return {"passed": not failures, "checked": checked, "failures": failures}
