"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

import skewbrace as sb
from skewbrace import series
from skewbrace.enumeration import enumerate_braces
from skewbrace.formula import PairSpace, span_of_units
from tests.test_enumeration import ORACLE_COUNTS, brute_force_oracle

C3 = [0, 1, 2]
ALL6 = list(range(6))
ONE = [0]


@contextmanager
def criterion(number: int, description: str, limit: float | None = None):
    start = time.monotonic()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.monotonic() - start
        status = "FAIL" if failed else "PASS"
        print(f"criterion {number}: {status} ({elapsed:.2f}s) {description}")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_pq_variant_i_series():
    with criterion(1, "order-pq brace (i): all four series match the expected values", 1.0):
        brace = sb.make_pq_brace(3, 2, 2, "i")
        left = sb.left_series(brace)
        assert [t.sorted() for t in left.terms] == [ALL6, C3, C3]
        assert not left.reaches_terminal
        right = sb.right_series(brace)
        assert [t.sorted() for t in right.terms] == [ALL6, C3, ONE]
        assert right.reaches_terminal
        soc = sb.socle_series(brace)
        assert [t.sorted() for t in soc.terms] == [ONE, C3, ALL6]
        ann = sb.annihilator_series(brace)
        assert [t.sorted() for t in ann.terms] == [ONE, ONE]
        assert not ann.reaches_terminal


def test_criterion_02_pq_variant_ii_series():
    with criterion(2, "order-pq brace (ii): series plus the non-comparability witnesses", 1.0):
        brace = sb.make_pq_brace(3, 2, 2, "ii")
        left = sb.left_series(brace)
        assert [t.sorted() for t in left.terms] == [ALL6, C3, ONE]
        assert left.reaches_terminal
        right = sb.right_series(brace)
        assert [t.sorted() for t in right.terms] == [ALL6, C3, C3]
        assert not right.reaches_terminal
        soc = sb.socle_series(brace)
        assert all(t.sorted() == ONE for t in soc.terms)
        zcirc = series.zeta_circ_series(brace)
        assert zcirc.at(1).is_full and zcirc.reaches_terminal


def test_criterion_03_inclusion_counterexamples_pq():
    with criterion(3, "inclusions (A)-(D) fail on brace (i) with the expected witness sets", 1.0):
        brace = sb.make_pq_brace(3, 2, 2, "i")
        for label, n, k in (("A", 2, 0), ("B", 2, 0), ("C", 1, 0), ("D", 1, 0)):
            report = sb.check_inclusion(brace, label, n, k)
            assert not report["holds"], (label, n, k)
            assert report["lhs"].sorted() == C3, (label, n, k)
            assert report["witness"] is not None


def test_criterion_04_inclusion_e_always_holds(catalog, corpus8):
    with criterion(4, "inclusion (E) holds across catalog and enumerated corpus", 120.0):
        for name, brace in list(catalog) + list(corpus8):
            for report in sb.check_inclusion_sweep(brace, "E", max_n=5):
                assert report["holds"], (name, report["n"], report["k"])


def test_criterion_05_f5_counterexample():
    with criterion(5, "order-5^8 brace: validation, series terms, and failing (F)", 300.0):
        brace = sb.make_counterexample_F(5)
        validation = sb.validate_formula_brace(brace, samples=100_000)
        assert validation["passed"]
        right = sb.right_series(brace)
        assert right.at(2).pair == PairSpace(
            span_of_units(5, 4, (1, 2, 3)), span_of_units(5, 4, (1, 2))
        )
        assert len(right.at(2)) == 3125
        assert right.at(3).pair == PairSpace(
            span_of_units(5, 4, ()), span_of_units(5, 4, (1, 2))
        )
        assert len(right.at(3)) == 25
        ann3 = sb.annihilator_series(brace).at(3).pair
        bound = PairSpace(
            span_of_units(5, 4, (1, 2, 3)), span_of_units(5, 4, (1, 2, 3))
        )
        assert ann3.contains_pair(bound)
        zero = (0, 0, 0, 0)
        assert brace.vstar(((0, 0, 1, 0), zero), (zero, (0, 1, 0, 0))) == (
            zero,
            (1, 0, 0, 0),
        )
        report = sb.check_inclusion(brace, "F", 3, 0)
        assert not report["holds"]


def test_criterion_06_identity_suite(catalog, corpus8, f5):
    with criterion(6, "star identities on all triples (tables) and sampled triples (formula)"):
        for name, brace in list(catalog) + list(corpus8):
            if brace.backing != "table" or brace.order > 12:
                continue
            report = sb.check_identities(brace)
            assert report["passed"], (name, report["failures"])
            assert report["checked"] == brace.order**3
        report = sb.check_identities(f5, samples=100_000)
        assert report["passed"], report["failures"]


def test_criterion_07_ideal_suite(catalog, corpus8):
    with criterion(7, "series terms are left ideals / ideals across the corpus"):
        for name, brace in list(catalog) + list(corpus8):
            for fn in (sb.left_series, sb.smoktunowicz_series):
                for t in fn(brace).terms:
                    assert sb.is_left_ideal(brace, t), (name, fn.__name__)
            for fn in (
                sb.right_series,
                sb.gamma_series,
                sb.socle_series,
                sb.annihilator_series,
            ):
                for t in fn(brace).terms:
                    assert sb.is_ideal(brace, t), (name, fn.__name__)
            assert sb.is_ideal(brace, sb.socle(brace)), name
            assert sb.is_ideal(brace, sb.annihilator(brace)), name


def test_criterion_08_equivalence_theorems(catalog, corpus8):
    with criterion(8, "all nilpotency comparison theorems agree on the corpus", 300.0):
        for name, brace in list(catalog) + list(corpus8):
            report = sb.check_equivalence_theorems(brace)
            assert report["passed"], (name, report["disagreements"])
            cube = sb.check_cube_right_nilpotency(brace)
            assert cube["holds"], name


def test_criterion_09_oracle_equivalence(groups):
    with criterion(9, "enumerator matches the brute-force oracle up to order 6"):
        for name, count in ORACLE_COUNTS.items():
            g = groups[name]
            enum_tables = {b.circ_group.mul for b in enumerate_braces(g)}
            oracle_tables = {b.circ_group.mul for b in brute_force_oracle(g)}
            assert enum_tables == oracle_tables, name
            assert len(enum_tables) == count, name


def test_criterion_10_fitting_suite(corpus8):
    with criterion(10, "relative nilpotency bound for ideal products; Fitting ideal nilpotent"):
        for name, brace in corpus8:
            ideals = sb.enumerate_ideals(brace)
            classes = {i.members: sb.is_rel_ann_nilpotent(brace, i) for i in ideals}
            nil = [i for i in ideals if classes[i.members] is not None]
            for a in range(len(nil)):
                for b in range(a, len(nil)):
                    report = sb.check_fitting_theorem(brace, nil[a], nil[b])
                    assert report["hypothesis_met"] and report["holds"], name
            fit = sb.fitting_ideal(brace)
            assert sb.is_rel_ann_nilpotent(brace, fit) is not None, name


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
