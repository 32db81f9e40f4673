"""Family constructors and the JSON spec format."""

from __future__ import annotations

import pytest

import skewbrace as sb
from skewbrace import errors, groups
from tests.conftest import bc16


def test_pq_parameter_validation():
    with pytest.raises(errors.BadParameters):
        sb.make_pq_brace(4, 2, 2, "i")  # p not prime
    with pytest.raises(errors.BadParameters):
        sb.make_pq_brace(5, 3, 2, "i")  # p != 1 mod q
    with pytest.raises(errors.BadParameters):
        sb.make_pq_brace(3, 2, 1, "i")  # k = 1
    with pytest.raises(errors.BadParameters):
        sb.make_pq_brace(7, 3, 3, "i")  # 3^3 = 27 != 1 mod 7
    with pytest.raises(errors.BadParameters):
        sb.make_pq_brace(3, 2, 2, "iii")


def test_pq_variant_i_group_shapes():
    brace = sb.make_pq_brace(3, 2, 2, "i")
    assert brace.dot_group.is_abelian()
    assert not brace.circ_group.is_abelian()


def test_pq_variant_ii_group_shapes():
    brace = sb.make_pq_brace(3, 2, 2, "ii")
    assert not brace.dot_group.is_abelian()
    assert brace.circ_group.is_abelian()


def test_pq_order_ten():
    brace = sb.make_pq_brace(5, 2, 4, "i")
    assert brace.order == 10


def test_pq_q_three():
    brace = sb.make_pq_brace(7, 3, 2, "i")
    assert brace.order == 21
    whole = sb.groups.full_set(21)
    assert sb.star_subgroup(brace, whole, whole).sorted() == list(range(7))


def test_pq_star_subgroup_is_cp():
    brace = sb.make_pq_brace(3, 2, 2, "i")
    whole = sb.groups.full_set(6)
    assert sb.star_subgroup(brace, whole, whole).sorted() == [0, 1, 2]


def test_catalog_braces_validate(catalog):
    """Every table-backed catalog brace survives the full cubic check."""
    for name, brace in catalog:
        if brace.backing != "table":
            continue
        rebuilt = sb.validate_brace(brace.dot_group, brace.circ_group)
        assert rebuilt.order == brace.order, name


def test_catalog_identities(catalog):
    for name, brace in catalog:
        if brace.backing != "table":
            continue
        assert sb.check_identities(brace)["passed"], name


def test_catalog_formula_identities(catalog):
    for name, brace in catalog:
        if brace.backing != "formula" or brace.order > 100:
            continue
        assert sb.check_identities(brace, samples=2000)["passed"], name


def test_brace_from_spec_kinds(groups):
    table_spec = {
        "kind": "tables",
        "dot": [list(r) for r in groups["C2"].mul],
        "circ": [list(r) for r in groups["C2"].mul],
    }
    assert sb.brace_from_spec(table_spec).order == 2
    assert sb.brace_from_spec({"kind": "trivial", "group": "S3"}).order == 6
    assert sb.brace_from_spec({"kind": "almost_trivial", "group": "D4"}).order == 8
    assert sb.brace_from_spec(
        {"kind": "pq", "p": 3, "q": 2, "k": 2, "variant": "i"}
    ).order == 6
    assert sb.brace_from_spec({"kind": "counterexample_F", "p": 5}).order == 5**8
    bc = sb.brace_from_spec(
        {
            "kind": "bc",
            "p": 2,
            "d_b": 1,
            "d_c": 1,
            "phi": [[[1]]],
            "psi": [[[1]]],
        }
    )
    assert bc.order == 4


def test_brace_from_spec_rejects_unknown():
    with pytest.raises(errors.ParseError):
        sb.brace_from_spec({"kind": "mystery"})
    with pytest.raises(errors.ParseError):
        sb.brace_from_spec({"no": "kind"})
    with pytest.raises(errors.ParseError):
        sb.brace_from_spec({"kind": "pq", "p": 3})


@pytest.mark.parametrize("kind", ["trivial", "almost_trivial"])
def test_builtin_spec_group_is_capped_before_building(monkeypatch, kind):
    """A spec's builtin name gives its order, so its 16-cell C4 table is
    refused at TABLE_CAP 15 without being built, and built at 16."""
    built = []
    monkeypatch.setattr(sb.catalog, "builtin_group", lambda name: built.append(name) or sb.cyclic(4))
    monkeypatch.setattr(groups, "TABLE_CAP", 15)
    with pytest.raises(errors.TooLarge, match="TABLE_CAP"):
        sb.brace_from_spec({"kind": kind, "group": "C4"})
    assert built == []
    monkeypatch.setattr(groups, "TABLE_CAP", 16)
    assert sb.brace_from_spec({"kind": kind, "group": "C4"}).order == 4 and built == ["C4"]


def test_pq_tables_are_capped_before_building(monkeypatch):
    """The order-6 pq brace's two 36-cell tables are refused at TABLE_CAP 35
    before p and q are tested for primality, and built at 36."""
    tested = []
    monkeypatch.setattr(sb.catalog, "is_prime", lambda n: tested.append(n) or sb.fp.is_prime(n))
    monkeypatch.setattr(groups, "TABLE_CAP", 35)
    for variant in ("i", "ii"):
        with pytest.raises(errors.TooLarge, match="TABLE_CAP"):
            sb.make_pq_brace(3, 2, 2, variant)
    assert tested == []
    monkeypatch.setattr(groups, "TABLE_CAP", 36)
    assert sb.make_pq_brace(3, 2, 2, "i").order == 6 and tested == [3, 2]


def test_spec_of_tables_roundtrip(catalog, corpus8):
    """Every table brace of the catalog (a radical ring among them), the
    order <= 8 corpus and a materialized formula brace."""
    tables = [b for _, b in catalog if isinstance(b, sb.TableBrace)] + [b for _, b in corpus8]
    for brace in tables + [sb.materialize_table_brace(bc16())]:
        again = sb.brace_from_spec(sb.spec_of_tables(brace))
        assert again.dot_group.mul == brace.dot_group.mul
        assert again.circ_group.mul == brace.circ_group.mul
