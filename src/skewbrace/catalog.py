"""Constructors for the concrete brace families and the JSON spec format."""

from __future__ import annotations

from typing import Any

from . import errors, groups
from .braces import (
    SkewBrace,
    TableBrace,
    build_almost_trivial,
    build_from_radical_ring,
    build_trivial,
    validate_brace,
)
from .formula import BCBrace, bc_brace
from .fp import is_prime, mat_identity
from .groups import GroupTable, as_int, builtin_group, builtin_order, validate_group


def make_pq_brace(p: int, q: int, k: int, variant: str) -> TableBrace:
    """The two order-pq braces on C_p x C_q, element (i, j) at index i + p*j.

    Variant "i" keeps the componentwise product and twists circ by k^j;
    variant "ii" twists the dot product instead and double-twists circ.
    """
    groups.check_table_cap((p * q) ** 2, "each pq table")
    if variant not in ("i", "ii"):
        raise errors.BadParameters(f"variant must be 'i' or 'ii', got {variant!r}")
    if not is_prime(p) or not is_prime(q):
        raise errors.BadParameters("p and q must both be prime")
    if p % q != 1:
        raise errors.BadParameters("need p = 1 (mod q)")
    k = k % p
    if pow(k, q, p) != 1 or k == 1:
        raise errors.BadParameters("k must have multiplicative order q modulo p")

    n = p * q

    def enc(i: int, j: int) -> int:
        return i % p + p * (j % q)

    def dec(x: int) -> tuple[int, int]:
        return x % p, x // p

    if variant == "i":

        def dot_fn(a, b):
            (i, j), (s, t) = dec(a), dec(b)
            return enc(i + s, j + t)

        def circ_fn(a, b):
            (i, j), (s, t) = dec(a), dec(b)
            return enc(i + pow(k, j, p) * s, j + t)

    else:

        def dot_fn(a, b):
            (i, j), (s, t) = dec(a), dec(b)
            return enc(i + pow(k, j, p) * s, j + t)

        def circ_fn(a, b):
            (i, j), (s, t) = dec(a), dec(b)
            return enc(pow(k, t, p) * i + pow(k, j, p) * s, j + t)

    dot_rows = [[dot_fn(a, b) for b in range(n)] for a in range(n)]
    circ_rows = [[circ_fn(a, b) for b in range(n)] for a in range(n)]
    return validate_brace(dot_rows, circ_rows)


def make_bc_brace(p: int, d_b: int, d_c: int, phi_mats, psi_mats) -> BCBrace:
    """Formula-backed brace on F_p^{d_b} x F_p^{d_c} from the two actions."""
    if len(phi_mats) != d_c:
        raise errors.BadParameters(f"phi needs one matrix per C basis vector ({d_c})")
    if len(psi_mats) != d_b:
        raise errors.BadParameters(f"psi needs one matrix per B basis vector ({d_b})")
    return bc_brace(p, phi_mats, psi_mats)


def make_counterexample_F(p: int) -> BCBrace:
    """The order-p^8 brace witnessing the failure of inclusion (F) at (3, 0).

    Both factors are F_p^4; phi sends only the last basis vector of C to a
    unipotent Jordan block and psi sends only the third basis vector of B to
    a two-step unipotent. Needs p >= 5; `bc_brace` then tests primality.
    """
    if p < 5:
        raise errors.BadPrime(f"the construction needs a prime p >= 5, got {p}")
    ident = mat_identity(4)
    phi_e4 = (
        (1, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 1, 1),
        (0, 0, 0, 1),
    )
    psi_e3 = (
        (1, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    phi = (ident, ident, ident, phi_e4)
    psi = (ident, ident, psi_e3, ident)
    return make_bc_brace(p, 4, 4, phi, psi)


# ---------------------------------------------------------------------------
# JSON spec format shared by the CLI and the files it emits.


def _group_from_field(value: Any) -> GroupTable:
    if isinstance(value, str):
        groups.check_table_cap(builtin_order(value) ** 2, f"the table of {value}")
        return builtin_group(value)
    if isinstance(value, list):
        return validate_group(value)
    raise errors.ParseError("group must be a table or a builtin name")


def brace_from_spec(spec: dict) -> SkewBrace:
    """Build a brace from its JSON description; see the CLI docs for kinds."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise errors.ParseError("brace spec must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "tables":
            return validate_brace(spec["dot"], spec["circ"])
        if kind == "trivial":
            return build_trivial(_group_from_field(spec["group"]))
        if kind == "almost_trivial":
            return build_almost_trivial(_group_from_field(spec["group"]))
        if kind == "radical_ring":
            return build_from_radical_ring(spec["add"], spec["mult"])
        if kind == "pq":
            p, q, k = (as_int(spec[f]) for f in ("p", "q", "k"))
            return make_pq_brace(p, q, k, spec["variant"])
        if kind == "bc":
            p, d_b, d_c = (as_int(spec[f]) for f in ("p", "d_b", "d_c"))
            return make_bc_brace(p, d_b, d_c, spec["phi"], spec["psi"])
        if kind == "counterexample_F":
            return make_counterexample_F(as_int(spec["p"]))
    except KeyError as exc:
        raise errors.ParseError(f"brace spec of kind {kind!r} misses field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise errors.ParseError(f"brace spec of kind {kind!r} has a malformed field: {exc}") from exc
    raise errors.ParseError(f"unknown brace kind {kind!r}")


def spec_of_tables(brace: TableBrace) -> dict:
    """The tables-form spec, which round-trips through brace_from_spec."""
    return {
        "kind": "tables",
        "dot": [list(row) for row in brace.dot_group.mul],
        "circ": [list(row) for row in brace.circ_group.mul],
    }
