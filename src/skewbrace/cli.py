"""Command-line front end: analyze, verify, enumerate, series, counterexample.

Exit codes: 0 success, 1 parse or usage error (a spec file not readable as
UTF-8 JSON too), 2 validation or assertion failure, 3 resource limit (a
bound, memory, or a failed write of the output). JSON is the single
interchange format; text output renders the same report object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii

from . import classify, errors, series
from .braces import DEFAULT_SEED, SkewBrace, check_identities
from .catalog import brace_from_spec, spec_of_tables
from .enumeration import ENUMERATE_MAX_ORDER, enumerate_braces, isomorphism_classes
from .formula import BCBrace, PairSpace, validate_formula_brace
from .fp import Subspace
from .groups import ElementSet, SeriesChain, builtin_group, builtin_order, validate_group
from .substructures import coset_agreement, is_ideal, is_left_ideal, is_subbrace

ELEMENT_DUMP_CAP = 1024


def set_to_json(s: ElementSet | PairSpace) -> dict:
    """A term's order and, up to ELEMENT_DUMP_CAP members, its elements.

    A formula term U x V lists the pairs [b digits, c digits] in increasing
    index order, read off its two subspaces: no index is listed or decoded.
    The index of (b, c) is idx(b) + p^d_b * idx(c), with idx(v) = sum v_i p^i
    and 0 <= idx(b) < p^d_b. So one pair comes before another iff its c has
    the smaller idx, or the c are equal and its b has the smaller idx, and
    idx orders vectors as their reversed digit tuples do lexicographically
    (the last digit is the most significant). The listing is a
    `_PairListing`, which `_render` writes from the two factor listings.
    """
    out: dict = {"order": s.order if isinstance(s, PairSpace) else len(s)}
    if isinstance(s, PairSpace):
        out["b_basis"] = [list(v) for v in s.b.basis]
        out["c_basis"] = [list(v) for v in s.c.basis]
        if s.order <= ELEMENT_DUMP_CAP:
            out["elements"] = _PairListing(_index_ordered(s.b), _index_ordered(s.c))
    else:
        out["elements"] = s.sorted()
    return out


class _PairListing(list):
    """The pairs [b, c] for c in cs for b in bs, a plain list to every
    reader; it keeps bs and cs for `_render`."""

    def __init__(self, bs: list[list[int]], cs: list[list[int]]):
        super().__init__([[b, c] for c in cs for b in bs])
        self.bs, self.cs = bs, cs


def _index_ordered(space: Subspace) -> list[list[int]]:
    """The members of a subspace as lists, by increasing idx(v) = sum v_i p^i."""
    return [list(v) for v in sorted(space.elements(), key=lambda v: v[::-1])]


def chain_to_json(chain: SeriesChain) -> dict:
    return {
        "kind": chain.kind,
        "start_index": chain.start_index,
        "terms": [set_to_json(t) for t in chain.terms],
        "stabilized_at": chain.stabilized_at,
        "reaches_terminal": chain.reaches_terminal,
    }


def _load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
        raise errors.ParseError(f"cannot read brace spec {path}: {exc}") from exc


# The `series --kind` names: the six brace series, then the four group series.
CHAINS = {
    **series.ALL_SERIES,
    "group_lower_dot": series.gamma_dot_series,
    "group_upper_dot": series.zeta_dot_series,
    "group_lower_circ": series.gamma_circ_series,
    "group_upper_circ": series.zeta_circ_series,
}


def _all_chains(brace: SkewBrace) -> dict[str, SeriesChain]:
    return {name: fn(brace) for name, fn in CHAINS.items()}


def cmd_analyze(args: argparse.Namespace) -> int:
    labels = [x.strip() for x in args.checks.split(",") if x.strip()]
    if not all(map(classify.is_inclusion_label, labels)):
        raise errors.ParseError(f"--checks takes letters A..H, got {args.checks!r}")
    brace = brace_from_spec(_load_spec(args.file))
    profile = classify.nilpotency_profile(brace)
    chains = _all_chains(brace)
    report = {
        "order": brace.order,
        "backing": brace.backing,
        "profile": asdict(profile),
        "series": {name: chain_to_json(c) for name, c in chains.items()},
        "socle": set_to_json(series.socle(brace)),
        "annihilator": set_to_json(series.annihilator(brace)),
    }
    if args.checks:
        report["checks"] = [
            {**r, "lhs": set_to_json(r["lhs"])}
            for r in classify.check_inclusion_sweep(brace, labels, max_n=args.max_n)
        ]
    _emit(args, report)
    return 0


def _render_text(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _render_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _render_text(item, indent + 1)
                print(f"{pad}  -")
        else:
            print(f"{pad}{key}: {value}")


def _json(value, pad: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, built as one string.

    With an indent, `json.dump` runs the pure-Python streaming encoder and
    writes every token on its own; here each container's items are joined in
    C, a plain str, int, bool or None is converted by its type and any other
    scalar goes to `json.dumps`. Keys are sorted before they are converted,
    as `json` does it.
    """
    return _render(value, pad)


def _render(value, pad: str) -> str:
    """`value` as `_json` writes it at the indent `pad`. A `_PairListing`
    renders each vector of its factor listings once and joins them pairwise."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_json_key(k) + ": " + _render(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if type(value) is _PairListing:
            deep = inner + "  "
            heads = ["[" + deep + _render(b, deep) + "," + deep for b in value.bs]
            tails = [_render(c, deep) + inner + "]" for c in value.cs]
            parts = [head + tail for tail in tails for head in heads]
        elif set(map(type, value)) == {int}:
            parts = map(int.__repr__, value)
        else:
            parts = [_render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    return _SCALARS.get(type(value), json.dumps)(value)


# What `json.dumps` writes for a scalar of exactly one of these types.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
            bool: lambda b: "true" if b else "false"}


def _json_key(key) -> str:
    """A dict key as `json` writes it: an int, float, bool or None key as the
    quoted text of its value."""
    text = key if isinstance(key, str) else _SCALARS.get(type(key), json.dumps)(key)
    return encode_basestring_ascii(text)


def _emit(args: argparse.Namespace, report: dict) -> None:
    if args.json:
        print(_json(report))
    else:
        _render_text(report)


def _suite_identities(brace: SkewBrace, args) -> list[str]:
    failures = []
    result = check_identities(brace, samples=args.samples, seed=args.seed)
    if not result["passed"]:
        failures.extend(f"identity failure: {f}" for f in result["failures"])
    if isinstance(brace, BCBrace):
        try:
            validate_formula_brace(brace, samples=args.samples, seed=args.seed)
        except errors.AlgebraError as exc:
            failures.append(f"formula validation: {exc}")
    return failures


def _suite_ideals(brace: SkewBrace, args) -> list[str]:
    failures = []
    chains = _all_chains(brace)
    for name in ("left", "smoktunowicz"):
        for i, term in enumerate(chains[name].terms):
            if not is_left_ideal(brace, term):
                failures.append(f"{name} term {i} is not a left ideal")
            elif not is_subbrace(brace, term):
                failures.append(f"{name} term {i} is not a sub-skew brace")
    for name in ("right", "gamma", "socle", "annihilator"):
        for i, term in enumerate(chains[name].terms):
            if not is_ideal(brace, term):
                failures.append(f"{name} term {i} is not an ideal")
    for term in chains["left"].terms:
        for a in brace.generators():
            if not coset_agreement(brace, term, a):
                failures.append(f"coset agreement fails at a={a}")
    return failures


EXPECTED_FAILURES = {
    "pq-i": {("A", 2, 0), ("B", 2, 0), ("C", 1, 0), ("D", 1, 0)},
    "counterexample_F": {("F", 3, 0)},
}


def _suite_inclusions(brace: SkewBrace, args, spec_kind: str | None) -> list[str]:
    failures = []
    for r in classify.check_inclusion_sweep(brace, "E", max_n=args.max_n):
        if not r["holds"]:
            failures.append(
                f"inclusion (E) fails at ({r['n']}, {r['k']}) with witness {r['witness']}"
            )
    expected = EXPECTED_FAILURES.get(spec_kind or "", set())
    for label, n, k in sorted(expected):
        r = classify.check_inclusion(brace, label, n, k)
        if r["holds"]:
            failures.append(f"inclusion ({label}) at ({n}, {k}) unexpectedly holds")
    return failures


def _suite_theorems(brace: SkewBrace, args) -> list[str]:
    failures = []
    eq = classify.check_equivalence_theorems(brace)
    failures.extend(f"theorem disagreement: {name}" for name in eq["disagreements"])
    cube = classify.check_cube_right_nilpotency(brace)
    if not cube["holds"]:
        failures.append("A^3 = 1 with nilpotent additive group but not right nilpotent")
    return failures


def _spec_kind(spec: dict) -> str | None:
    kind = spec.get("kind")
    if kind == "pq":
        return f"pq-{spec.get('variant')}"
    return kind


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _load_spec(args.file)
    brace = brace_from_spec(spec)
    kind = _spec_kind(spec)
    suites = {
        "identities": lambda: _suite_identities(brace, args),
        "ideals": lambda: _suite_ideals(brace, args),
        "inclusions": lambda: _suite_inclusions(brace, args, kind),
        "theorems": lambda: _suite_theorems(brace, args),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    failures: list[str] = []
    for n in names:
        failures.extend(suites[n]())
    report = {"suites": names, "failures": failures, "passed": not failures}
    _emit(args, report)
    return 0 if not failures else 2


def cmd_enumerate(args: argparse.Namespace) -> int:
    """Writes the list one entry at a time, in the bytes of
    `json.dumps(entries, sort_keys=True)` with --json and of `_json(entries)`
    without, plus a newline: each entry's values are encoded apart and joined
    by sorted key, and the dot table, `group` in every entry, is encoded once.
    A profile is an isomorphism invariant, so with --profile it is computed
    and encoded once per isomorphism class, at the class's first brace, and
    its text reused by the rest of the class. Every refusal comes from the
    group or the search, before the first byte."""
    if args.builtin:
        order = builtin_order(args.builtin)
        if order > args.max_order:  # before any table is built
            raise errors.TooLarge(
                f"{args.builtin} has order {order}, above --max-order {args.max_order}"
            )
        group = builtin_group(args.builtin)
    elif args.group:
        group = validate_group(_load_spec_table(args.group))
    else:
        raise errors.ParseError("enumerate needs --group FILE or --builtin NAME")
    braces = enumerate_braces(group, max_order=args.max_order)
    if args.json:
        encode, head, sep, tail = json.JSONEncoder(sort_keys=True).encode, "[", ", ", "]"
        start, between, end = "{", ", ", "}"
    else:
        encode, head, sep, tail = functools.partial(_render, pad="\n    "), "[\n  ", ",\n  ", "\n]"
        start, between, end = "{\n    ", ",\n    ", "\n  }"
    dot = encode([list(row) for row in group.mul])
    classes = isomorphism_classes(group, braces) if args.profile else []
    profiles: dict[int, str] = {}  # a class's first brace -> its profile's text
    write = sys.stdout.write
    for i, b in enumerate(braces):
        texts = {k: encode(v) for k, v in spec_of_tables(b).items() if k != "dot"}
        texts["dot"] = dot
        if args.profile:
            if classes[i] == i:
                profiles[i] = encode(asdict(classify.nilpotency_profile(b)))
            texts["profile"] = profiles[classes[i]]
        items = (_json_key(k) + ": " + text for k, text in sorted(texts.items()))
        write((sep if i else head) + start + between.join(items) + end)
    write(tail + "\n" if braces else "[]\n")
    return 0


def _load_spec_table(path: str) -> list:
    doc = _load_spec(path)
    if isinstance(doc, dict) and "mul" in doc:
        return doc["mul"]
    if isinstance(doc, list):
        return doc
    raise errors.ParseError("group file must be a table or {'mul': table}")


def cmd_series(args: argparse.Namespace) -> int:
    brace = brace_from_spec(_load_spec(args.file))
    if args.kind == "all":
        chains = _all_chains(brace)
    elif args.kind in CHAINS:
        chains = {args.kind: CHAINS[args.kind](brace)}
    else:
        raise errors.ParseError(f"unknown series kind {args.kind!r}")
    report = {name: chain_to_json(c) for name, c in chains.items()}
    _emit(args, report)
    return 0


def cmd_counterexample(args: argparse.Namespace) -> int:
    """With --validate, the sampled element-level check runs first, so a
    brace whose element tables are refused exits 3 before the set-level one."""
    if args.validate:
        from .catalog import make_counterexample_F

        validate_formula_brace(
            make_counterexample_F(args.p), samples=args.samples, seed=args.seed
        )
    report = classify.verify_counterexample_F(args.p)
    if args.validate:
        report["validated"] = True
    _emit(args, report)
    return 0 if report["all_confirmed"] else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 1); argparse itself would exit 2,
    the code for a failed verification. Subparsers inherit this class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise errors.ParseError(message)


def _at_least(low: int):
    """argparse type for a count: an int below `low` would let a check pass vacuously."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves it
    unchanged and returns a fresh namespace on every call."""
    parser = _Parser(
        prog="skewbrace",
        description="Series, ideals, and nilpotency analysis for finite skew braces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sampling: bool = False, max_n: bool = False) -> None:
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if sampling:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")
            p.add_argument(
                "--samples", type=_at_least(0), default=100_000, help="random triples for formula braces"
            )
        if max_n:
            p.add_argument("--max-n", type=_at_least(1), default=5, help="series depth for sweeps")

    p_analyze = sub.add_parser("analyze", help="profile and all series of one brace")
    p_analyze.add_argument("file", help="brace spec JSON")
    p_analyze.add_argument("--checks", default="", help="comma list of inclusion labels A..H")
    common(p_analyze, max_n=True)
    p_analyze.set_defaults(fn=cmd_analyze)

    p_verify = sub.add_parser("verify", help="run assertion suites against one brace")
    p_verify.add_argument("file", help="brace spec JSON")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=["identities", "ideals", "inclusions", "theorems", "all"],
    )
    common(p_verify, sampling=True, max_n=True)
    p_verify.set_defaults(fn=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="all braces on an additive group")
    p_enum.add_argument("--group", help="group table JSON file")
    p_enum.add_argument("--builtin", help="builtin group name, e.g. C6 or S3")
    p_enum.add_argument("--max-order", type=_at_least(1), default=ENUMERATE_MAX_ORDER, dest="max_order")
    p_enum.add_argument("--profile", action="store_true", help="attach nilpotency profiles")
    common(p_enum)
    p_enum.set_defaults(fn=cmd_enumerate)

    p_series = sub.add_parser("series", help="print one series chain")
    p_series.add_argument("file", help="brace spec JSON")
    p_series.add_argument("--kind", default="all")
    common(p_series)
    p_series.set_defaults(fn=cmd_series)

    p_ce = sub.add_parser("counterexample", help="verify the matrix counterexample")
    p_ce.add_argument("p", type=int, help="prime p >= 5")
    p_ce.add_argument("--validate", action="store_true", help="run sampled brace validation")
    common(p_ce, sampling=True)
    p_ce.set_defaults(fn=cmd_counterexample)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a failed write raises here, not at exit
        return code
    except errors.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except errors.TooLarge as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return 3
    except OSError as exc:  # from writing the output: `_load_spec` converts its own
        with contextlib.suppress(OSError):  # no descriptor under a StringIO stdout
            fd = sys.stdout.fileno()  # point it at devnull, for the flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        print(f"resource limit: cannot write output: {exc}", file=sys.stderr)
        return 3
    except errors.AlgebraError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
