"""Per-layer tracing for one benchmark pass, installed from outside the library.

Each traced function is replaced at every name it is looked up through: the
globals of every `skewbrace` module (and of any extra module given), dicts
held in those globals (such as `series.ALL_SERIES`), or the class attribute
for methods. Hot functions (called ~10^5 times or more per pass) only count
calls; coarser ones also record a span. A span's self time is its duration
minus the time covered by its child spans, so nested layers add up to the
pass's traced time without double counting.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from skewbrace import braces, catalog, classify, cli, enumeration, formula, fp, groups, series, substructures

# (owner, attribute, metric group, mode). Mode "span" records calls and self
# time; "count" records calls only.
SPANS = [
    (fp.Subspace, "from_vectors", "fp.subspace_build", "span"),
    (fp.Subspace, "extended", "fp.subspace_build", "span"),
    (fp.Subspace, "union_span", "fp.subspace_build", "span"),
    (fp, "mat_vec", "fp.mat_vec", "count"),
    (fp.Subspace, "contains", "fp.subspace_contains", "count"),
    (formula.BCBrace, "decode", "formula.decode", "count"),
    (formula.BCBrace, "encode", "formula.encode", "count"),
    *[
        (formula.BCBrace, op, "formula.elem_ops", "count")
        for op in ("dot", "circ", "inv", "bar", "lam", "star", "comm_dot", "comm_circ")
    ],
    *[
        (formula, fn, "formula.set_ops", "span")
        for fn in (
            "star_span",
            "close_pair",
            "comm_dot_span",
            "comm_circ_span",
            "bc_socle_step",
            "bc_annihilator_step",
            "bc_zeta_dot_step",
            "bc_zeta_circ_step",
        )
    ],
    (formula, "validate_formula_brace", "formula.validate_formula_brace", "span"),
    (braces, "validate_brace", "braces.validate_brace", "span"),
    (groups, "subgroup_closure", "groups.subgroup_closure", "span"),
    (groups, "all_subgroups", "groups.all_subgroups", "span"),
    (substructures, "is_ideal", "substructures.is_ideal", "span"),
    (substructures, "star_subgroup", "substructures.star_subgroup", "span"),
    (substructures, "huq_commutator", "substructures.huq_commutator", "span"),
    (substructures, "ideal_closure", "substructures.ideal_closure", "span"),
    *[
        (series, f"{kind}_series", f"series.{kind}", "span")
        for kind in ("left", "right", "smoktunowicz", "socle", "annihilator", "gamma")
    ],
    (classify, "check_equivalence_theorems", "classify.check_equivalence_theorems", "span"),
    (classify, "check_fitting_theorem", "classify.check_fitting_theorem", "span"),
    (classify, "check_inclusion", "classify.check_inclusion", "span"),
    (classify, "verify_counterexample_F", "classify.verify_counterexample_F", "span"),
    (catalog, "brace_from_spec", "catalog.brace_from_spec", "span"),
    (cli, "main", "cli.main", "span"),
]

# Functions with a wrapper of their own: each records a span and the extra
# counts its metrics need.
CUSTOM = [
    (formula.BCBrace, "phi"),
    (formula.BCBrace, "psi"),
    (formula.BCBrace, "pair_to_set"),
    (series, "relative_gamma_series"),
    (braces, "check_identities"),
    (enumeration, "enumerate_braces"),
]


class Tracer:
    """Span and counter bookkeeping for one pass (single-threaded)."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self._stack: list[list[float]] = []
        self._seen_ideals: set = set()
        self._keep_alive: list = []

    # -- wrappers -------------------------------------------------------------

    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list[float], start: float) -> None:
        elapsed = time.perf_counter() - start
        self._stack.pop()
        self.self_s[name] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def span(self, name: str, fn):
        calls = self.calls

        def traced(*args, **kwargs):
            calls[name] += 1
            frame = self._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, frame, start)

        return traced

    def count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def custom(self, attr: str, fn):
        extra = self.extra
        if attr in ("phi", "psi"):
            cache_attr = "_" + attr

            def lookup(brace, key):
                extra["formula.phi_psi.lookups"] += 1
                if key not in getattr(brace, cache_attr):
                    extra["formula.phi_psi.entries"] += 1
                return fn(brace, key)

            return lookup
        if attr == "pair_to_set":
            inner = self.span("formula.pair_to_set", fn)

            def pair_to_set(brace, pair):
                before = len(brace._sets)
                out = inner(brace, pair)
                if len(brace._sets) > before:
                    extra["formula.pair_to_set.builds"] += 1
                    extra["formula.materialized_elements"] += len(out)
                return out

            return pair_to_set
        if attr == "relative_gamma_series":
            inner = self.span("series.relative_gamma_series", fn)

            def relative_gamma_series(brace, ideal):
                key = (id(brace), ideal.members)
                if key in self._seen_ideals:
                    extra["series.relative_gamma_series.repeats"] += 1
                else:
                    self._seen_ideals.add(key)
                    self._keep_alive.append(brace)
                return inner(brace, ideal)

            return relative_gamma_series
        if attr == "check_identities":
            inner = self.span("braces.check_identities", fn)

            def check_identities(*args, **kwargs):
                out = inner(*args, **kwargs)
                extra["braces.check_identities.triples"] += out["checked"]
                return out

            return check_identities
        if attr == "enumerate_braces":
            inner = self.span("enumeration.enumerate_braces", fn)

            def enumerate_braces(*args, **kwargs):
                out = inner(*args, **kwargs)
                extra["enumeration.braces_found"] += len(out)
                return out

            return enumerate_braces
        raise KeyError(attr)

    # -- installation -----------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Replace every traced function at each name it is looked up by."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "skewbrace"]
        modules += list(extra_modules)
        for owner, attr in CUSTOM:
            self._replace(owner, attr, self.custom(attr, _raw(owner, attr)), modules)
        for owner, attr, name, mode in SPANS:
            wrap = self.span if mode == "span" else self.count
            self._replace(owner, attr, wrap(name, _raw(owner, attr)), modules)

    @staticmethod
    def _replace(owner, attr: str, wrapper, modules) -> None:
        raw = owner.__dict__[attr]
        if isinstance(owner, type):
            setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
            return
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is raw:
                    namespace[key] = wrapper
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is raw:
                            value[k] = wrapper

    # -- results ------------------------------------------------------------------

    def metrics(self, names) -> dict[str, float]:
        """The named per-layer metrics the tracer owns; zero where a layer idled."""
        calls, self_s, extra = self.calls, self.self_s, self.extra
        out: dict[str, float] = {}
        for name in names:
            group, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = calls[group]
            elif stat == "self_s":
                out[name] = round(self_s[group], 6)
        out["formula.phi_psi.hit_ratio"] = _hit_ratio(
            extra["formula.phi_psi.entries"], extra["formula.phi_psi.lookups"]
        )
        out["formula.pair_to_set.hit_ratio"] = _hit_ratio(
            extra["formula.pair_to_set.builds"], calls["formula.pair_to_set"]
        )
        out["formula.materialized_elements"] = extra["formula.materialized_elements"]
        out["braces.check_identities.triples"] = extra["braces.check_identities.triples"]
        out["enumeration.braces_found"] = extra["enumeration.braces_found"]
        rel_calls = calls["series.relative_gamma_series"]
        out["series.relative_gamma_series.repeat_ratio"] = (
            extra["series.relative_gamma_series.repeats"] / rel_calls if rel_calls else 0.0
        )
        return out


def _raw(owner, attr: str):
    raw = owner.__dict__[attr]
    return raw.__func__ if isinstance(raw, staticmethod) else raw


def _hit_ratio(misses: int, lookups: int) -> float:
    return 1.0 - misses / lookups if lookups else 0.0

