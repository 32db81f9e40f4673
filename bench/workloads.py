"""The four benchmark workloads, and the entry point for one pass.

A pass runs in a fresh interpreter started by `run.py`:

    python3 bench/workloads.py <workload> <seed> <size> <trace 0|1>

It imports `skewbrace`, builds the seeded inputs (timed as set-up), runs the
workload once (timed as the pass) and prints one JSON line with the raw
measurements. Every answer the library returns is checked, against the pinned
answers in `reference.json` or against an independent computation here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(BENCH_DIR, "_work")

# Work per pass. "full" is what run.py measures; "tiny" is the self-test size.
SIZES = {
    "formula_sampled": {
        "full": {
            "f5_samples": 100, "bc81_calls": 12, "bc81_samples": 40,
            "validate_samples": 100, "pairs": 1500, "batch": 50,
        },
        "tiny": {
            "f5_samples": 10, "bc81_calls": 2, "bc81_samples": 10,
            "validate_samples": 10, "pairs": 5, "batch": 5,
        },
    },
    "formula_p8": {
        "full": {"queries_per_term": 500, "batch": 500, "repeats": 20},
        "tiny": {"queries_per_term": 20, "batch": 10, "repeats": 1},
    },
    "table_corpus": {
        "full": {
            "groups": [
                "C1", "C2", "C3", "C4", "V4", "C5", "C6", "S3", "C7", "C8",
                "C2xC4", "C2xC2xC2", "D4", "Q8", "C12", "C2xC6", "A4", "D6",
            ]
        },
        "tiny": {"groups": ["C2", "V4", "S3"]},
    },
    "cli_oneshot": {
        "full": {"small_rounds": 2, "f5_series_rounds": 2},
        "tiny": {"small_rounds": 1, "f5_series_rounds": 0},
    },
}

I2 = [[1, 0], [0, 1]]
U2 = [[1, 1], [0, 1]]

SPECS = {
    "pq": {"kind": "pq", "p": 3, "q": 2, "k": 2, "variant": "i"},
    "almost_trivial": {"kind": "almost_trivial", "group": "D4"},
    "radical_ring": {
        "kind": "radical_ring",
        "add": [[(a + b) % 4 for b in range(4)] for a in range(4)],
        "mult": [[(2 * a * b) % 4 for b in range(4)] for a in range(4)],
    },
    "bc16": {"kind": "bc", "p": 2, "d_b": 2, "d_c": 2, "phi": [I2, U2], "psi": [I2, U2]},
    "bc81": {"kind": "bc", "p": 3, "d_b": 2, "d_c": 2, "phi": [I2, U2], "psi": [I2, U2]},
    "F5": {"kind": "counterexample_F", "p": 5},
    # A dot table that is not associative: the CLI must answer with exit 2.
    "bad_table": {
        "kind": "tables",
        "dot": [[0, 1, 2], [1, 1, 0], [2, 0, 1]],
        "circ": [[0, 1, 2], [1, 1, 0], [2, 0, 1]],
    },
}

F5_CHAINS = (
    "left", "right", "smoktunowicz", "socle", "annihilator", "gamma",
    "group_lower_dot", "group_upper_dot", "group_lower_circ", "group_upper_circ",
)

# What `items_per_s` counts on each workload.
ITEM_NAMES = {
    "formula_sampled": "triples_per_s",
    "formula_p8": "membership_per_s",
    "table_corpus": "braces_per_s",
    "cli_oneshot": "calls_per_s",
}


def f5_chain_functions() -> dict:
    """The series function behind each name in F5_CHAINS."""
    from skewbrace import series

    return {
        **{name: series.ALL_SERIES[name] for name in F5_CHAINS[:6]},
        "group_lower_dot": series.gamma_dot_series,
        "group_upper_dot": series.zeta_dot_series,
        "group_lower_circ": series.gamma_circ_series,
        "group_upper_circ": series.zeta_circ_series,
    }


def load_contract() -> dict:
    """`BENCHMARK.json`: the workloads and the metrics with their units."""
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> dict:
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# The host's speed. On a CPU shared with other tenants the speed switches
# between levels up to 2x apart, for stretches from a fraction of a second to
# minutes, so raw times of the same code drift with the neighbours. Every
# timing is therefore scaled by REFERENCE_LOOP_S over the time of a fixed
# pure-Python loop measured next to it: the result is the time the step would
# take at the speed the loop has on an uncontended core of the reference
# machine (Intel Xeon, 2 vCPUs, CPython 3.11), on which the loop takes 100 us.
REFERENCE_LOOP_S = 100e-6
CALIBRATE_EVERY_S = 0.02


def speed_loop() -> float:
    """The fastest of three runs of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc, seen = 0, {}
        for i in range(400):
            key = (i & 31, i % 7)
            seen[key] = seen.get(key, 0) + 1
            acc = (acc * 31 + i * i) % 1_000_003
        [x * 3 % 7 for x in range(200)]
        best = min(best, time.perf_counter() - start)
    return best


class Record:
    """Operations attempted and failed, the checks that ran, and timings.

    Every operation is a timed step (`steps_s`); `calls_s` holds the latency
    of each timed call and `item_s` the time of each section counted in
    `items`. A pass with a given seed always produces these lists with the
    same length and order, so `run.py` can line steps up across passes.
    Where every step is one call and the three lists run in parallel,
    `same_work` names each step so that steps doing identical work (the
    same CLI call made twice in a pass) can be pooled. All times are scaled
    to the reference speed by the speed loop run before and after the
    operation (at most every CALIBRATE_EVERY_S, outside the timed span);
    `loop_s` keeps every loop time measured.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: set[str] = set()
        self.items = 0
        self.item_s: list[float] = []
        self.calls_s: list[float] = []
        self.steps_s: list[float] = []
        self.same_work: list[str] = []
        self.loop_s: list[float] = []
        self.output_bytes = 0
        self._ok = True
        self._loop_at = -CALIBRATE_EVERY_S

    def speed(self) -> float:
        """The latest speed-loop time, measured afresh when it is stale."""
        if time.perf_counter() - self._loop_at >= CALIBRATE_EVERY_S:
            self.loop_s.append(speed_loop())
            self._loop_at = time.perf_counter()
        return self.loop_s[-1]

    @contextlib.contextmanager
    def op(self, name: str):
        """One operation: fails if its body raises or any expectation fails."""
        self.attempted += 1
        self._ok = True
        detail = ""
        loop_before = self.speed()
        first_call, first_item = len(self.calls_s), len(self.item_s)
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:  # a raising library call is a failed operation
            self._ok = False
            detail = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        scale = 2 * REFERENCE_LOOP_S / (loop_before + self.speed())
        self.steps_s.append(elapsed * scale)
        for times, first in ((self.calls_s, first_call), (self.item_s, first_item)):
            times[first:] = [t * scale for t in times[first:]]
        if not self._ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{name}: {detail or 'wrong answer'}")

    def expect(self, check: str, ok: bool) -> None:
        self.checks.add(check)
        if not ok:
            self._ok = False


def _jsonable(value):
    return json.loads(json.dumps(value))


# ---------------------------------------------------------------------------
# formula_sampled: the element layer on F5 (order 5^8) and bc81.


def setup_formula_sampled(seed: int, size: dict, ref: dict) -> dict:
    rng = random.Random(seed)
    f5_order = 5**8
    return {
        "size": size,
        "f5_seed": rng.randrange(2**31),
        "bc81_seeds": [rng.randrange(2**31) for _ in range(size["bc81_calls"])],
        "validate_seed": rng.randrange(2**31),
        "bc81_pairs": [(rng.randrange(81), rng.randrange(81)) for _ in range(size["pairs"])],
        "f5_pairs": [(rng.randrange(f5_order), rng.randrange(f5_order)) for _ in range(size["pairs"])],
        "ref": ref["formula_sampled"],
    }


def run_formula_sampled(inp: dict, rec: Record) -> None:
    import skewbrace as sb

    size, ref = inp["size"], inp["ref"]
    with rec.op("build"):
        f5 = sb.make_counterexample_F(5)
        bc81 = sb.make_bc_brace(3, 2, 2, SPECS["bc81"]["phi"], SPECS["bc81"]["psi"])
        rec.expect("build", f5.order == 5**8 and bc81.order == 81)
    # Identity checks are short seeded calls, each a timed step counted in
    # `items_per_s` (triples checked). Every call also rechecks the fixed
    # generator triples (`identity_base`): 512 on F5, so F5 gets one call.
    identity_calls = [
        ("identities.F5", f5, size["f5_samples"], inp["f5_seed"], "F5"),
        *(("identities.bc81", bc81, size["bc81_samples"], s, "bc81") for s in inp["bc81_seeds"]),
    ]
    for name, brace, samples, seed, key in identity_calls:
        with rec.op(name):
            start = time.perf_counter()
            out = sb.check_identities(brace, samples=samples, seed=seed)
            rec.item_s.append(time.perf_counter() - start)
            rec.items += out["checked"]
            rec.expect(name, out["passed"] and out["checked"] == ref["identity_base"][key] + samples)
    # validate_formula_brace exhausts a fixed pool of 3,375 triples on every
    # call, so it is one call; its time counts in wall_s only.
    samples = size["validate_samples"]
    with rec.op("validate.bc81"):
        out = sb.validate_formula_brace(bc81, samples=samples, seed=inp["validate_seed"])
        rec.expect("validate.bc81", out["passed"] and out["checked"] == ref["validate_base"]["bc81"] + samples)

    table = None
    with rec.op("table.bc81"):
        table = sb.materialize_table_brace(bc81)
        rec.expect("table.bc81", table.order == 81)
    for op_name in ("dot", "circ", "star"):
        table_op = getattr(table, op_name)

        def agrees(part, got, table_op=table_op):
            rec.expect("elem.bc81_vs_table", got == [table_op(a, b) for a, b in part])

        _time_element_op(getattr(bc81, op_name), inp["bc81_pairs"], size["batch"], agrees, rec)
    f5_laws = {
        "dot": lambda a, b, r: f5.dot(r, f5.inv(b)) == a,
        "circ": lambda a, b, r: f5.circ(r, f5.bar(b)) == a,
        "star": lambda a, b, r: r == f5.dot(f5.dot(f5.inv(a), f5.circ(a, b)), f5.inv(b)),
    }
    for op_name, law in f5_laws.items():

        def lawful(part, got, op_name=op_name, law=law):
            rec.expect(f"elem.F5_{op_name}", all(law(a, b, r) for (a, b), r in zip(part, got)))

        _time_element_op(getattr(f5, op_name), inp["f5_pairs"], size["batch"], lawful, rec)


def _time_element_op(op, pairs: list, batch: int, check, rec: Record) -> None:
    """Time `op` on consecutive batches of pairs, one timed call per batch."""
    for lo in range(0, len(pairs), batch):
        part = pairs[lo : lo + batch]
        with rec.op("elem"):
            start = time.perf_counter()
            got = [op(a, b) for a, b in part]
            rec.calls_s.append(time.perf_counter() - start)
            check(part, got)


# ---------------------------------------------------------------------------
# formula_p8: the set layer on a fresh order-5^8 brace, then membership reads.


def _in_span(basis: list[list[int]], vec: list[int], p: int) -> bool:
    """Membership in the row space of an echelon basis, by elimination."""
    v = list(vec)
    for row in basis:
        pivot = next(i for i, x in enumerate(row) if x)
        if v[pivot]:
            factor = v[pivot] * pow(row[pivot], -1, p) % p
            v = [(x - factor * r) % p for x, r in zip(v, row)]
    return not any(v)


def _encode(b: list[int], c: list[int], p: int) -> int:
    idx = 0
    for digit in reversed(list(b) + list(c)):
        idx = idx * p + digit
    return idx


def _decode(idx: int, p: int, dims: int) -> list[int]:
    digits = []
    for _ in range(dims):
        idx, r = divmod(idx, p)
        digits.append(r)
    return digits


def _span_member(basis: list[list[int]], dim: int, p: int, rng: random.Random) -> list[int]:
    acc = [0] * dim
    for row in basis:
        coeff = rng.randrange(p)
        acc = [(x + coeff * r) % p for x, r in zip(acc, row)]
    return acc


def setup_formula_p8(seed: int, size: dict, ref: dict) -> dict:
    """Seeded membership queries, half drawn from each pinned term, with the
    expected answer worked out here from the pinned subspace bases."""
    rng = random.Random(seed)
    ref = ref["formula_p8"]
    p, d = 5, 4
    order = p ** (2 * d)
    queries: dict[str, list] = {chain: [] for chain in F5_CHAINS}
    for chain in F5_CHAINS:
        for index, term in enumerate(ref["chains"][chain]["terms"]):
            xs, expected = [], []
            for q in range(size["queries_per_term"]):
                if q % 2:
                    x = _encode(
                        _span_member(term["b_basis"], d, p, rng),
                        _span_member(term["c_basis"], d, p, rng),
                        p,
                    )
                else:
                    x = rng.randrange(order)
                digits = _decode(x, p, 2 * d)
                xs.append(x)
                expected.append(
                    _in_span(term["b_basis"], digits[:d], p)
                    and _in_span(term["c_basis"], digits[d:], p)
                )
            queries[chain].append((index, xs, expected))
    return {"size": size, "queries": queries, "ref": ref}


def run_formula_p8(inp: dict, rec: Record) -> None:
    import skewbrace as sb

    size, ref = inp["size"], inp["ref"]
    with rec.op("verify"):
        report = sb.verify_counterexample_F(5)
        rec.expect("verify", _jsonable(report) == ref["verify"])

    with rec.op("build"):
        brace = sb.make_counterexample_F(5)
        rec.expect("build", brace.order == 5**8)
    chain_fns = f5_chain_functions()
    # Each chain's terms are queried right after the chain is built, so the
    # reads are spread over the pass instead of sampling one short window.
    for name in F5_CHAINS:
        chain = None
        with rec.op(f"chain.{name}"):
            chain = chain_fns[name](brace)
            want = ref["chains"][name]
            rec.expect(
                "chain_orders",
                [len(t) for t in chain.terms] == [t["order"] for t in want["terms"]]
                and chain.stabilized_at == want["stabilized_at"]
                and chain.reaches_terminal == want["reaches_terminal"],
            )
        for index, xs, expected in inp["queries"][name]:
            with rec.op("membership"):
                _time_membership(chain.terms[index], xs, expected, size, rec)


def _time_membership(term, xs: list[int], expected: list[bool], size: dict, rec: Record) -> None:
    # The first read of a term warms it up and reads slower by a margin that
    # varies with the seed; it is checked but not timed.
    rec.expect("membership", [x in term for x in xs] == expected)
    batch = size["batch"]
    for _ in range(size["repeats"]):
        for lo in range(0, len(xs), batch):
            part = xs[lo : lo + batch]
            start = time.perf_counter()
            got = [x in term for x in part]
            elapsed = time.perf_counter() - start
            rec.calls_s.append(elapsed)
            rec.item_s.append(elapsed)
            rec.items += len(part)
            rec.expect("membership", got == expected[lo : lo + batch])


# ---------------------------------------------------------------------------
# table_corpus: every brace on the small groups, each fully analysed.


def relabel(mul, rng: random.Random) -> list[list[int]]:
    """The same group on a seeded permutation of its labels that fixes 0."""
    n = len(mul)
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[mul[a][b]]
    return out


def setup_table_corpus(seed: int, size: dict, ref: dict) -> dict:
    import skewbrace as sb

    rng = random.Random(seed)
    groups = [
        (name, sb.validate_group(relabel(sb.builtin_group(name).mul, rng)))
        for name in size["groups"]
    ]
    return {"size": size, "groups": groups, "ref": ref["table_corpus"]}


def _analyse(sb, brace, rec: Record) -> list:
    """Profile, theorems, the (E) sweep and the criterion-10 Fitting loop."""
    profile = sb.nilpotency_profile(brace)
    theorems = sb.check_equivalence_theorems(brace)
    rec.expect("theorems", theorems["passed"])
    sweep = sb.check_inclusion_sweep(brace, "E", max_n=5)
    rec.expect("inclusion_E", all(r["holds"] for r in sweep))
    ideals = sb.enumerate_ideals(brace)
    classes = {i.members: sb.is_rel_ann_nilpotent(brace, i) for i in ideals}
    nil = [i for i in ideals if classes[i.members] is not None]
    for a in range(len(nil)):
        for b in range(a, len(nil)):
            report = sb.check_fitting_theorem(brace, nil[a], nil[b])
            rec.expect("fitting_bound", report["hypothesis_met"] and report["holds"])
    fit = sb.fitting_ideal(brace)
    rec.expect("fitting_ideal", sb.is_rel_ann_nilpotent(brace, fit) is not None)
    return [
        profile.left, profile.right, profile.socle, profile.annihilator,
        profile.add_group_nilpotent, profile.mult_group_nilpotent,
    ]


def run_table_corpus(inp: dict, rec: Record) -> None:
    import skewbrace as sb

    ref = inp["ref"]["groups"]
    for name, group in inp["groups"]:
        braces = []
        with rec.op(f"enumerate.{name}"):
            braces = sb.enumerate_braces(group)
            rec.expect("brace_count", len(braces) == ref[name]["count"])
        profiles = []
        for brace in braces:
            with rec.op(f"analyse.{name}"):
                start = time.perf_counter()
                profiles.append(json.dumps(_analyse(sb, brace, rec)))
                elapsed = time.perf_counter() - start
                rec.calls_s.append(elapsed)
                rec.item_s.append(elapsed)
                rec.items += 1
        with rec.op(f"profiles.{name}"):
            rec.expect("profile_multiset", sorted(profiles) == ref[name]["profiles"])


# ---------------------------------------------------------------------------
# cli_oneshot: a closed loop of in-process CLI calls, one client.

SMALL_CALLS = [
    *[
        (f"{verb}:{spec}", argv)
        for spec in ("pq", "almost_trivial", "radical_ring")
        for verb, argv in (
            ("analyze", ["analyze", f"{{{spec}}}", "--json", "--checks", "A,E", "--max-n", "2"]),
            ("verify", ["verify", f"{{{spec}}}", "--json", "--suite", "all"]),
            ("series", ["series", f"{{{spec}}}", "--json"]),
        )
    ],
    *[
        (f"{verb}:{spec}", argv)
        for spec in ("bc16", "bc81")
        for verb, argv in (
            ("analyze", ["analyze", f"{{{spec}}}", "--json", "--checks", "A,E", "--max-n", "2"]),
            ("verify-ideals", ["verify", f"{{{spec}}}", "--json", "--suite", "ideals"]),
            ("series", ["series", f"{{{spec}}}", "--json"]),
        )
    ],
    *[
        (f"enumerate:{g}", ["enumerate", "--builtin", g, "--profile", "--json"])
        for g in ("S3", "D4", "Q8", "C6")
    ],
    ("analyze:bad_table", ["analyze", "{bad_table}", "--json"]),
    ("analyze:missing", ["analyze", "{missing}", "--json"]),
]

# A full pass makes thirteen F5 calls (the series twice). At least eleven of
# them are slower than every other call, so `call_tail_ms` (ten calls beyond
# it) lands on an F5 call.
F5_SERIES_CALLS = [
    (f"series-{kind}:F5", ["series", "{F5}", "--json", "--kind", kind])
    for kind in ("left", "right", "smoktunowicz", "socle", "annihilator", "gamma")
]

HEAVY_CALLS = [
    ("counterexample:5", ["counterexample", "5", "--json"]),
    ("verify:bc16", ["verify", "{bc16}", "--json", "--suite", "all", "--samples", "200", "--seed", "{seed}"]),
]


def cli_calls(size: dict) -> list[tuple[str, list[str]]]:
    calls = SMALL_CALLS * size["small_rounds"] + F5_SERIES_CALLS * size["f5_series_rounds"]
    return calls + HEAVY_CALLS


def cli_fields(call_id: str, out: str):
    """The parts of a CLI answer pinned in the reference."""
    if not out.strip():
        return None
    doc = json.loads(out)
    verb = call_id.split(":")[0]
    if verb == "analyze":
        return {
            "order": doc["order"],
            "backing": doc["backing"],
            "profile": doc["profile"],
            "series": {k: [t["order"] for t in v["terms"]] for k, v in doc["series"].items()},
            "checks": [[c["label"], c["n"], c["k"], c["holds"]] for c in doc.get("checks", [])],
        }
    if verb.startswith("series"):
        return {
            k: [[t["order"] for t in v["terms"]], v["stabilized_at"], v["reaches_terminal"]]
            for k, v in doc.items()
        }
    if verb == "enumerate":
        return {
            "count": len(doc),
            "profiles": sorted(json.dumps(e["profile"], sort_keys=True) for e in doc),
        }
    return doc


def setup_cli_oneshot(seed: int, size: dict, ref: dict) -> dict:
    rng = random.Random(seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, f"cli-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    paths = {"missing": os.path.join(work, "missing.json")}
    for name, spec in SPECS.items():
        paths[name] = os.path.join(work, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
    calls = []
    for call_id, argv in cli_calls(size):
        fill = {**paths, "seed": str(rng.randrange(2**31))}
        calls.append((call_id, [a.format(**fill) if a.startswith("{") else a for a in argv]))
    rng.shuffle(calls)
    return {"size": size, "calls": calls, "work": work, "ref": ref["cli_oneshot"]}


def run_cli_oneshot(inp: dict, rec: Record) -> None:
    from skewbrace import cli

    ref = inp["ref"]["calls"]
    try:
        for call_id, argv in inp["calls"]:
            with rec.op(call_id):
                out, err = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                elapsed = time.perf_counter() - start
                rec.calls_s.append(elapsed)
                rec.item_s.append(elapsed)
                rec.same_work.append(call_id)
                rec.items += 1
                text = out.getvalue()
                rec.output_bytes += len(text.encode())
                want = ref[call_id]
                rec.expect("exit_code", code == want["code"])
                rec.expect("json_fields", _jsonable(cli_fields(call_id, text)) == want["fields"])
    finally:
        shutil.rmtree(inp["work"], ignore_errors=True)


WORKLOADS = {
    "formula_sampled": (setup_formula_sampled, run_formula_sampled),
    "formula_p8": (setup_formula_p8, run_formula_p8),
    "table_corpus": (setup_table_corpus, run_table_corpus),
    "cli_oneshot": (setup_cli_oneshot, run_cli_oneshot),
}

def expected_checks(workload: str) -> set[str]:
    """The check kinds a pass of the workload must execute, at any size."""
    if workload == "formula_sampled":
        return {
            "build", "identities.F5", "identities.bc81", "validate.bc81", "table.bc81",
            "elem.bc81_vs_table", "elem.F5_dot", "elem.F5_circ", "elem.F5_star",
        }
    if workload == "formula_p8":
        return {"build", "verify", "chain_orders", "membership"}
    if workload == "table_corpus":
        return {
            "brace_count", "profile_multiset", "theorems", "inclusion_E",
            "fitting_bound", "fitting_ideal",
        }
    return {"exit_code", "json_fields"}


def run_pass(workload: str, seed: int, size_name: str, trace: bool) -> dict:
    loop_before = speed_loop()
    t0 = time.perf_counter()
    import skewbrace  # noqa: F401  (import time is part of set-up)

    setup, run = WORKLOADS[workload]
    size = SIZES[workload][size_name]
    inputs = setup(seed, size, load_reference())
    raw_setup_s = time.perf_counter() - t0
    setup_s = raw_setup_s * 2 * REFERENCE_LOOP_S / (loop_before + speed_loop())

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[sys.modules[__name__]])
    rec = Record()
    start = time.perf_counter()
    run(inputs, rec)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": wall_s,
        "loop_s": rec.loop_s,
        "peak_rss_mb": peak_rss_mb,
        "items": rec.items,
        "steps_s": rec.steps_s,
        "calls_s": rec.calls_s,
        "item_s": rec.item_s,
        "same_work": rec.same_work,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "checks_run": sorted(rec.checks),
        "checks_missing": sorted(expected_checks(workload) - rec.checks),
        "sizes": size,
    }
    if tracer is not None:
        layers = tracer.metrics(m["name"] for m in load_contract()["per_layer"])
        layers["cli.output_bytes"] = rec.output_bytes
        out["layers"] = layers
    return out


if __name__ == "__main__":
    name, seed_arg, size_arg, trace_arg = sys.argv[1:5]
    print(json.dumps(run_pass(name, int(seed_arg), size_arg, trace_arg == "1")))
