"""The command-line interface: exit codes, JSON output, round-trips."""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewbrace as sb
from skewbrace import classify, cli, errors, formula, fp, groups
from skewbrace.cli import main
from tests.conftest import I2, UNI2, bc16, bc81, injective_phi_spec

PQ_SPEC = {"kind": "pq", "p": 3, "q": 2, "k": 2, "variant": "i"}


def write_spec(tmp_path, spec, name="brace.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_pq(tmp_path, capsys):
    path = write_spec(tmp_path, PQ_SPEC)
    code, report = run_json(capsys, ["analyze", path, "--json"])
    assert code == 0
    assert report["order"] == 6
    assert report["profile"]["right"] == 2
    assert report["profile"]["socle"] == 2
    assert report["profile"]["left"] is None
    ann = report["series"]["annihilator"]
    assert [t["elements"] for t in ann["terms"]] == [[0], [0]]
    assert report["series"]["right"]["reaches_terminal"]


def test_analyze_text_output(tmp_path, capsys):
    path = write_spec(tmp_path, PQ_SPEC)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "profile" in out and "right: 2" in out


def test_analyze_with_inclusion_checks(tmp_path, capsys):
    path = write_spec(tmp_path, PQ_SPEC)
    code, report = run_json(capsys, ["analyze", path, "--json", "--checks", "A,E", "--max-n", "2"])
    assert code == 0
    checks = report["checks"]
    a20 = next(c for c in checks if c["label"] == "A" and c["n"] == 2 and c["k"] == 0)
    assert not a20["holds"]
    assert a20["lhs"]["elements"] == [0, 1, 2]
    assert all(c["holds"] for c in checks if c["label"] == "E")


def test_analyze_missing_file_is_parse_error(capsys):
    assert main(["analyze", "/nonexistent.json"]) == 1


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "pq", "p": "x", "q": 2, "k": 2, "variant": "i"},
        {"kind": "tables", "dot": 5, "circ": 5},
        {"kind": "tables", "dot": [[0, 1], [1, "a"]], "circ": [[0, 1], [1, 0]]},
        # int() would truncate 0.5 to 0 (analysed as Z2) and 1.5 to 1 (exit 0)
        {"kind": "tables", "dot": [[0, 1], [1, 0.5]], "circ": [[0, 1], [1, 0]]},
        {"kind": "tables", "dot": [[0, True], [True, 0]], "circ": [[0, 1], [1, 0]]},
        {"kind": "radical_ring", "add": [[0, 1], [1, 0]], "mult": [[0, 0], [0, 0.5]]},
        {"kind": "bc", "p": 3, "d_b": 1, "d_c": 1, "phi": [[[1.5]]], "psi": [[[1]]]},
        {"kind": "bc", "p": 3, "d_b": 1, "d_c": 1, "phi": [[[1]]], "psi": [[[True]]]},
        # integer fields: "1" != 1 and True == 1 once read past the spec
        {"kind": "bc", "p": 3, "d_b": "1", "d_c": 1, "phi": [[[1]]], "psi": [[[1]]]},
        {"kind": "bc", "p": 3, "d_b": True, "d_c": 1, "phi": [[[1]]], "psi": [[[1]]]},
        {"kind": "pq", "p": 3, "q": 2, "k": True, "variant": "i"},
        {"kind": "counterexample_F", "p": True},
    ],
    ids=[
        "pq_str_prime",
        "tables_int",
        "tables_str_entry",
        "tables_float_entry",
        "tables_bool_entry",
        "radical_ring_float_entry",
        "bc_float_entry",
        "bc_bool_entry",
        "bc_str_dim",
        "bc_bool_dim",
        "pq_bool_k",
        "counterexample_bool_p",
    ],
)
def test_analyze_malformed_field_is_parse_error(tmp_path, capsys, spec):
    assert main(["analyze", write_spec(tmp_path, spec)]) == 1
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "Traceback" not in err


def test_usage_errors_exit_1(tmp_path, capsys):
    """argparse's own exit 2 would read as a failed verification."""
    path = write_spec(tmp_path, PQ_SPEC)
    for argv in (
        ["analyze"],
        ["counterexample", "x"],
        ["series", path, "--bogus"],
        ["series", path, "--seed", "1"],
        ["analyze", path, "--checks", "Z"],
        ["analyze", path, "--checks", "AB"],
        # counts below their floor would let a check pass vacuously
        ["verify", path, "--suite", "all", "--max-n", "-1"],
        ["analyze", path, "--checks", "E", "--max-n", "0"],
        ["counterexample", "5", "--validate", "--samples", "-4"],
        ["verify", path, "--samples", "many"],
        ["enumerate", "--builtin", "C2", "--max-order", "0"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert "parse error:" in err
        assert "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "-h"])
    assert exc.value.code == 0


def test_analyze_invalid_table_exits_2(tmp_path, capsys):
    bad = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]
    path = write_spec(tmp_path, {"kind": "tables", "dot": bad, "circ": bad})
    assert main(["analyze", path]) == 2


def test_corrupted_circ_table_exits_2(tmp_path, capsys):
    pq = sb.make_pq_brace(3, 2, 2, "i")
    spec = sb.spec_of_tables(pq)
    spec["circ"][1][2], spec["circ"][1][3] = spec["circ"][1][3], spec["circ"][1][2]
    path = write_spec(tmp_path, spec)
    assert main(["analyze", path]) == 2


def test_verify_all_suites_pass(tmp_path, capsys):
    path = write_spec(tmp_path, PQ_SPEC)
    code, report = run_json(capsys, ["verify", path, "--json", "--suite", "all"])
    assert code == 0
    assert report["passed"]
    assert set(report["suites"]) == {"identities", "ideals", "inclusions", "theorems"}


def test_verify_f5_ideal_suite_checks_every_coset(tmp_path, capsys, monkeypatch):
    """Coset agreement runs on every left term of the order-5^8 brace, on the
    subspaces alone: no term is listed."""
    checked = []

    def counted(brace, term, a):
        checked.append(term)
        return sb.coset_agreement(brace, term, a)

    monkeypatch.setattr(cli, "coset_agreement", counted)
    path = write_spec(tmp_path, {"kind": "counterexample_F", "p": 5})
    code, report = run_json(capsys, ["verify", path, "--json", "--suite", "ideals"])
    assert code == 0 and report["passed"]
    brace = sb.make_counterexample_F(5)
    terms = sb.left_series(brace).terms
    assert len(checked) == len(terms) * len(brace.generators())
    assert max(map(len, terms)) == 5**8
    assert all(term._members is None for term in checked)


def test_verify_single_suite(tmp_path, capsys):
    path = write_spec(tmp_path, {"kind": "trivial", "group": "S3"})
    code, report = run_json(capsys, ["verify", path, "--json", "--suite", "identities"])
    assert code == 0 and report["passed"]


def test_enumerate_builtin_c2(capsys):
    code, out = run_json(capsys, ["enumerate", "--builtin", "C2", "--json"])
    assert code == 0
    assert len(out) == 1
    assert out[0]["dot"] == [[0, 1], [1, 0]]


def test_enumerate_round_trip(capsys):
    code, out = run_json(capsys, ["enumerate", "--builtin", "C6", "--json", "--profile"])
    assert code == 0
    assert len(out) == 2
    for entry in out:
        brace = sb.brace_from_spec({k: v for k, v in entry.items() if k != "profile"})
        assert [list(r) for r in brace.circ_group.mul] == entry["circ"]


def expected_entries(group: sb.GroupTable, profile: bool) -> list[dict]:
    """The entries `enumerate` prints, each brace profiled on its own."""
    entries = []
    for brace in sb.enumerate_braces(group, max_order=group.order):
        entry = sb.spec_of_tables(brace)
        if profile:
            entry["profile"] = dataclasses.asdict(sb.nilpotency_profile(brace))
        entries.append(entry)
    return entries


@pytest.mark.parametrize("name", ["S3", "Q8", "A4", "D4", "D6", "C2xC2xC2", "file"])
@pytest.mark.parametrize("flags", [[], ["--json"], ["--profile"], ["--json", "--profile"]])
def test_enumerate_streams_the_bytes_of_the_whole_list(tmp_path, capsys, name, flags):
    """The entries are written one at a time, in the bytes of one
    `json.dumps(entries, sort_keys=True)` with --json and of one
    `_json(entries)` without. "file" is C4 relabeled, read by --group. The
    CLI profiles one brace per isomorphism class; the expected bytes come
    from profiling every brace (C2xC2xC2 has 232 braces in 8 classes)."""
    if name == "file":
        sigma = (0, 2, 1, 3)
        mul = [[sigma[(sigma[a] + sigma[b]) % 4] for b in range(4)] for a in range(4)]
        group, source = sb.validate_group(mul), ["--group", write_spec(tmp_path, {"mul": mul}, name="group.json")]
    else:
        group, source = sb.builtin_group(name), ["--builtin", name]
    entries = expected_entries(group, "--profile" in flags)
    assert main(["enumerate", *source, *flags]) == 0
    out = capsys.readouterr().out
    if "--json" in flags:
        assert out == json.dumps(entries, sort_keys=True) + "\n"
    else:
        assert out == cli._json(entries) + "\n"


def test_enumerate_profile_bytes_at_order_16(capsys):
    """C2xD4's 1,488 braces fall into 227 classes; the profiled listing has
    the bytes of profiling every brace."""
    entries = expected_entries(sb.builtin_group("C2xD4"), profile=True)
    assert main(["enumerate", "--builtin", "C2xD4", "--max-order", "16", "--json", "--profile"]) == 0
    assert capsys.readouterr().out == json.dumps(entries, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", [["analyze"], ["enumerate", "--group"]])
@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["not_utf8", "nested"]
)
def test_undecodable_or_deep_spec_file_is_parse_error(tmp_path, capsys, command, content):
    """A spec file that is not UTF-8, or nests deeper than the JSON decoder
    recurses, is a parse error (exit 1), not a traceback."""
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    assert main([*command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "parse error: cannot read brace spec" in err and "Traceback" not in err


class _FailingStdout(io.StringIO):
    """A stdout whose every write raises `error`; like a StringIO it has no
    file descriptor."""

    def __init__(self, error: OSError):
        super().__init__()
        self.error = error

    def write(self, text: str) -> int:
        raise self.error


@pytest.mark.parametrize(
    "error", [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space left")]
)
@pytest.mark.parametrize(
    "argv", [["enumerate", "--builtin", "C2xC2", "--json"], ["counterexample", "5", "--json"]]
)
def test_failed_write_is_resource_limit(monkeypatch, capsys, argv, error):
    """A write of the output that fails (a closed pipe, a full disk) ends in
    one resource-limit line and exit 3, with no traceback."""
    monkeypatch.setattr(sys, "stdout", _FailingStdout(error))
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"resource limit: cannot write output: {error}\n"


@pytest.mark.parametrize(
    "argv, reads",
    [(["enumerate", "--builtin", "C2xC2xC2", "--json"], 50), (["counterexample", "5", "--json"], 0)],
    ids=["head", "gone"],
)
def test_closed_pipe_exits_3_without_traceback(argv, reads):
    """A reader that closes the pipe after 50 bytes (`| head -c 50`, of
    ~100 KB, more than the pipe holds) or before the first: the process
    exits 3 with one resource-limit line and prints nothing at exit, where
    Python flushes a buffered stdout (no PYTHONUNBUFFERED) again."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    read_end, write_end = os.pipe()
    if not reads:
        os.close(read_end)
    command = [sys.executable, "-m", "skewbrace", *argv]
    proc = subprocess.Popen(command, stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    if reads:
        with os.fdopen(read_end, "rb") as reader:
            assert reader.read(reads).startswith(b"[{")
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 3
    assert err == "resource limit: cannot write output: [Errno 32] Broken pipe\n"


def test_enumerate_group_file(tmp_path, capsys):
    path = write_spec(tmp_path, [[0, 1], [1, 0]], name="group.json")
    code, out = run_json(capsys, ["enumerate", "--group", path, "--json"])
    assert code == 0 and len(out) == 1


@pytest.mark.parametrize(
    "doc", [[1, 2], {"mul": 5}, {"mul": [None]}], ids=["flat", "int", "null_row"]
)
def test_enumerate_malformed_group_file_is_parse_error(tmp_path, capsys, doc):
    assert main(["enumerate", "--group", write_spec(tmp_path, doc, name="group.json")]) == 1
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["XX", "C2x"])
def test_enumerate_bad_builtin_name_is_named(capsys, name):
    """An empty part of a product name is reported as the whole input."""
    assert main(["enumerate", "--builtin", name]) == 1
    err = capsys.readouterr().err
    assert f"parse error: unrecognized group name {name!r}" in err
    assert "Traceback" not in err


def test_enumerate_too_large_exits_3(capsys):
    assert main(["enumerate", "--builtin", "C13", "--json"]) == 3
    assert "C13 has order 13, above --max-order 12" in capsys.readouterr().err
    code, out = run_json(capsys, ["enumerate", "--builtin", "C6", "--json"])
    assert code == 0
    assert out == [sb.spec_of_tables(b) for b in sb.enumerate_braces(sb.cyclic(6))]


def test_enumerate_automorphism_search_above_table_cap_names_search_leaves(capsys):
    """C2^5 has 32 * 31^5 automorphism search leaves; the refusal counts them
    as leaves, not as table cells."""
    assert main(["enumerate", "--builtin", "C2xC2xC2xC2xC2", "--max-order", "32"]) == 3
    err = capsys.readouterr().err
    assert f"the automorphism search would take {32 * 31**5} search leaves" in err
    assert "TABLE_CAP" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["C100000000", "D50000000", "C10000xC10000"])
def test_enumerate_huge_builtin_is_refused_before_building(capsys, name):
    """The order a name denotes is read off the name and checked against
    --max-order before any table is built."""
    tracemalloc.start()
    code = main(["enumerate", "--builtin", name, "--json"])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 3
    assert peak < 1_000_000  # a 10^8-element table would take gigabytes
    err = capsys.readouterr().err
    assert f"{name} has order 100000000, above --max-order 12" in err
    assert "Traceback" not in err


def test_series_subcommand(tmp_path, capsys):
    path = write_spec(tmp_path, PQ_SPEC)
    code, report = run_json(capsys, ["series", path, "--json", "--kind", "left"])
    assert code == 0
    assert [t["elements"] for t in report["left"]["terms"]] == [
        [0, 1, 2, 3, 4, 5],
        [0, 1, 2],
        [0, 1, 2],
    ]


SERIES_KINDS = [
    "left",
    "right",
    "smoktunowicz",
    "socle",
    "annihilator",
    "gamma",
    "group_lower_dot",
    "group_upper_dot",
    "group_lower_circ",
    "group_upper_circ",
]


def test_series_each_kind_matches_all(tmp_path, capsys):
    """Each of the ten chain names gives exactly its `--kind all` entry, and
    an unknown name is a parse error."""
    assert list(cli.CHAINS) == SERIES_KINDS
    path = write_spec(tmp_path, PQ_SPEC)
    code, everything = run_json(capsys, ["series", path, "--json", "--kind", "all"])
    assert code == 0 and set(everything) == set(SERIES_KINDS)
    for kind in SERIES_KINDS:
        code, report = run_json(capsys, ["series", path, "--json", "--kind", kind])
        assert code == 0
        assert report == {kind: everything[kind]}
    assert main(["series", path, "--kind", "group_lower"]) == 1
    assert "unknown series kind" in capsys.readouterr().err


def test_verify_inclusions_on_counterexample(tmp_path, capsys):
    """(E) holds and (F) fails exactly as expected, reported as a pass."""
    path = write_spec(tmp_path, {"kind": "counterexample_F", "p": 5})
    code, report = run_json(
        capsys, ["verify", path, "--json", "--suite", "inclusions", "--max-n", "3"]
    )
    assert code == 0 and report["passed"]


def test_analyze_counterexample_with_f_check(tmp_path, capsys):
    path = write_spec(tmp_path, {"kind": "counterexample_F", "p": 5})
    code, report = run_json(
        capsys, ["analyze", path, "--json", "--checks", "F", "--max-n", "3"]
    )
    assert code == 0
    f30 = next(
        c for c in report["checks"] if c["label"] == "F" and c["n"] == 3 and c["k"] == 0
    )
    assert not f30["holds"]
    assert f30["witness"] == [25, 3125, 625]
    assert report["series"]["right"]["terms"][2]["order"] == 25


def test_counterexample_subcommand(capsys):
    code, report = run_json(capsys, ["counterexample", "5", "--json", "--samples", "500"])
    assert code == 0
    assert report["all_confirmed"]
    assert report["inclusion_F_fails"]


def test_counterexample_bad_prime(capsys):
    assert main(["counterexample", "4", "--json"]) == 2


def test_memory_error_is_resource_limit(monkeypatch, capsys):
    def exhausted(p):
        raise MemoryError

    monkeypatch.setattr(classify, "verify_counterexample_F", exhausted)
    assert main(["counterexample", "11", "--json"]) == 3
    err = capsys.readouterr().err
    assert "resource limit" in err
    assert "Traceback" not in err


def test_oversized_element_set_is_refused(monkeypatch, f5):
    """Listing a formula term above TABLE_CAP is refused before the set is
    built; its size, bases, the subspace tests and membership in the full
    term (a bound check) stay available. At the bound it is listed."""
    monkeypatch.setattr(groups, "TABLE_CAP", 5**8 - 1)
    term = f5.full_pair()
    assert len(term) == 5**8 and term.is_full and term.contains_pair(f5.trivial_pair())
    tracemalloc.start()
    assert [x in term for x in (1, 5**8 - 1, -1, 5**8)] == [True, True, False, False]
    for read in (lambda: list(term), lambda: term.members, term.sorted):
        with pytest.raises(errors.TooLarge, match="formula set.*TABLE_CAP"):
            read()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert term._members is None
    assert peak < 100_000  # listing 5^8 indices would take tens of MB
    monkeypatch.setattr(groups, "TABLE_CAP", 5**8)
    assert len(term.members) == 5**8 and term.sorted()[-1] == 5**8 - 1


@pytest.mark.parametrize("p", [11, 13, 17, 31, 101, 7817, 999_999_999_989])
def test_counterexample_is_computed(capsys, p):
    """The order-p^8 counterexample is checked on subspaces alone; no term
    is listed and no element table built, so TABLE_CAP is not reached,
    though every carrier's listing and p = 101's add tables exceed it. A
    basis matrix's powers are taken by squaring, so every prime up to 10^12
    (the trial-division bound of the primality test) is checked."""
    code, report = run_json(capsys, ["counterexample", str(p), "--json"])
    assert code == 0
    assert report["all_confirmed"] and report["order"] == p**8
    assert report["witness"] == [p**2, p**5, p**4]


def test_element_level_checks_run_up_to_table_cap(tmp_path, capsys):
    """F13's element tables fit TABLE_CAP, so every suite passes and
    `counterexample 13 --validate` validates. F37's add tables and the image
    maps of an injective phi at p = 11 do not: the checks that run element
    operations exit 3 naming TABLE_CAP before any table is built."""
    path = write_spec(tmp_path, {"kind": "counterexample_F", "p": 13})
    code, report = run_json(capsys, ["verify", path, "--suite", "all", "--samples", "100", "--json"])
    assert code == 0 and report["passed"]
    code, report = run_json(capsys, ["counterexample", "13", "--validate", "--samples", "10", "--json"])
    assert code == 0 and report["all_confirmed"] and report["validated"]
    f37 = write_spec(tmp_path, {"kind": "counterexample_F", "p": 37}, "f37.json")
    injective = write_spec(tmp_path, injective_phi_spec(11), "injective.json")
    for argv in (["counterexample", "37", "--validate", "--samples", "10"],
                 ["verify", f37, "--suite", "identities", "--samples", "10"],
                 ["verify", injective, "--suite", "identities", "--samples", "10"]):
        tracemalloc.start()
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 3
        assert peak < 1_000_000  # F37's two add tables would take ~30 MB
        err = capsys.readouterr().err
        assert "TABLE_CAP" in err and "Traceback" not in err


def test_counterexample_validates_before_the_set_level_check(monkeypatch, capsys):
    """--validate runs the element-level check first: F37's refused tables
    exit 3 before `verify_counterexample_F` is called. When validation
    passes, the report is the plain one with `validated` added."""
    calls = []
    verify = classify.verify_counterexample_F
    monkeypatch.setattr(classify, "verify_counterexample_F", lambda p: calls.append(p) or verify(p))
    assert main(["counterexample", "37", "--validate", "--samples", "10"]) == 3
    assert calls == [] and "TABLE_CAP" in capsys.readouterr().err
    _, plain = run_json(capsys, ["counterexample", "11", "--json"])
    code, report = run_json(capsys, ["counterexample", "11", "--validate", "--samples", "10", "--json"])
    assert code == 0 and calls == [11, 11]
    assert report == {**plain, "validated": True}


@pytest.mark.parametrize("p, code", [(4, 2), (6, 2), (10**14, 3), (10**14 + 31, 3)])
def test_counterexample_p_is_bounded_before_primality(monkeypatch, tmp_path, capsys, p, code):
    """A huge p, prime or not, is refused at the trial-division bound without
    a primality test (trial division to sqrt(10^14) takes about a second);
    a small composite p is still a bad prime."""
    tested = []
    for module in (sb.catalog, formula):
        monkeypatch.setattr(module, "is_prime", lambda n: tested.append(n) or fp.is_prime(n))
    path = write_spec(tmp_path, {"kind": "counterexample_F", "p": p})
    assert main(["analyze", path]) == code
    assert tested == ([6] if p == 6 else [])
    err = capsys.readouterr().err
    assert ("TABLE_CAP" if code == 3 else "prime") in err and "Traceback" not in err


def test_term_orders_above_sys_maxsize_are_reported(tmp_path, capsys):
    """239^8 exceeds sys.maxsize, which len() cannot return: a term's order
    is read from its subspaces."""
    path = write_spec(tmp_path, {"kind": "counterexample_F", "p": 239})
    code, report = run_json(capsys, ["series", path, "--kind", "socle", "--json"])
    assert code == 0
    assert [t["order"] for t in report["socle"]["terms"]][-1] == 239**8 > sys.maxsize


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "trivial", "group": "C1500"},
        {"kind": "almost_trivial", "group": "C1001"},
        {"kind": "bc", "p": 10**13 + 37, "d_b": 1, "d_c": 1, "phi": [[[1]]], "psi": [[[1]]]},
        {"kind": "pq", "p": 1009, "q": 2, "k": 1008, "variant": "i"},
    ],
)
def test_spec_tables_above_table_cap_exit_3_before_building(tmp_path, capsys, spec):
    """A builtin name's n x n table (C1500: 2.25 M cells), the 3.2 M trial
    divisions of a primality test at p = 10^13 + 37 and the two pq tables
    of order 2018 (4.1 M cells each) are refused at TABLE_CAP before they
    are built or run."""
    path = write_spec(tmp_path, spec)
    tracemalloc.start()
    code = main(["series", path, "--kind", "group_lower_dot", "--json"])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 3
    assert peak < 1_000_000  # C1500's table would take ~90 MB
    err = capsys.readouterr().err
    assert "TABLE_CAP" in err and "Traceback" not in err


def test_large_prime_one_by_one_spec_runs(tmp_path, capsys):
    """A (1, 1) spec at p = 1,000,003 keeps no table, so it is built: its
    dot group F_p^2 is abelian."""
    p = 1_000_003
    path = write_spec(tmp_path, {"kind": "bc", "p": p, "d_b": 1, "d_c": 1, "phi": [[[1]]], "psi": [[[1]]]})
    code, report = run_json(capsys, ["series", path, "--kind", "group_lower_dot", "--json"])
    assert code == 0
    assert [t["order"] for t in report["group_lower_dot"]["terms"]] == [p**2, 1]


def test_builtin_spec_group_at_table_cap_is_built(tmp_path, capsys):
    path = write_spec(tmp_path, {"kind": "trivial", "group": "C1000"})
    code, report = run_json(capsys, ["series", path, "--kind", "group_lower_dot", "--json"])
    assert code == 0
    assert [t["order"] for t in report["group_lower_dot"]["terms"]] == [1000, 1]


Z2 = [[0, 1], [1, 0]]
Z4_ADD = [[(a + b) % 4 for b in range(4)] for a in range(4)]
Z4_MULT = [[2 * a * b % 4 for b in range(4)] for a in range(4)]
FUZZ_SPECS = [
    {"kind": "tables", "dot": Z2, "circ": Z2},
    sb.spec_of_tables(sb.build_from_radical_ring(Z4_ADD, Z4_MULT)),
    {"kind": "trivial", "group": "C2"},
    {"kind": "almost_trivial", "group": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
    {"kind": "radical_ring", "add": Z4_ADD, "mult": Z4_MULT},
    PQ_SPEC,
    {"kind": "bc", "p": 2, "d_b": 2, "d_c": 2, "phi": [[[1, 0], [0, 1]], [[1, 1], [0, 1]]],
     "psi": [[[1, 0], [0, 1]], [[1, 1], [0, 1]]]},
    {"kind": "bc", "p": 3, "d_b": 1, "d_c": 2, "phi": [[[1]], [[1]]], "psi": [[[1, 0], [0, 1]]]},
]
FUZZ_LEAVES = st.one_of(
    st.integers(-3, 7),
    st.sampled_from([0.5, True, None, "", "C2", "ii", "bc", "tables", [], [[]], {}, Z2]),
)


@st.composite
def mutated_specs(draw):
    """A valid spec with one field, at any depth, replaced or dropped."""

    def mutate(value):
        if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
            out = dict(value) if isinstance(value, dict) else list(value)
            key = draw(st.sampled_from(list(out) if isinstance(out, dict) else range(len(out))))
            if draw(st.integers(0, 3)) == 0:
                del out[key]
            else:
                out[key] = mutate(out[key])
            return out
        return draw(FUZZ_LEAVES)

    spec = draw(st.sampled_from(FUZZ_SPECS))
    return mutate(spec) if draw(st.integers(0, 9)) else draw(FUZZ_LEAVES)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(spec=mutated_specs())
def test_mutated_specs_exit_cleanly(spec):
    """Every command on a damaged spec ends in a documented exit code, with
    no exception escaping `main`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "brace.json")
        pathlib.Path(path).write_text(json.dumps(spec))
        for argv in (["analyze", path], ["series", path], ["verify", path, "--samples", "20"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--json"])
            assert code in (0, 1, 2, 3), (argv, spec)
            assert "Traceback" not in err.getvalue()
            if code == 0:
                text = out.getvalue()
                assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    st.text(),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\n\t\x7f", "é ∂ 😀 \u2028"]),
)


class _List(list):
    pass


class _Tuple(tuple):
    pass


class _Dict(dict):
    pass


def _json_containers(children):
    return st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        # subclasses render indented, as `json` does for any list, tuple or dict
        st.lists(children).map(_List),
        st.lists(children).map(_Tuple),
        st.dictionaries(st.text(), children).map(_Dict),
        st.builds(cli._PairListing, st.lists(children, max_size=3), st.lists(children, max_size=3)),
        st.lists(st.integers()),
        st.dictionaries(st.text(), children),
        # keys of one comparable kind per dict: json sorts keys before converting them
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.floats(allow_nan=False)), children),
        st.dictionaries(st.none(), children, max_size=1),
    )


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(value=st.recursive(JSON_SCALARS, _json_containers, max_leaves=40))
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


CATALOG_SPECS = {
    **{f"trivial_{g}": {"kind": "trivial", "group": g} for g in ("C2", "C6", "S3", "D4", "Q8")},
    **{f"almost_trivial_{g}": {"kind": "almost_trivial", "group": g} for g in ("S3", "D4")},
    "pq_i": PQ_SPEC,
    "pq_ii": {**PQ_SPEC, "variant": "ii"},
    "pq_i_52": {"kind": "pq", "p": 5, "q": 2, "k": 4, "variant": "i"},
    "pq_i_73": {"kind": "pq", "p": 7, "q": 3, "k": 2, "variant": "i"},
    "pq_ii_73": {"kind": "pq", "p": 7, "q": 3, "k": 2, "variant": "ii"},
    "radical_z4": {"kind": "radical_ring", "add": Z4_ADD, "mult": Z4_MULT},
    "tables_pq_i": sb.spec_of_tables(sb.make_pq_brace(3, 2, 2, "i")),
    **{
        f"bc{p**4}": {"kind": "bc", "p": p, "d_b": 2, "d_c": 2, "phi": [I2, UNI2], "psi": [I2, UNI2]}
        for p in (2, 3)
    },
    "counterexample_F5": {"kind": "counterexample_F", "p": 5},
}


@pytest.mark.parametrize("name", list(CATALOG_SPECS))
def test_json_writer_matches_json_dumps_on_reports(name, tmp_path, monkeypatch):
    """The full analyze, series and verify reports of every catalog brace."""
    path = write_spec(tmp_path, CATALOG_SPECS[name])
    reports = []
    original = cli._emit

    def emit(args, report):
        reports.append(report)
        original(args, report)

    monkeypatch.setattr(cli, "_emit", emit)
    for argv in (
        ["analyze", path, "--checks", "A,E", "--max-n", "2"],
        ["series", path],
        ["verify", path, "--samples", "200"],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--json"]) == 0, argv
        assert out.getvalue() == cli._json(reports[-1]) + "\n"
    assert len(reports) == 3
    for report in reports:
        assert cli._json(report) == json.dumps(report, indent=2, sort_keys=True)


def decode_listing(brace, term):
    """A formula term's elements listed index by index: sorted, then decoded."""
    return [[list(b), list(c)] for b, c in map(brace.decode, sorted(term))]


def bc13():
    """bc81's construction at p = 13: its listed vectors hold two-digit entries."""
    return sb.make_bc_brace(13, 2, 2, (I2, UNI2), (I2, UNI2))


@pytest.mark.parametrize(
    "make", [bc16, bc81, lambda: sb.make_counterexample_F(5)], ids=["bc16", "bc81", "F5"]
)
def test_term_elements_read_off_subspaces_match_decoded_indices(make):
    """Every listed term of the ten chains gives the pairs of its sorted indices."""
    brace = make()
    listed = 0
    for chain in cli._all_chains(brace).values():
        for term in chain.terms:
            if len(term) <= cli.ELEMENT_DUMP_CAP:
                assert cli.set_to_json(term)["elements"] == decode_listing(brace, term)
                listed += 1
    assert listed >= 10


def _assert_listing_renders_as_plain_list(term):
    """`_json`, text mode and `json.dumps` see a pair listing as the plain
    list of its pairs."""
    listing = term["elements"]
    plain = {**term, "elements": list(listing)}
    assert type(listing) is cli._PairListing and type(plain["elements"]) is list
    assert cli._json(term) == json.dumps(term, indent=2, sort_keys=True) == cli._json(plain)
    assert str(listing) == str(plain["elements"])
    assert json.dumps(listing) == json.dumps(plain["elements"])


@pytest.mark.parametrize(
    "make", [bc16, bc81, lambda: sb.make_counterexample_F(5), bc13], ids=["bc16", "bc81", "F5", "bc13"]
)
def test_pair_listings_render_as_plain_lists(make):
    """Every listed term of the ten chains, and the same term with either
    factor listing cut to its zero vector."""
    listed = 0
    for chain in cli._all_chains(make()).values():
        for term in map(cli.set_to_json, chain.terms):
            if "elements" in term:
                bs, cs = term["elements"].bs, term["elements"].cs
                for pairs in (term["elements"], cli._PairListing(bs[:1], cs), cli._PairListing(bs, cs[:1])):
                    _assert_listing_renders_as_plain_list({**term, "elements": pairs})
                listed += 1
    assert listed >= 10


def test_series_f5_lists_no_term(tmp_path, capsys, monkeypatch):
    """The series report of the order-5^8 brace renders every term, element
    listings included, from its subspaces alone: no term is listed."""
    rendered = []
    original = cli.set_to_json

    def recorded(term):
        rendered.append(term)
        return original(term)

    monkeypatch.setattr(cli, "set_to_json", recorded)
    path = write_spec(tmp_path, {"kind": "counterexample_F", "p": 5})
    code, report = run_json(capsys, ["series", path, "--json"])
    assert code == 0
    terms = [t for chain in report.values() for t in chain["terms"]]
    assert len(rendered) == len(terms) and any(len(t.get("elements", ())) > 1 for t in terms)
    assert all(term._members is None for term in rendered)


def test_json_writer_renders_shared_lists_once_per_depth(monkeypatch):
    """One list object at two depths, and a tuple and a list of the same
    ints, render as `json.dumps` does; a pair listing renders each vector
    of its two factor listings once."""
    v, t = [1, 2, 3], (1, 2, 3)
    value = {"a": v, "b": [v, [v, t]], "c": [t, v, [1, 2, 3]], "d": [[v, v], t, {"e": v}]}
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)
    bs, cs = [[0, 0], [1, 0], [0, 1]], [[0], [2]]
    pairs = cli._PairListing(bs, cs)
    calls = []
    original = cli._render

    def counted(value, pad):
        calls.append(value)
        return original(value, pad)

    monkeypatch.setattr(cli, "_render", counted)
    assert cli._json(pairs) == json.dumps(pairs, indent=2, sort_keys=True)
    assert len(calls) == 1 + len(bs) + len(cs)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_reuse_matches_calls_run_alone(tmp_path):
    """`main` keeps one parser per process; a call must not see the one
    before it."""
    path = write_spec(tmp_path, PQ_SPEC)
    sequences = [
        [["analyze", path, "--checks", "A", "--json"], ["analyze", path, "--json"]],
        [["series", path, "--json"], ["series", path]],
        [["analyze"], ["verify", path, "--suite", "identities", "--json"]],
        [["analyze", "-h"], ["series", path, "--kind", "left", "--json"]],
    ]
    for sequence in sequences:
        alone = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            alone.append(_call(argv))
        assert [_call(argv) for argv in sequence] == alone
    with_checks, without = (json.loads(_call(argv)[1]) for argv in sequences[0])
    assert "checks" in with_checks and "checks" not in without
    assert [_call(argv)[0] for argv in (["analyze"], ["analyze", "-h"])] == [1, 0]
