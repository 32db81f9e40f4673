"""Regenerate `reference.json`, the pinned answers the benchmark checks.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py

The answers do not depend on the benchmark seed: brace counts and the
multiset of nilpotency profiles are invariant under relabeling, the CLI
answers do not depend on the call order or the sampling seed, and the
membership expectations are derived at run time from the pinned bases.
Regenerate only when the library's answers are meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import skewbrace as sb
from skewbrace import cli

import workloads as wl


def formula_sampled() -> dict:
    f5 = sb.make_counterexample_F(5)
    bc81 = sb.make_bc_brace(3, 2, 2, wl.SPECS["bc81"]["phi"], wl.SPECS["bc81"]["psi"])
    return {
        "identity_base": {
            "F5": sb.check_identities(f5, samples=0)["checked"],
            "bc81": sb.check_identities(bc81, samples=0)["checked"],
        },
        "validate_base": {"bc81": sb.validate_formula_brace(bc81, samples=0)["checked"]},
    }


def formula_p8() -> dict:
    brace = sb.make_counterexample_F(5)
    chain_fns = wl.f5_chain_functions()
    chains = {}
    for name in wl.F5_CHAINS:
        chain = chain_fns[name](brace)
        chains[name] = {
            "stabilized_at": chain.stabilized_at,
            "reaches_terminal": chain.reaches_terminal,
            "terms": [
                {
                    "order": len(t),
                    "b_basis": [list(v) for v in t.pair.b.basis],
                    "c_basis": [list(v) for v in t.pair.c.basis],
                }
                for t in chain.terms
            ],
        }
    return {"verify": wl._jsonable(sb.verify_counterexample_F(5)), "chains": chains}


def table_corpus() -> dict:
    groups = {}
    for name in wl.SIZES["table_corpus"]["full"]["groups"]:
        braces = sb.enumerate_braces(sb.builtin_group(name))
        profiles = []
        for b in braces:
            prof = sb.nilpotency_profile(b)
            profiles.append(json.dumps([
                prof.left, prof.right, prof.socle, prof.annihilator,
                prof.add_group_nilpotent, prof.mult_group_nilpotent,
            ]))
        groups[name] = {"count": len(braces), "profiles": sorted(profiles)}
    return {"groups": groups}


def cli_oneshot() -> dict:
    size = {"small_rounds": 1, "f5_series_rounds": 1}
    inputs = wl.setup_cli_oneshot(0, size, {"cli_oneshot": None})
    calls = {}
    try:
        for call_id, argv in inputs["calls"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            calls[call_id] = {"code": code, "fields": wl._jsonable(wl.cli_fields(call_id, out.getvalue()))}
    finally:
        shutil.rmtree(inputs["work"], ignore_errors=True)
    return {"calls": dict(sorted(calls.items()))}


def main() -> None:
    ref = {
        "formula_sampled": formula_sampled(),
        "formula_p8": formula_p8(),
        "table_corpus": table_corpus(),
        "cli_oneshot": cli_oneshot(),
    }
    path = os.path.join(wl.BENCH_DIR, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
