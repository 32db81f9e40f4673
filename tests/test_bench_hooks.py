"""The names the benchmark tracer hooks exist, so renaming one fails here
instead of in a traced benchmark run. The tracer is imported, not installed."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import skewbrace as sb

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_hooks_exist(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooked = [(owner, attr) for owner, attr, *_ in tracer.SPANS] + list(tracer.CUSTOM)
    missing = [(owner.__name__, attr) for owner, attr in hooked if attr not in owner.__dict__]
    assert not missing
    brace = sb.make_bc_brace(2, 1, 1, (((1,),),), (((1,),),))
    assert all(hasattr(brace, attr) for attr in ("_sets", "_phi", "_psi"))
