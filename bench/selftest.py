"""Self-test of the benchmark: every workload at its tiny size.

    python3 bench/selftest.py

For each workload it makes one untraced and one traced run and asserts that
the run is correct, that every check of the workload executed, and that every
metric of `BENCHMARK.json` is emitted with its unit. It also asserts that the
benchmark refuses to run, without printing a result, in a directory that holds
only `BENCHMARK.json` and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from workloads import load_contract

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BENCH_NAME = os.path.basename(BENCH_DIR)
CONTRACT = load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, os.path.join(BENCH_NAME, "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    assert not any(line.startswith("# checks_missing") for line in lines), lines
    wanted = {m["name"]: m["unit"] for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted, (workload, trace, set(got) ^ set(wanted))
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert any(line.startswith("# tracing overhead") for line in lines)
    print(f"ok {workload} trace={trace} attempted={result['attempted']}")


def check_refuses_without_library() -> None:
    bare = os.path.join(BENCH_DIR, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            BENCH_DIR, os.path.join(bare, BENCH_NAME),
            ignore=shutil.ignore_patterns("_work", "__pycache__"),
        )
        proc = run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without the library")


def main() -> None:
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_refuses_without_library()


if __name__ == "__main__":
    main()
