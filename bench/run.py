"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass runs in a fresh interpreter
(`workloads.py`), one at a time, until the next pass would overrun `--seconds`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
`BENCHMARK.json` with `--trace 0`, the per-layer metrics of the traced passes
with `--trace 1`. Lines before it, each starting with `#`, stamp the
environment and spell out every metric by the name the workload notes use.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import ITEM_NAMES, REFERENCE_LOOP_S, load_contract

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "skewbrace")

RUN_LIMIT_S = 170.0  # every run must end well inside 180 s


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Hash of the library sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args: argparse.Namespace) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def run_pass(args: argparse.Namespace, trace: bool, cpu: int, deadline: float) -> tuple[dict | None, str]:
    """One pass in a fresh interpreter pinned to one CPU; its result or an error."""
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": "0"}
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "workloads.py"),
        args.workload,
        str(args.seed),
        args.size,
        "1" if trace else "0",
    ]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        return None, f"pass exceeded the {RUN_LIMIT_S:.0f} s run limit"
    if proc.returncode != 0:
        return None, proc.stderr[-2000:]
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "pass printed no result"


def typical_steps(passes: list[dict], key: str) -> list[float]:
    """Each timed step at its median over the passes.

    Every pass of a run does the same steps in the same order, and every time
    is already scaled to the reference speed (`workloads.speed_loop`), so the
    median of a step over the passes is steady even when the host's speed
    changes between them. Steps doing identical work within a pass
    (`same_work`) are pooled, which doubles the samples of a call made twice.
    """
    lengths = {len(p[key]) for p in passes}
    if len(lengths) != 1:
        raise SystemExit(f"passes timed different numbers of {key}: {sorted(lengths)}")
    columns = [list(column) for column in zip(*(p[key] for p in passes))]
    same_work = passes[0]["same_work"]
    if same_work:
        pooled: dict[str, list[float]] = {}
        for work, column in zip(same_work, columns, strict=True):
            pooled.setdefault(work, []).extend(column)
        columns = [pooled[work] for work in same_work]
    return [statistics.median(column) for column in columns]


def tail_of(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and its rank."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of one run, from medians over its passes."""
    calls = typical_steps(passes, "calls_s")
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": sum(typical_steps(passes, "steps_s")),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "items_per_s": passes[0]["items"] / sum(typical_steps(passes, "item_s")),
        "call_p50_ms": statistics.median(calls) * 1000.0,
        "call_tail_ms": tail_of(calls)[0] * 1000.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ITEM_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"no library sources at {PACKAGE}: run from the root of a checkout", file=sys.stderr)
        return 2
    # Byte-compile up front so that no pass pays for it inside its set-up time.
    compileall.compile_dir(PACKAGE, quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1, maxlevels=0)

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    untraced: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    # Passes take turns on the CPUs, whose speeds change on their own as other
    # tenants come and go, so the medians of a run mix both.
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        # A traced run alternates untraced and traced passes, for the overhead.
        trace = bool(args.trace) and len(untraced) > len(traced)
        done = traced if trace else untraced
        t0 = time.monotonic()
        result, error = run_pass(args, trace, cpus[len(done) % len(cpus)], deadline)
        last = time.monotonic() - t0
        if result is None:
            errors.append(error)
            break
        done.append(result)
        enough = untraced and (traced or not args.trace)
        if enough and time.monotonic() - started + last > args.seconds:
            break

    for error in errors:
        print(f"pass failed: {error}", file=sys.stderr)
    passes = untraced + traced
    if not untraced or (args.trace and not traced):
        return 1

    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(p["failed"] for p in passes) + len(errors)
    missing = sorted({c for p in passes for c in p["checks_missing"]})
    correct = failed == 0 and not missing

    env = environment(args)
    env["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    env["input_sizes"] = untraced[0]["sizes"]
    print("# env " + json.dumps(env, sort_keys=True))
    print("# pass_wall_s (raw) " + json.dumps([round(p["wall_s"], 4) for p in untraced]))
    print("# setup_s (raw) " + json.dumps([round(p["raw_setup_s"], 4) for p in untraced]))
    loops = sorted(t for p in untraced for t in p["loop_s"])
    print(
        f"# speed loop: median {statistics.median(loops) * 1e6:.1f} us, fastest {loops[0] * 1e6:.1f} us"
        f" over {len(loops)} timings (reference {REFERENCE_LOOP_S * 1e6:.0f} us)"
    )
    print("# checks_run " + json.dumps(sorted({c for p in passes for c in p["checks_run"]})))
    if missing:
        print("# checks_missing " + json.dumps(missing))
    for p in passes:
        for failure in p["failures"]:
            print(f"# failure {failure}")

    contract = load_contract()
    end_to_end_units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    values = end_to_end(untraced)
    if args.trace:
        layers = {k: statistics.median_low(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        traced_wall = sum(typical_steps(traced, "steps_s"))
        layers["trace.overhead_ratio"] = traced_wall / values["wall_s"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in contract["per_layer"]}
        print(
            f"# tracing overhead: traced wall_s {traced_wall:.4f} s / untraced wall_s"
            f" {values['wall_s']:.4f} s = {layers['trace.overhead_ratio']:.4f}"
        )
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end_units.items()}
    for name, unit in end_to_end_units.items():
        alias = f" ({ITEM_NAMES[args.workload]})" if name == "items_per_s" else ""
        print(f"# {name}{alias} = {values[name]:.6g} {unit}")
    _, tail_pct = tail_of(untraced[0]["calls_s"])
    print(f"# call_tail_ms is p{tail_pct:.1f} of {len(untraced[0]['calls_s'])} calls per pass")
    print(f"# error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
