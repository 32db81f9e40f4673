"""Measure a baseline: run every workload on several seeds and record, per
workload and metric, the quartiles of the run-to-run values.

    python3 bench/baseline.py --seeds 101-110

Runs `run.py` once per workload and seed, one run at a time, with the
`run_seconds` of `BENCHMARK.json`, and writes `bench/baseline.json`. The spread of a
metric is the distance between its first and third quartile as a share of its
median, as `statistics.quantiles(values, n=4)` gives them; it should stay
below a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[6:]) for line in lines if line.startswith("# env "))
    return json.loads(lines[-1]), env


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    seconds = contract["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    env = None
    workloads = {}
    for workload in (w["name"] for w in contract["workloads"]):
        runs = []
        for seed in seeds:
            result, env = run_once(workload, seed, seconds)
            runs.append(result)
            print(workload, seed, json.dumps(result), flush=True)
        summary = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary["metrics"][name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "q1": q1,
                "median": median,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": bound,
                "values": values,
            }
            print(f"{workload} {name}: median {median:.6g} spread {(q3 - q1) / median:.4f} (bound {bound})")
        workloads[workload] = summary

    env = {k: v for k, v in env.items() if k not in ("workload", "seed", "passes", "input_sizes")}
    doc = {"environment": env, "seeds": seeds, "run_seconds": seconds, "workloads": workloads}
    with open(os.path.join(BENCH_DIR, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
