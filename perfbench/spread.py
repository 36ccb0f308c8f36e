#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload live_mem1 --seeds 1-5 [--seconds 10] [--trace 0]

Runs the command in BENCHMARK.json once per seed from the repository root,
then prints, per metric, the median of the runs and the distance between
the first and third quartile as a share of that median (Python's
`statistics.quantiles(values, n=4)`), next to a third of the metric's bound.
Exits non-zero if a run fails or reports `correct: false`.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        env = dict(os.environ)
        env.setdefault("CARGO_TARGET_DIR", ".bench_build")
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.stderr.write(proc.stdout)
            sys.exit(f"seed {seed}: correct=false")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        limit = f"  (bound/3 {bound / 3:.4f})" if bound else ""
        print(f"{name:28s} median {med:12.6g}  spread {spread:.4f}{limit}")


if __name__ == "__main__":
    main()
