#!/usr/bin/env python3
"""A/A mode: run the benchmark repeatedly on unchanged code and print each
metric's median, quartiles and spread against its bound.

Usage, from the repository root:

    python3 perfbench/aa.py [--workloads a,b] [--runs 10] [--seed 1]
                            [--trace 0|1] [--against perfbench/out/aa-X.json]

Each run gets its own seed (seed, seed+1, ...), as the acceptance runs do.
The spread is (Q3 - Q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4). Results are saved under perfbench/out/,
with the raw (unnormalised) figures each run printed on stderr; --against
prints how far each median moved from an earlier saved set, as a share of
that set's median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed: {proc.stderr[-2000:]}")
    raw = [line for line in proc.stderr.splitlines() if "raw" in line]
    return {k: v["value"] for k, v in result["metrics"].items()}, raw


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--against")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    results = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        raw_lines = []
        for i in range(args.runs):
            start = time.time()
            metrics, raw = run_once(spec, workload, args.seed + i, args.seconds, args.trace)
            runs.append(metrics)
            raw_lines.append(raw)
            print(f"  {workload} run {i + 1}/{args.runs}: {time.time() - start:.0f} s", file=sys.stderr)
        results[workload] = runs
        results[workload + ".stderr"] = raw_lines
        print(f"{workload} ({args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1})")
        print(f"  {'metric':34} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>7} {'bound':>6} {'moved':>7}")
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            moved = ""
            if workload in earlier:
                before = statistics.median(r[name] for r in earlier[workload])
                if before:
                    moved = f"{(med - before) / before:+.3f}"
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  > bound" if spread > bound else ("  > bound/3" if spread > bound / 3 else "")
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6} {moved:>7}{flag}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"aa-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(results, f)
    print(f"raw results: {os.path.relpath(path, ROOT)}; worst spread/bound {worst:.2f}")


if __name__ == "__main__":
    main()
