#!/usr/bin/env python3
"""Steadiness check: run workloads ten times each, one seed per run, at
BENCHMARK.json's run_seconds, and print each end-to-end metric's median,
quartiles, quartile spread and worst deviation, against its bound.

    python3 perfbench/steady.py [--workloads social,road] [--first-seed 1]
        [--json-out set.json] [--compare earlier_set.json]

Run from the repository root. The spread is (q3 - q1) / median over the
runs, with quartiles as Python's statistics.quantiles(values, n=4) gives
them. A set is steady when every metric's spread is within its bound, the
share of failed operations is the same in every run and every run is
correct; a spread above a third of the bound is flagged. setup_s is one
cold set-up per run, a single wall-clock reading that no percentile
filters: its spread is printed and flagged but does not fail the set; its
median is what a comparison holds. --json-out saves every run's result;
--compare reads such a file from an earlier set and reports how far each
median moved, which must stay within the bound in either direction, for
every metric including setup_s.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    worst = max(abs(v - med) for v in values) / med if med else 0.0
    return med, q1, q3, (q3 - q1) / med if med else 0.0, worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json-out", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    saved = {}
    steady = True
    for w in workloads:
        results = []
        for i in range(RUNS):
            seed = args.first_seed + i
            r = run_once(w, seed, seconds)
            results.append(r)
            print(f"  {w} seed {seed}: {r['attempted']} ops, {r['failed']} failed, "
                  f"correct={r['correct']}, {r['wall_s']:.1f} s wall", file=sys.stderr)
        saved[w] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        wrong = sum(1 for r in results if not r["correct"])
        print(f"\n{w}: {len(results)} runs, failed share {sorted(shares)}, {wrong} incorrect")
        if len(shares) != 1 or wrong:
            steady = False
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'worst':>8s} {'bound':>6s}  {'moved':>8s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread, worst = summarize(values)
            moved = ""
            if w in earlier:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier[w])
                shift = (med - old) / old if old else 0.0
                moved = f"{shift:+8.3f}"
                if abs(shift) > bound:
                    steady = False
                    moved += " MOVED"
            flag = ""
            if spread > bound:
                steady = steady and name == "setup_s"
                flag = "  <-- spread above bound"
            elif spread > bound / 3:
                flag = "  <-- spread above bound/3"
            print(f"  {name:16s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
                  f"{worst:8.3f} {bound:6.2f}  {moved}{flag}")
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(saved, f)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
