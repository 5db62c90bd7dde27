#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each metric's median
and run-to-run spread (quartile distance as a share of the median),
flagging spreads above a third of the metric's bound in BENCHMARK.json.

Run from the checkout root:

    python3 perfbench/spread.py --workload ingest-live --seeds 1-5
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{'metric':32} {'median':>14} {'spread':>8} {'bound':>6}  values")
    for name, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = " <-- above bound/3" if bound and spread > bound / 3 else ""
        vals = " ".join(f"{x:.4g}" for x in xs)
        print(f"{name:32} {med:14.6g} {spread:8.3f} {bound if bound else '':>6}  {vals}{flag}")


if __name__ == "__main__":
    main()
