#!/usr/bin/env python3
"""Run the benchmark on one workload over several seeds and print, for each
metric, the median and the spread (distance between the first and third
quartile as a share of the median, as statistics.quantiles(values, n=4)
gives the quartiles).

Run from the repository root:

    python3 benchmark/spread.py --workload large-n --seeds 1-10 --seconds 30

Each run's full output is kept in .bench_build/spread/. A later change's
effect on a metric is resolved only where it exceeds this spread; see
README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in seeds(args.seeds):
        cmd = ["bash", "benchmark/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        os.makedirs(".bench_build/spread", exist_ok=True)
        with open(f".bench_build/spread/{args.workload}-trace{args.trace}-seed{seed}.txt", "w") as f:
            f.write(out)
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: correct={res['correct']} failed={res['failed']}\n{out}")
        line = []
        for name, m in sorted(res["metrics"].items()):
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)

    print(f"{'metric':34} {'median':>14} {'unit':6} spread")
    for name, xs in sorted(values.items()):
        med = statistics.median(xs)
        spread = float("nan")
        if len(xs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
        print(f"{name:34} {med:14.6g} {units[name]:6} {spread:.4f}")


if __name__ == "__main__":
    main()
