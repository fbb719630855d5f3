#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
spread across the runs: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, beside the bound
BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload churn-repair --seeds 1-5 [--trace 1]

Run it from the repository root after building the benchmark once. A seed whose
run fails is listed and left out of the spreads.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    failed_seeds = []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            failed_seeds.append(seed)
            print(f"seed {seed}: exit {out.returncode}: {out.stderr.strip().splitlines()[-1:]}",
                  file=sys.stderr)
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        times = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                         if m["unit"] == "s")
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} {times}",
              file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    if failed_seeds:
        print(f"FAILED seeds (no result): {failed_seeds}")
    print(f"{'metric':40} {'median':>14} {'iqr/median':>10} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:40} {med:14.6g} {spread:10.4f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
