#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads grid,engine-1m --seeds 1-10 [--seconds 50] [--trace 0] [--json out.json]

For every workload and metric it prints the median over the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json. Runs go one at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", help="also write the raw results here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    raw = {}
    for wl in args.workloads.split(","):
        runs = []
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(s),
                                      "--seconds", str(seconds), "--trace", args.trace]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{wl} seed {s}: {res['failed']}/{res['attempted']} operations failed")
            runs.append(res)
            print(f"{wl} seed {s}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())
                if k in bounds), flush=True)
        raw[wl] = runs
        names = sorted(runs[0]["metrics"])
        for name in names:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med
            else:
                spread = float("nan")
            bound = bounds.get(name)
            print(f"  {wl:10s} {name:34s} median {med:14.6g}  spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
