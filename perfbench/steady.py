#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

Runs BENCHMARK.json's command once per seed for each named workload and
prints, for every metric, the median and the interquartile range as a share
of the median (Python's statistics.quantiles(values, n=4)), next to the
metric's bound. Run from the repository root:

    python3 perfbench/steady.py --workloads serve_chat,http_stream --seeds 1-5
    python3 perfbench/steady.py --workloads all --seeds 1-10 --json out.json

A spread at or above a third of the bound is flagged with `!`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default=None, help="also write the raw results here")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    ok = True
    for w in workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            runs.append(result)
            print(f"{w} seed {seed}: correct={result['correct']} attempted={result['attempted']}",
                  file=sys.stderr)
        raw[w] = runs
        if len(runs) < 2:
            continue
        print(f"\n{w} ({len(runs)} runs)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "!" if bound is not None and not spread < bound / 3 else " "
            print(f" {flag} {name:44s} median {med:<14.6g} spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    if args.json:
        json.dump(raw, open(args.json, "w"), indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
