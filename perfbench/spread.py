#!/usr/bin/env python3
"""Runs the benchmark repeatedly and records each metric's spread.

From the root of a checkout:

    python3 perfbench/spread.py --workloads browse,map_spill,edit \
        --seeds 1-10 --seconds 20 --out perfbench/SPREAD.json

Each workload runs once per seed with --trace 0. For every end-to-end
metric the output records the ten values, their median, first and third
quartiles (statistics.quantiles, n=4) and the interquartile range as a
share of the median, which is what a metric's bound in BENCHMARK.json is
compared with. An existing output file gains a new entry under "sets".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect output or failed interactions:\n{out.stdout}")
    return res, time.time() - t0


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / statistics.median(values),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="browse,map_spill,edit")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--label", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    entry = {"label": args.label, "seconds": args.seconds, "trace": args.trace,
             "seeds": seed_list(args.seeds), "workloads": {}}
    for w in args.workloads.split(","):
        runs, walls = [], []
        for seed in entry["seeds"]:
            res, wall = run_once(w, seed, args.seconds, args.trace)
            runs.append(res["metrics"])
            walls.append(wall)
            print(f"{w} seed {seed}: {wall:.1f} s", file=sys.stderr)
        metrics = {}
        for name in sorted(runs[0]):
            s = summarize([r[name]["value"] for r in runs])
            s["unit"] = runs[0][name]["unit"]
            metrics[name] = s
            bound = bounds.get(name)
            flag = "" if bound is None or s["iqr_share"] < bound / 3 else "  (spread above a third of its bound)"
            print(f"{w:10} {name:24} median {s['median']:12.6g} iqr/median {s['iqr_share']:.3f}"
                  f" bound {bound}{flag}")
        entry["workloads"][w] = {"run_wall_s": summarize(walls), "metrics": metrics}
    if args.out:
        doc = {"sets": []}
        if os.path.exists(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        doc["sets"].append(entry)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
