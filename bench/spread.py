#!/usr/bin/env python3
"""Steadiness check: run the benchmark once per seed on each workload and
print, per end-to-end metric, the median and the spread (distance between
the first and third quartile as a share of the median), against the
metric's bound in BENCHMARK.json.

    python3 bench/spread.py 1,2,3,4,5,6,7,8,9,10 [workload,workload...] [seconds]
"""
import json
import os
import statistics
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
manifest = json.load(open(os.path.join(root, "BENCHMARK.json")))
seeds = sys.argv[1].split(",")
workloads = sys.argv[2].split(",") if len(sys.argv) > 2 else [w["name"] for w in manifest["workloads"]]
seconds = sys.argv[3] if len(sys.argv) > 3 else str(manifest["run_seconds"])
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}

failed = False
for w in workloads:
    values = {}
    for seed in seeds:
        cmd = manifest["command"] + ["--workload", w, "--seed", seed, "--seconds", seconds, "--trace", "0"]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"{w} seed {seed}: exit {out.returncode}: {out.stderr.strip()[-400:]}")
            failed = True
            continue
        for name, m in json.loads(out.stdout.strip().splitlines()[-1])["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in sorted(values.items()):
        if len(v) < 2:
            continue
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        note = "" if spread < bounds[name] / 3 else ("  over a third of the bound" if spread <= bounds[name] else "  OVER THE BOUND")
        print(f"{w:18s} {name:16s} median={med:11.4f} spread={100 * spread:6.2f}% bound={100 * bounds[name]:.0f}%{note}", flush=True)
sys.exit(1 if failed else 0)
