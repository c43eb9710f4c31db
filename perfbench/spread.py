#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1,2,...]
                                [--trace 0|1]

Runs `perfbench/run.py` once per workload and seed, then prints for
each metric the median of the values and the distance between their
first and third quartiles (`statistics.quantiles(values, n=4)`) as a
share of that median, next to the metric's bound from BENCHMARK.json.
A spread under a third of the bound is steady; `setup_s` is reported
but exempt. Exits 1 if any run failed or any other spread reaches a
third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for workload in workloads:
        values = {}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()
                             if k in bounds)
            print(f"{workload} seed {seed}: {shown}", flush=True)
        for name, vals in values.items():
            if name not in bounds or len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady = spread < bounds[name] / 3
            if not steady and name != "setup_s":
                ok = False
            print(f"  {workload:<18} {name:<12} median {med:.4f}  spread {spread:.3f}"
                  f"  bound {bounds[name]}  {'steady' if steady else 'NOT steady'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
