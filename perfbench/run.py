#!/usr/bin/env python3
"""Runs the RoLo simulator benchmark defined in BENCHMARK.json.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Builds the `rolo-perfbench` package next to this script (release
profile, offline, into $CARGO_TARGET_DIR or `.bench_build`), then
measures each workload in fresh processes, one at a time:

- `--trace 0`: the end-to-end metrics, from one process running the
  workload as defined: `run_s` and `setup_s` medians, and the peak
  resident memory of that process.
- `--trace 1`: the per-layer metrics, from three processes: timed and
  untimed runs (`layers`), the workload as defined (`e2e`) and the same
  with every observation hook off (`ablation`).

Without `--trace` both are measured; without `--workload` every
workload is. Prints each metric with its unit, then the host's core
count, the build profile and the seed, and as the last line one JSON
object: `correct`, `attempted`, `failed` and `metrics`. Exits 1 if any
run panicked, failed its consistency audit or mechanism guard, or gave
a digest that differs from the workload's other runs; 2 if the
benchmark could not run at all.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROFILE = "release"
DEFAULT_SEED = 0x5EED
# After the build, one invocation must end within 180 s: measuring
# processes still running when this budget is spent are killed.
BUDGET_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    exe = os.path.join(target_dir(), PROFILE, "rolo-perfbench")
    if not os.path.isfile(exe):
        fail(f"built binary not found at {exe}")
    return exe


def child(exe, mode, workload, seed, seconds, deadline):
    """Runs one measuring process; returns (result, exit code, peak RSS MiB).

    The process is reaped with wait4 so its own peak resident memory is
    read, not the maximum over every child this script started.
    """
    cmd = [exe, "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    # ru_maxrss is in KiB on Linux.
    return result, code, usage.ru_maxrss / 1024.0


class Outcome:
    """Tallies runs across the processes of one workload measurement."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}

    def add(self, label, result, code):
        if result is None:
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{label}: no result (exit code {code})")
            return False
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += [f"{label}: {e}" for e in result["errors"]]
        if code != 0 and result["failed"] == 0:
            self.failed += 1
            self.errors.append(f"{label}: exit code {code}")
        self.digests[label] = result["digest"]
        return code == 0

    def check_digests(self, results):
        """Every process of one workload must report the same digest."""
        if len(set(self.digests.values())) > 1:
            first = next(iter(self.digests.values()))
            for label, digest in self.digests.items():
                if digest != first:
                    self.failed += results[label]["attempted"]
                    self.errors.append(f"{label}: digest {digest} differs from {first}")


def measure(exe, spec, workload, seed, seconds, trace, deadline):
    """Measures one workload; returns (Outcome, metrics, names the spec wants)."""
    out = Outcome()
    metrics = {}
    if trace == 0:
        res, code, rss = child(exe, "e2e", workload, seed, seconds, deadline)
        if out.add("e2e", res, code):
            metrics = dict(res["metrics"])
            metrics["peak_rss_mb"] = rss
        names = [m["name"] for m in spec["end_to_end"]]
        return out, metrics, names
    results, rss = {}, {}
    for mode, share in (("layers", 0.5), ("e2e", 0.25), ("ablation", 0.25)):
        res, code, rss[mode] = child(exe, mode, workload, seed, seconds * share, deadline)
        if out.add(mode, res, code):
            results[mode] = res
    if len(results) == 3:
        out.check_digests(results)
        metrics = dict(results["layers"]["metrics"])
        full = results["e2e"]["metrics"]["run_s"]
        bare = results["ablation"]["metrics"]["run_s"]
        metrics["obs.cost_s"] = full - bare
        metrics["obs.cost_frac"] = (full - bare) / full
        metrics["obs.rss_mb"] = rss["e2e"] - rss["ablation"]
    names = [m["name"] for m in spec["per_layer"]]
    return out, metrics, names


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 0:
        fail("--seconds must not be negative")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    exe = build()
    workloads = names if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    single = len(workloads) == 1 and len(traces) == 1

    total = Outcome()
    reported = {}
    for workload in workloads:
        for trace in traces:
            deadline = time.monotonic() + BUDGET_S
            out, metrics, wanted = measure(exe, spec, workload, args.seed, args.seconds, trace,
                                           deadline)
            missing = [name for name in wanted if name not in metrics]
            if missing and not out.failed:
                out.failed = 1
                out.errors.append(f"metrics missing: {', '.join(missing)}")
            print(f"== {workload} (trace {trace}): {out.attempted} runs attempted, "
                  f"{out.failed} failed")
            for e in out.errors:
                print(f"   FAILED {e}")
            for name in wanted:
                if name in metrics:
                    print(f"   {name:<28} {metrics[name]:>16.6f} {units[name]}")
                    key = name if single else f"{workload}/{name}"
                    reported[key] = {"value": metrics[name], "unit": units[name]}
            # Figures the spec does not list: run count and quartiles of
            # the medians above, and the per-kind controller times.
            extra = sorted(set(metrics) - set(wanted))
            if extra:
                print("   info " + " ".join(f"{n}={metrics[n]:.6g}" for n in extra))
            total.attempted += out.attempted
            total.failed += out.failed
    print(f"# host nproc={os.cpu_count()} profile={PROFILE} seed={args.seed} "
          f"seconds={args.seconds:g}")
    if total.attempted == 0:
        total.attempted = total.failed = 1
    correct = total.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": reported,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
