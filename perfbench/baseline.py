"""Measure the benchmark's baseline and write it to baseline.json.

    python3 perfbench/baseline.py --seconds 20 --sets 2 [--commit REV]

For each workload, runs seeds 1-10 with ``--trace 0`` once per set and
records each end-to-end metric's median, quartiles and spread (interquartile
range over median), then one traced run on seed 1 for the per-layer metrics.
Runs one at a time, so that nothing else competes with a timed run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, WORKLOADS, fingerprint

SEEDS = tuple(range(1, 11))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed: %s" % (workload, seed, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print("%s seed %d trace %d: %s" % (workload, seed, trace, json.dumps(
        {k: round(v["value"], 6) for k, v in result["metrics"].items()})), flush=True)
    return result


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
                     "spread": round((q3 - q1) / median, 3)}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--commit", default="")
    args = parser.parse_args()
    baseline = {
        "about": "End-to-end metrics over seeds 1-10, measured %d time(s) (set_1 ...) with "
                 "--seconds %d --trace 0: median, quartiles and spread = (q3 - q1) / median. "
                 "Per-layer metrics of one traced run per workload (seed 1, --seconds %d "
                 "--trace 1)." % (args.sets, args.seconds, args.seconds),
        "commit": args.commit,
        "fingerprint": fingerprint(),
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry = {}
        for k in range(1, args.sets + 1):
            results = [run_once(workload, seed, args.seconds, 0) for seed in SEEDS]
            entry["set_%d" % k] = {
                "seeds": list(SEEDS),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "end_to_end": summarize(results),
            }
        traced = run_once(workload, 1, args.seconds, 1)
        entry["per_layer_seed_1"] = {k: round(v["value"], 6) for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()
