#!/usr/bin/env python3
"""Steadiness report: runs workloads repeatedly and summarizes each metric.

    python3 perfbench/steady.py --workload scale_100k --seeds 1-10
    python3 perfbench/steady.py --seeds 1-10            # every workload
    python3 perfbench/steady.py --seeds 1-3 --trace 1   # per-layer

For every metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median.
An end-to-end metric whose spread exceeds its bound in BENCHMARK.json is
flagged, except setup_s, for which only the median is compared
between sets of runs.
Count metrics (reported with --trace 1) list every distinct value and
are flagged when two runs of one seed disagree; with --trace 1 every
seed runs twice so that this is always checked. Each run's
host line is printed once per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace, extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    host = next((ln for ln in lines if ln.startswith("host: ")), "")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, host
    return json.loads(lines[-1]), host


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digest", action="store_true")
    args = ap.parse_args()
    repeat = 2 if args.trace else 1
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    extra = ["--record-digest"] if args.record_digest else []
    flagged = 0
    for workload in workloads:
        runs, hosts, failed = [], set(), 0
        for seed in parse_seeds(args.seeds) * repeat:
            result, host = run_once(workload, seed, args.seconds,
                                    args.trace, extra)
            hosts.add(host)
            if result is None or not result["correct"]:
                failed += 1
                print("%s seed %d: FAILED" % (workload, seed), flush=True)
                continue
            runs.append((seed, result))
            print("%s seed %d: %s" % (workload, seed, "  ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in sorted(result["metrics"].items())
                if k in bounds)), flush=True)
        print("\n== %s: %d runs, %d failed" % (workload, len(runs), failed))
        for host in sorted(hosts):
            print("   " + host)
        names = sorted({k for _, r in runs for k in r["metrics"]})
        for name in names:
            values = [r["metrics"][name]["value"] for _, r in runs
                      if name in r["metrics"]]
            unit = runs[0][1]["metrics"].get(name, {}).get("unit", "")
            if unit == "count":
                by_seed = {}
                for seed, r in runs:
                    by_seed.setdefault(seed, set()).add(
                        r["metrics"][name]["value"])
                differs = any(len(v) > 1 for v in by_seed.values())
                flagged += differs
                print("   %-40s counts %s%s" % (
                    name, sorted(set(values)),
                    "  <-- differs between runs of one seed"
                    if differs else ""))
                continue
            med, q1, q3, spread = summarize(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "  <-- spread over bound %.2f" % bound
                flagged += 1
            elif bound is not None:
                flag = "  (bound %.2f)" % bound
            print("   %-40s median %12.6g  q1 %12.6g  q3 %12.6g  "
                  "spread %.3f %s%s" % (name, med, q1, q3, spread, unit,
                                        flag))
        flagged += failed
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
