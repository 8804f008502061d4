#!/usr/bin/env python3
"""Steadiness check: runs one workload once per seed and prints, for each
metric, the median, the quartiles and the quartile spread (Q3 - Q1) /
median next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload color_1m --seeds 1-10 \\
        [--seconds <run_seconds>] [--out runs.jsonl]

Each run's provenance and result lines are appended to --out, so a
baseline can be recomputed without running again (--from runs.jsonl).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from benchlib import quartile_spread  # noqa: E402


def seeds_from(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="append each run's lines here")
    parser.add_argument("--from", dest="source",
                        help="summarize the runs recorded in this file")
    args = parser.parse_args()
    if not (args.workload or args.source):
        parser.error("--workload is required unless --from is given")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    if args.source:
        with open(args.source) as f:
            for line in f:
                record = json.loads(line)
                if args.workload in (None, record["workload"]):
                    results.append(record)
    else:
        seconds = args.seconds or spec["run_seconds"]
        for seed in seeds_from(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
            record = {"workload": args.workload, "seed": seed,
                      "provenance": json.loads(lines[0])["provenance"],
                      "result": json.loads(lines[-1])}
            results.append(record)
            print(f"seed {seed}: correct={record['result']['correct']} "
                  f"failed={record['result']['failed']}", file=sys.stderr)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(record) + "\n")

    by_workload = {}
    for record in results:
        by_workload.setdefault(record["workload"], []).append(record)
    for workload, records in by_workload.items():
        nproc = {r["provenance"]["nproc"] for r in records}
        failed = sum(r["result"]["failed"] for r in records)
        print(f"{workload}: {len(records)} runs, nproc={sorted(nproc)}, "
              f"{failed} failed operations")
        steal = [r["provenance"].get("cpu_steal_pct") for r in records]
        if None not in steal:
            print(f"  cpu steal per run: {min(steal):.1f}% to "
                  f"{max(steal):.1f}% (median {statistics.median(steal):.1f}%)")
        names = sorted(records[0]["result"]["metrics"])
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in records]
            unit = records[0]["result"]["metrics"][name]["unit"]
            q1, q2, q3 = (statistics.quantiles(values, n=4)
                          if len(values) > 1 else (values[0],) * 3)
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            bound = bounds[name]
            flag = ("below a third of the bound" if spread <= bound / 3 else
                    "within the bound" if spread <= bound else "OVER THE BOUND")
            print(f"  {name:18s} median {q2:14.6g} {unit:6s} Q1 {q1:.6g} "
                  f"Q3 {q3:.6g} spread {spread:.4f} (bound {bound}: {flag})")


if __name__ == "__main__":
    main()
