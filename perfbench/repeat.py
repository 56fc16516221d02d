#!/usr/bin/env python3
"""Repeat the benchmark and summarise its run-to-run spread.

Runs each workload --runs times, each with its own seed, and prints per
end-to-end metric the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (Q3 - Q1) as a
share of the median, and the sample count. Run it from the repository
root:

    python3 perfbench/repeat.py --workloads table2,fleet --runs 10

--json writes every run's result beside the table.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # Keep the "# key {json}" context lines: the samples behind each median.
    result["context"] = {k: json.loads(v) for k, v in (l[2:].split(" ", 1) for l in lines[:-1] if l.startswith("# "))}
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="table2,fleet")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="write every run's result to this file")
    args = ap.parse_args()

    results = {}
    print("| workload | metric | median | Q1 | Q3 | spread | n |")
    print("|---|---|---|---|---|---|---|")
    for wl in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            r = run_once(wl, args.first_seed + i, args.seconds, 0)
            if not r["correct"]:
                sys.exit(f"{wl} seed {args.first_seed + i}: {r['failed']} of {r['attempted']} failed")
            runs.append(r)
        results[wl] = runs
        for name in sorted(runs[0]["metrics"]):
            m = runs[0]["metrics"][name]
            s = summarise([r["metrics"][name]["value"] for r in runs])
            print(f"| {wl} | {name} ({m['unit']}) | {s['median']:.6g} | {s['q1']:.6g} | "
                  f"{s['q3']:.6g} | {s['spread']:.3f} | {s['n']} |", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
