#!/usr/bin/env python3
"""Steadiness report for the isebench benchmark.

Runs the benchmark command from BENCHMARK.json several times per
workload, each run with another seed, and prints for every metric its
median, first and third quartile and spread (interquartile range as a
share of the median) next to the metric's bound. It fails (exit 1) when
a run fails a check, when an end-to-end spread other than setup_s's
reaches a third of its bound, or, for traced runs, when an exact counter
(`kl.*` and `serve.*` counts) differs between runs.

    python3 isebench/steady.py --runs 10                  # every workload
    python3 isebench/steady.py --runs 5 --workloads serve_mix --trace 1
    python3 isebench/steady.py --runs 10 --out steady.json

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]


def exact_counter(name, unit):
    return unit == "count" and (name.startswith("kl.") or name.startswith("serve."))


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="also write the report as JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    report = {}
    for workload in args.workloads.split(","):
        values, units, provenance = {}, {}, []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, prov = run_once(bench["command"], workload, seed, args.seconds, args.trace)
            provenance.append(prov)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: {result['attempted']} attempted, {result['failed']} failed",
                  file=sys.stderr)
        rows = {}
        print(f"\n== {workload} ({args.runs} runs, trace {args.trace}, "
              f"nproc {provenance[0]['nproc']}, rev {provenance[0]['git_rev'][:12]})")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  SPREAD"
                ok = False
            if args.trace and exact_counter(name, units[name]) and len(set(vals)) > 1:
                flag = "  NOT EXACT"
                ok = False
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%} "
                  f"{'' if bound is None else format(bound, '.2f'):>6}{flag}")
            rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "values": vals}
        report[workload] = {"provenance": provenance, "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
