#!/usr/bin/env python3
"""Repeat-run steadiness check for the benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] \
        [--workloads clueweb-saturated,...] [--first-seed 1]

Runs every workload --runs times, each with another seed, untraced,
for BENCHMARK.json's run_seconds. For each end-to-end metric it prints
the median and the quartile spread (q3 - q1) / median, computed with
statistics.quantiles(values, n=4), next to the metric's bound; a
spread above a third of the bound is flagged, one above the bound
fails. With --sets 2 the whole series runs twice on fresh seeds and
the two medians are compared against the bound as well.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    seed = args.first_seed
    report = {}
    for workload in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            values = {name: [] for name in bounds}
            for _ in range(args.runs):
                metrics = run_once(workload, seed, args.seconds)["metrics"]
                seed += 1
                for name in bounds:
                    values[name].append(metrics[name]["value"])
            print(f"\n{workload} (set {s + 1}, {args.runs} seeds)")
            print(f"{'metric':<22}{'median':>14}{'spread':>9}{'bound':>7}")
            set_medians = {}
            for name, vals in values.items():
                med, sp = spread(vals)
                set_medians[name] = med
                flag = ""
                if sp > bounds[name]:
                    flag, ok = "  FAIL", False
                elif sp > bounds[name] / 3:
                    flag = "  (above bound/3)"
                print(f"{name:<22}{med:>14.6g}{sp:>9.3f}"
                      f"{bounds[name]:>7.2f}{flag}")
            medians.append(set_medians)
            report.setdefault(workload, []).append(values)
        if len(medians) == 2:
            for m in spec["end_to_end"]:
                a, b = medians[0][m["name"]], medians[1][m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                if worse > m["bound"]:
                    ok = False
                    print(f"{workload} {m['name']}: second median worse "
                          f"by {worse:.3f} (> {m['bound']})")
    out = os.path.join(ROOT, ".bench_build", "out", "steadiness.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
