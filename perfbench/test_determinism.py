#!/usr/bin/env python3
"""Determinism test of the benchmark.

    python3 perfbench/test_determinism.py [--workloads a,b] [--seconds 1]

For each workload: two traced runs with one seed must give identical
modeled metrics (sim_qps, sim_latency_us, scm_bytes_per_query, all
printed as attribution) and identical work counts
(engine.scored_docs_per_query, replay.memreqs_per_query,
decode.values_per_query); an untraced run with that seed must report
the same modeled metrics; and a run with a second seed must change
both the generated corpus and the queries. Exits non-zero on the
first mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("clueweb-saturated", "ccnews-4shard")
MODELED = ("sim_qps", "sim_latency_us", "scm_bytes_per_query")
COUNTS = ("engine.scored_docs_per_query", "replay.memreqs_per_query",
          "decode.values_per_query")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit "
                 f"{proc.returncode}")
    detail = json.loads(lines[-2].split(": ", 1)[1])
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"FAIL {workload} seed {seed}: output checks failed: "
                 f"{detail['errors']}")
    return detail, {k: v["value"] for k, v in result["metrics"].items()}


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    for w in args.workloads.split(","):
        d1, m1 = run(w, args.seed, args.seconds, 1)
        d2, m2 = run(w, args.seed, args.seconds, 1)
        du, mu = run(w, args.seed, args.seconds, 0)
        dx, _ = run(w, args.seed + 1, args.seconds, 0)
        for name in MODELED:
            key = "modeled." + name
            expect(d1[key] == d2[key], f"{w}: {name} repeats across traced "
                   f"runs ({d1[key]!r})")
            expect(mu[name] == d1[key], f"{w}: untraced {name} equals the "
                   f"traced run's")
        for name in COUNTS:
            expect(m1[name] == m2[name],
                   f"{w}: {name} repeats ({m1[name]!r})")
        for key in ("corpus_fingerprint", "queries_fingerprint"):
            expect(d1[key] == du[key], f"{w}: {key} repeats for one seed")
            expect(d1[key] != dx[key], f"{w}: {key} changes with the seed")
    print("determinism: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
