#!/usr/bin/env python3
"""Compare two sets of bench_e2e results against BENCHMARK.json's bounds.

    python3 bench_e2e/compare.py --a base/*.jsonl --b head/*.jsonl

Each input file holds the lines `bench_e2e --json PATH` appends, one JSON
object per workload run: {"workload", "seed", "trace", "correct",
"attempted", "failed", "metrics"}. For every (workload, metric) pair found
on both sides it prints each side's median and quartiles and, for the
end-to-end metrics, a verdict:

  within-bound  B's median is not worse than A's by more than the bound
  worse         B's median is worse than A's by more than the bound
  better        A's spread exceeds the bound, but every B run beats every A run
  unresolved    A's spread (quartile distance over median) exceeds the bound

Per-layer metrics have no bound and get "-". The exit code is 1 when any
pair is worse or any run failed a correctness check, else 0.
"""

import argparse
import json
import os
import statistics
import sys


def load(paths):
    runs = {}
    bad = 0
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if not rec.get("correct", False):
                    bad += 1
                for name, m in rec["metrics"].items():
                    if m["value"] is not None:
                        runs.setdefault((rec["workload"], name), []).append(m["value"])
    return runs, bad


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(a, b, bound, better):
    a_med, a_q1, a_q3 = summary(a)
    b_med = statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / a_med
    if (a_q3 - a_q1) / a_med > bound:
        beats = all(sign * (x - y) < 0 for x in b for y in a)
        return "better" if beats else "unresolved"
    return "worse" if worse_by > bound else "within-bound"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", nargs="+", required=True, help="baseline result files")
    parser.add_argument("--b", nargs="+", required=True, help="candidate result files")
    parser.add_argument("--bench", default=os.path.join(here, "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.bench) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    a_runs, a_bad = load(args.a)
    b_runs, b_bad = load(args.b)

    fmt = "{:<18} {:<26} {:>30} {:>30} {:>8} {:>6}  {}"
    print(fmt.format("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
                     "change", "bound", "verdict"))
    worse = 0
    for key in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[key], b_runs[key]
        m = spec.get(key[1])
        a_med, a_q1, a_q3 = summary(a)
        b_med, b_q1, b_q3 = summary(b)
        change = (b_med - a_med) / a_med if a_med else float("nan")
        v = verdict(a, b, m["bound"], m["better"]) if m and a_med else "-"
        worse += v == "worse"
        print(fmt.format(key[0], key[1],
                         f"{a_med:.5g} [{a_q1:.5g}, {a_q3:.5g}]",
                         f"{b_med:.5g} [{b_q1:.5g}, {b_q3:.5g}]",
                         f"{change:+.1%}", f"{m['bound']:.2f}" if m else "-", v))
    if a_bad or b_bad:
        print(f"runs failing a correctness check: A {a_bad}, B {b_bad}")
    return 1 if worse or a_bad or b_bad else 0


if __name__ == "__main__":
    sys.exit(main())
