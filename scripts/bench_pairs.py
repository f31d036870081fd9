#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and write a BENCH_<n>.json.

usage: python scripts/bench_pairs.py PARENT CHANGE OUT --workloads W[,W...]
           --seeds S,S[,S...]   (at least two seeds)

PARENT and CHANGE are checkouts (each with its own perfbench/ and src/).  For
every workload and seed, `perfbench/run.py --trace 0` runs once in each,
alternating which side runs first, for the `run_seconds` of CHANGE's
BENCHMARK.json.  OUT records, per workload and per end-to-end metric of that
file, each side's median and quartiles (inclusive method) and the pairs the
change wins (ties count for neither), and every run's value in seed order;
also failed ops, incorrect runs, pairs with equal outputs_digest, the seeds,
the pair count and the machine.  Beside each metric's numbers it records the
two verdicts of `verdict`: whether they support a claimed gain, and whether
the change stays within the metric's bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def verdict(parent, change, better, bound):
    """`claim_ok`: the change wins at least 9 in 10 pairs (runs at the same
    index; ties count for neither), and its median is better than the
    parent's by more than the parent's interquartile range.  `within_bound`:
    the change's median is worse than the parent's by at most `bound`, a
    fraction of the parent's median."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, p_median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_median = statistics.median(change)
    return {
        "claim_ok": 10 * wins >= 9 * len(parent) and sign * (c_median - p_median) > q3 - q1,
        "within_bound": sign * (c_median - p_median) >= -bound * abs(p_median),
    }


def run(checkout, workload, seed, seconds):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 2: the benchmark could not run
        raise SystemExit(f"{checkout}: {workload} seed {seed}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("outputs_digest"))
    return json.loads(lines[-1]), digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for name in ("parent", "change", "out"):
        ap.add_argument(name)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec, seconds = bench["end_to_end"], bench["run_seconds"]
    report = {"machine": {"cpu": platform.processor() or platform.machine(),
                          "nproc": os.cpu_count(), "python": platform.python_version()},
              "seconds": seconds, "seeds": seeds, "pairs": len(seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs, same_digest = {"parent": [], "change": []}, 0
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: run(getattr(args, side), workload, seed, seconds) for side in order}
            same_digest += pair["parent"][1] == pair["change"][1]
            for side in order:
                runs[side].append(pair[side][0])
        row = {"failed": {s: sum(r["failed"] for r in rs) for s, rs in runs.items()},
               "incorrect": {s: sum(not r["correct"] for r in rs) for s, rs in runs.items()},
               "outputs_digest_equal": same_digest}
        for m in spec:
            values = {s: [r["metrics"][m["name"]]["value"] for r in rs] for s, rs in runs.items()}
            sign = 1 if m["better"] == "higher" else -1
            row[m["name"]] = {"unit": m["unit"], "better": m["better"], **{
                s: dict(zip(("q1", "median", "q3"),
                            statistics.quantiles(v, n=4, method="inclusive")))
                for s, v in values.items()}, "runs": values, "change_wins": sum(
                sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
                **verdict(values["parent"], values["change"], m["better"], m["bound"])}
        report["workloads"][workload] = row
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
