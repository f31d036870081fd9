#!/usr/bin/env python3
"""frsurf benchmark: one workload as a closed loop from one process, one client.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes the workload's pool of at least 100 inputs; the program
sees only those inputs.  Each op starts when the previous one has
returned and its output has been checked (checks run untimed).  The run
makes a fixed number of whole passes over the pool: ``--seconds`` over the
workload's pass time on the reference machine, rounded, and at least two.
An op's latency is the best of its passes, which filters out slowdowns of
the machine that are shorter than a pass; with the number of passes fixed,
every run filters alike.

--trace 0 prints the end-to-end metrics.  --trace 1 makes two untraced and
two traced passes, alternating, and prints the per-layer metrics instead;
end-to-end numbers never come from a traced pass.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 1 means an output check failed;
2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_PASSES = 2
SETUP_REPEATS = 3
CLI_PROBE_REPEATS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny pools, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class Tally:
    """Latencies, outcomes and checks of a sequence of ops."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies: list[float] = []
        self.best = [math.inf] * len(wl.items)  # per pool index
        self.statuses: Counter = Counter()
        self.failed = 0
        self.honest = 0
        self.failures: list[dict] = []
        self.check_errors: list[str] = []
        self.outputs = hashlib.sha256()  # of the first pass's outcomes
        self.seen: dict[bytes, bytes] = {}

    def add(self, index: int, item, checked, latency: float) -> None:
        """Record the op on pool entry ``index``."""
        first_pass = len(self.latencies) < len(self.best)
        self.latencies.append(latency)
        self.best[index] = min(self.best[index], latency)
        self.statuses.update(checked.statuses)
        self.honest += checked.honest
        line = json.dumps(checked.outcome, sort_keys=True, separators=(",", ":")).encode()
        if first_pass:
            self.outputs.update(line + b"\n")
        key = hashlib.sha256(self.wl.input_bytes(item)).digest()
        digest = hashlib.sha256(line).digest()
        if key not in self.seen:
            self.seen[key] = digest
            self.failures += checked.failed_runs
            self.check_errors += checked.check_errors
        differs = self.seen[key] != digest
        if differs:
            self.check_errors.append(f"op {index}: output differs from an earlier op on the same input")
        if checked.failed or differs:
            self.failed += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def drive(wl, tally, passes=1, recorder=None, child_spans=None):
    """Make ``passes`` whole passes over the pool; return the seconds in ops."""
    busy = 0.0
    for _ in range(passes):
        for index, item in enumerate(wl.items):
            if recorder is not None:
                recorder.op = index
            start = perf_counter()
            raw = wl.run(item)
            latency = perf_counter() - start
            busy += latency
            if recorder is not None:
                # Spans from the untimed check below fall outside every op.
                recorder.op = -1
                if child_spans is not None and os.path.exists(child_spans):
                    recorder.load(child_spans, index)
                    os.remove(child_spans)
            tally.add(index, item, wl.check(index, item, raw), latency)
    return busy


def _spawn_seconds(cmd, env=None) -> float:
    start = perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return perf_counter() - start


def setup_samples(args) -> list[float]:
    """Fresh-process set-ups: from spawn until the process is ready for its
    first timed op (imports, input generation, rendering, warm-up)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    if args.quick:
        cmd.append("--quick")
    samples = []
    for _ in range(1 if args.quick else SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            try:
                line = proc.stdout.readline()
                samples.append(perf_counter() - start)
                proc.stdout.read()
                proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return samples


def best_sum(*tallies) -> float:
    """Sum over the pool of each op's best latency across ``tallies``."""
    return sum(min(times) for times in zip(*(t.best for t in tallies)))


def p90(values):
    """Nearest-rank p90: at least n - ceil(0.9 n) samples lie beyond it."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(args, tally, setup, rss_mb):
    best, n = tally.best, len(tally.best)
    passes = f"each the best of {tally.attempted // n} passes"
    return {
        "ops_per_s": (n / best_sum(tally), "1/s", f"{n} ops in the pool, {passes}"),
        "op_p50_ms": (1000 * statistics.median(best), "ms", f"median of {n} ops, {passes}"),
        "op_p90_ms": (1000 * p90(best), "ms", f"{n} ops, {n - math.ceil(0.9 * n)} beyond"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh-process set-ups: "
                    + ", ".join(f"{s:.3f}" for s in setup)),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the CLI children" if args.workload == "cli_cold"
                        else "ru_maxrss of the benchmark process"),
    }


# Per-layer metrics that are not totals over the traced pass, so the report
# does not divide them by its op count.
NOT_TOTALS = {
    "graphs.exc_size_mean",
    "complements.verify_share",
    "complements.accept_ratio",
    "complements.minimal_complement.calls_per_germ",
    "fedder.e_reached",
    "padic.digits_per_s",
    "cli.interp_s",
    "cli.import_s",
    "corpus.random_corpus_s",
    "trace.overhead_share",
}

def per_layer(wl, totals, tally, cli_times, overhead_share):
    import workloads

    m = {}

    def total(name):
        return totals.get(name, {"calls": 0, "self_ns": 0, "notes": []})

    def calls_and_self(*names):
        for name in names:
            m[name + ".calls"] = (total(name)["calls"], "count")
            m[name + ".self_s"] = (total(name)["self_ns"] / 1e9, "s")

    calls_and_self("graphs.classify", "graphs.pullback_coefficients",
                   "graphs.is_negative_definite", "graphs.dot_against_exceptionals")
    sizes = wl.exc_sizes
    m["graphs.exc_size_mean"] = (sum(sizes) / len(sizes) if sizes else 0.0, "curves")

    calls_and_self("complements.minimal_complement", "complements.verify_complement")
    searches = total("complements.minimal_complement")
    verified = total("complements.verify_complement")["calls"]
    grid = sum(points for points, _found in searches["notes"])
    found = sum(1 for _points, ok in searches["notes"] if ok)
    germs = tally.attempted * wl.germs_per_op
    m["complements.grid_points"] = (grid, "count")
    m["complements.verify_share"] = (verified / grid if grid else 0.0, "ratio")
    m["complements.accept_ratio"] = (found / verified if verified else 0.0, "ratio")
    m["complements.minimal_complement.calls_per_germ"] = (
        searches["calls"] / germs if germs else 0.0, "count/germ")

    calls_and_self("bstar.gfr_certificate", "bstar.reverify_certificate",
                   "bstar.construct_bstar_nonplt", "bstar.verify_pfreg")
    m["bstar.payload_roundtrip.self_s"] = (total("bstar.payload_roundtrip")["self_ns"] / 1e9, "s")
    # Outcomes of the pipeline's (germ, prime) runs; fedder_deep has none.
    outcomes = tally.statuses if wl.germs_per_op else Counter()
    fails = Counter()
    for (stage, kind), count in outcomes.items():
        if stage != "certificate" and (stage, kind) != workloads.NO_COMPLEMENT:
            fails[workloads.fail_stage(stage)] += count
    m["bstar.outcome.certificate"] = (
        sum(c for (stage, _k), c in outcomes.items() if stage == "certificate"), "count")
    m["bstar.outcome.no_complement"] = (outcomes[workloads.NO_COMPLEMENT], "count")
    m["bstar.outcome.fail"] = (sum(fails.values()), "count")
    for stage in workloads.FAIL_STAGES:
        m["bstar.fail." + stage] = (fails[stage], "count")

    calls_and_self("fedder.test_at", "fedder.verify_witness", "fedder.is_globally_F_regular")
    m["fedder.e_reached"] = (max(total("fedder.test_at")["notes"], default=0), "e")

    calls_and_self("padic.exists_dominated_in_interval", "padic.binom_mod_p")
    search = total("padic.exists_dominated_in_interval")
    digits = sum(search["notes"])
    m["padic.digits_processed"] = (digits, "digits")
    m["padic.digits_per_s"] = (
        digits / (search["self_ns"] / 1e9) if search["self_ns"] else 0.0, "digits/s")

    calls_and_self("dgf.parse_germ")
    m["cli.interp_s"] = (cli_times[0], "s")
    m["cli.import_s"] = (cli_times[1] - cli_times[0], "s")
    m["corpus.random_corpus_s"] = (wl.random_corpus_s, "s")
    m["trace.overhead_share"] = (overhead_share, "ratio")
    return m


def cli_probe(quick):
    """Median seconds of a bare interpreter and of `import frsurf.cli`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    k = 1 if quick else CLI_PROBE_REPEATS
    bare = statistics.median(_spawn_seconds([sys.executable, "-c", "pass"]) for _ in range(k))
    cli = statistics.median(
        _spawn_seconds([sys.executable, "-c", "import frsurf.cli"], env) for _ in range(k)
    )
    return bare, cli


def print_outcomes(wl, tally, replay_path):
    print("outcomes by (stage, kind):")
    for (stage, kind), count in sorted(tally.statuses.items()):
        print(f"  {stage:<16} {kind:<24} {count}")
    print(f"fail_share     {tally.failed / tally.attempted:.6f}       "
          f"({tally.failed} of {tally.attempted} ops failed; {tally.honest} honest negatives)")
    if tally.failures:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(replay_path, "w", encoding="utf-8") as fh:
            for rec in tally.failures:
                fh.write(json.dumps(dict(rec, seed=wl.seed), sort_keys=True) + "\n")
        print(f"failures on distinct inputs: {len(tally.failures)}; records in "
              f"{os.path.relpath(replay_path, ROOT)}; replay with: {wl.replay_hint()}")
        # One entry per op and error, listing the primes it failed at.
        grouped: dict[tuple, list] = {}
        for rec in tally.failures:
            where = " ".join(f"{k}={rec[k]}" for k in ("op", "e", "germ") if k in rec)
            key = (where, rec["stage"], rec["kind"], rec["message"].splitlines()[-1], rec.get("dgf"))
            grouped.setdefault(key, []).append(str(rec.get("p", "-")))
        for (where, stage, kind, message, text), primes in grouped.items():
            print(f"  seed={wl.seed} {where} p={','.join(primes)} [{stage}/{kind}] {message}")
            if text:
                print("    " + text.rstrip("\n").replace("\n", "\n    "))
    print(f"output checks: {tally.attempted} ops checked, {len(tally.check_errors)} problems")
    for err in tally.check_errors[:20]:
        print("  CHECK FAILED: " + err)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "frsurf", "__init__.py")):
        print(f"error: no frsurf sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import frsurf

    if not os.path.abspath(frsurf.__file__).startswith(src + os.sep):
        print(f"error: imported frsurf from {frsurf.__file__}, not {src}", file=sys.stderr)
        return 2
    import spans
    import workloads

    try:
        wl = workloads.make(args.workload, args.seed, args.quick, ROOT)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl.setup()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    inputs = hashlib.sha256()
    for item in wl.items:
        inputs.update(hashlib.sha256(wl.input_bytes(item)).digest())
    print(f"frsurf benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"machine: {platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}")
    print(f"inputs_digest  {inputs.hexdigest()}  ({len(wl.items)} inputs in the pool)")
    tag = f"{args.workload}-seed{args.seed}"
    replay_path = os.path.join(OUT_DIR, f"failures-{tag}.jsonl")

    if args.trace == 0:
        tally = Tally(wl)
        passes = (tally,)
        busy = drive(wl, tally, max(MIN_PASSES, round(args.seconds / wl.pass_seconds)))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        metrics = end_to_end(args, tally, setup_samples(args), rss_mb)
        print(f"outputs_digest {tally.outputs.hexdigest()}  (first pass, {len(wl.items)} ops)")
        print(f"closed loop, one client; {tally.attempted} ops in {busy:.3f} s, "
              f"{tally.attempted // len(wl.items)} passes over the pool")
        for name, (value, unit, basis) in metrics.items():
            print(f"{name:<14} {value:<12.6g} {unit:<4} {basis}")
        print_outcomes(wl, tally, replay_path)
    else:
        child = None
        if args.workload == "cli_cold":
            os.makedirs(OUT_DIR, exist_ok=True)
            child = os.path.join(OUT_DIR, f"child-spans-{tag}.tsv")

        def traced_pass(tally):
            recorder = spans.SpanRecorder()
            if child:
                wl.traced_argv = [sys.executable, os.path.join(HERE, "spans.py"), child]
            recorder.patch(extra=[(workloads, "payload_roundtrip", "bstar.payload_roundtrip")])
            try:
                drive(wl, tally, recorder=recorder, child_spans=child)
            finally:
                recorder.unpatch()
                if child:
                    wl.traced_argv = None
            return recorder

        # Untraced and traced passes alternate, and the overhead compares the
        # best of two passes of each.  Per-layer numbers are the first traced
        # pass's.
        tally, untraced = Tally(wl), Tally(wl)
        drive(wl, untraced)
        recorder = traced_pass(tally)
        untraced2, traced2 = Tally(wl), Tally(wl)
        drive(wl, untraced2)
        traced_pass(traced2)
        passes = (untraced, tally, untraced2, traced2)
        os.makedirs(OUT_DIR, exist_ok=True)
        span_path = os.path.join(OUT_DIR, f"spans-{tag}.tsv")
        recorder.dump(span_path)
        totals = recorder.totals(range(tally.attempted))
        overhead = best_sum(tally, traced2) / best_sum(untraced, untraced2) - 1
        metrics = per_layer(wl, totals, tally, cli_probe(args.quick), overhead)
        print(f"outputs_digest {tally.outputs.hexdigest()}  (first traced pass, {len(wl.items)} ops)")
        print(f"untraced and traced passes alternate, two of each, over {len(wl.items)} ops; "
              f"{len(recorder.spans)} spans of the first traced pass in "
              f"{os.path.relpath(span_path, ROOT)}")
        n = tally.attempted
        print(f"{'metric':<52} {'per pass':>14} {'per op':>14}  unit")
        for name, (value, unit) in metrics.items():
            per_op = f"{'-':>14}" if name in NOT_TOTALS else f"{value / n:>14.6g}"
            print(f"{name:<52} {value:>14.6g} {per_op}  {unit}")
        print("outcomes of the first traced pass:")
        print_outcomes(wl, tally, replay_path)
        if len({t.outputs.digest() for t in passes}) != 1:
            tally.check_errors.append("traced and untraced passes gave different outputs")
        for t in (untraced, untraced2, traced2):
            tally.check_errors += t.check_errors
        metrics = {k: (v, u, "") for k, (v, u) in metrics.items()}

    result = {
        "correct": not tally.check_errors,
        "attempted": sum(t.attempted for t in passes),
        "failed": sum(t.failed for t in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _b) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
