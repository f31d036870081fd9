"""Smoke test for the benchmark itself; it is not part of the frsurf suite.

    python -m pytest perfbench/test_perfbench.py -q

Each workload runs at a tiny size, untraced and traced.  The test checks
that the last line of output names every metric of BENCHMARK.json with its
unit, that the output checks ran on every op, and that the checks catch a
wrong certificate and a wrong witness.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(workload, trace):
    report, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    text = "\n".join(report)
    assert "inputs_digest" in text and "outputs_digest" in text
    assert "outcomes by (stage, kind):" in text
    assert "fail_share" in text
    checked = [line for line in report if line.startswith("output checks:")]
    assert checked and checked[0].split()[2] == str(
        result["attempted"] // 4 if trace else result["attempted"]
    )
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_digests():
    first, _ = run_bench("corpus_pipeline", 0, seed=5)
    second, _ = run_bench("corpus_pipeline", 0, seed=5)
    digests = [[line.split()[1] for line in r if line.split()[0].endswith("_digest")]
               for r in (first, second)]
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def test_check_catches_a_wrong_certificate():
    wl = workloads.make("corpus_pipeline", 1, True, ROOT)
    wl.setup()
    text = wl.items[7]  # plt_fork_level6
    pair, runs = wl.run(text)
    assert not wl.check(7, text, (pair, runs)).failed
    p, cert, payload, back, _problems = runs[0]
    forged = dataclasses.replace(back, level=4)
    from frsurf import bstar

    problems = bstar.reverify_certificate(pair, forged)
    assert problems
    checked = wl.check(7, text, (pair, [(p, cert, payload, forged, problems)]))
    assert checked.failed and checked.check_errors
    assert checked.statuses == [("check", "check")]


def test_check_catches_a_wrong_witness():
    wl = workloads.make("fedder_deep", 1, True, ROOT)
    wl.setup()
    item = wl.items[0]
    a, cert, ok = wl.run(item)
    assert ok and not wl.check(0, item, (a, cert, ok)).failed
    checked = wl.check(0, item, (a, cert, False))
    assert checked.failed and checked.statuses == [("check", "check")]


def test_without_sources_it_fails_without_a_result(tmp_path):
    os.mkdir(tmp_path / "perfbench")
    for name in ("run.py", "workloads.py", "spans.py"):
        with open(os.path.join(HERE, name), encoding="utf-8") as src:
            (tmp_path / "perfbench" / name).write_text(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus_pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
