"""The section-8 verdicts `scripts/bench_pairs.py` records, on synthetic runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [100, 104, 96, 102, 98, 101, 99, 103, 97, 100]  # median 100, quartiles 98.25 and 101.75


def test_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_parents_iqr():
    faster = [p + 10 for p in PARENT]
    assert verdict(PARENT, faster, "higher", 0.25) == {"claim_ok": True, "within_bound": True}
    # one loss in ten still supports the claim; two do not
    one_loss = [90, *faster[1:]]
    assert verdict(PARENT, one_loss, "higher", 0.25)["claim_ok"]
    assert not verdict(PARENT, [90, 90, *faster[2:]], "higher", 0.25)["claim_ok"]
    # winning every pair by less than the parent's spread claims nothing
    assert not verdict(PARENT, [p + 1 for p in PARENT], "higher", 0.25)["claim_ok"]
    # a tie counts for neither side
    assert not verdict(PARENT, [PARENT[0], PARENT[1], *faster[2:]], "higher", 0.25)["claim_ok"]


def test_lower_is_better_metrics_and_the_bound():
    assert verdict(PARENT, [p - 10 for p in PARENT], "lower", 0.05)["claim_ok"]
    assert not verdict(PARENT, [p + 10 for p in PARENT], "lower", 0.25)["claim_ok"]
    # medians 100 -> 105 lower-is-better: within a 5% bound, not within 4%
    assert verdict(PARENT, [p + 5 for p in PARENT], "lower", 0.05)["within_bound"]
    assert not verdict(PARENT, [p + 5 for p in PARENT], "lower", 0.04)["within_bound"]
    # medians 100 -> 80 higher-is-better: outside a 0.1 bound, inside 0.25
    assert not verdict(PARENT, [p - 20 for p in PARENT], "higher", 0.1)["within_bound"]
    assert verdict(PARENT, [p - 20 for p in PARENT], "higher", 0.25)["within_bound"]
