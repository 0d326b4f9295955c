"""The verdict rule of tools/bench_pairs.py on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def judge(base, change, bound=0.1, sign=1.0):
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    return bench_pairs.verdict(
        bench_pairs.summary(base), bench_pairs.summary(change), wins, bound, sign
    )


@pytest.mark.parametrize(
    "change, sign, want",
    [
        ([v * 1.2 for v in BASE], 1.0, "past bound"),  # 20 % slower, bound 10 %
        ([v * 0.8 for v in BASE], -1.0, "past bound"),  # 20 % lower where higher is better
        ([v * 1.05 for v in BASE], 1.0, "within bound"),
        ([v * 0.8 for v in BASE], 1.0, "gain"),
        ([v * 0.8 for v in BASE[:8]] + [2.0, 2.0], 1.0, "within bound"),  # won 8 of 10 pairs
        ([v - 0.005 for v in BASE], 1.0, "within bound"),  # won every pair, by less than the IQR
    ],
)
def test_verdict(change, sign, want):
    assert judge(BASE, change, sign=sign) == want


def test_wide_base_spread_is_unresolved_unless_every_change_run_is_better():
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
    assert judge(wide, [1.0] * 10) == "unresolved"
    assert judge(wide, [0.5] * 10) == "gain"
    # every change run below every base run, by less than the base's IQR (0.5)
    skewed = [1.0] * 5 + [1.5] * 5
    assert judge(skewed, [0.99] * 10) == "within bound"
