"""The pair-counting and claim rule of the A/B benchmark tool."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


def test_quartiles_of_one_run_are_that_run():
    assert ab_bench.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


@pytest.mark.parametrize(
    "better,parent,change,won,claim",
    [
        # nine wins of ten and a shift beyond the parent's quartile spread
        ("higher", [10, 11, 12, 10, 11, 12, 10, 11, 12, 11], [20, 21, 22, 20, 21, 22, 20, 21, 22, 9], 9, "yes"),
        # lower is better: the same runs read as losses
        ("lower", [10, 11, 12, 10, 11, 12, 10, 11, 12, 11], [20, 21, 22, 20, 21, 22, 20, 21, 22, 9], 1, "no"),
        # every pair won, but by less than the parent's spread
        ("higher", [10, 20] * 5, [11, 21] * 5, 10, "no"),
        # too few pairs to claim anything
        ("higher", [10, 11, 12, 11], [20, 21, 22, 21], 4, "no"),
        # ties count for neither side
        ("higher", [5, 5, 5, 5], [5, 5, 5, 6], 1, "no"),
    ],
)
def test_summary_counts_wins_and_applies_the_claim_rule(better, parent, change, won, claim):
    line = ab_bench.summarise("m", better, [float(v) for v in parent], [float(v) for v in change])
    assert f"won {won}/{len(parent)}" in line
    assert line.endswith(f"gain claimable: {claim}")
