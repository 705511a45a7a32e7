"""The pair-counting and claim rule of the A/B benchmark tool."""

import importlib.util
import json
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
    row = ab_bench.compare(better, [float(v) for v in parent], [float(v) for v in change])
    assert (row["won"], row["pairs"], row["gain_claimable"]) == (won, len(parent), claim == "yes")
    line = ab_bench.summarise("m", row)
    assert f"won {won}/{len(parent)}" in line
    assert line.endswith(f"gain claimable: {claim}")


def test_json_table_holds_what_the_tool_prints(tmp_path, monkeypatch, capsys):
    # stand-in runs: the change side is 10% faster on every pair and never
    # fails; the parent side fails one operation in its second pair
    calls = []

    def fake_run(command, tree, workload, seed, seconds):
        side = "parent" if tree != ab_bench.ROOT else "change"
        k = sum(c == (workload, side) for c in calls)
        calls.append((workload, side))
        wps = 100.0 + k + (10.0 if side == "change" else 0.0)
        metrics = {"windows_per_s": {"value": wps, "unit": "1/s"},
                   "peak_rss_mb": {"value": 70.0, "unit": "MB"}}
        failed = int(side == "parent" and k == 1)
        return {"correct": not failed, "attempted": 20, "failed": failed,
                "metrics": metrics, "env": {"numpy": "x", "side": side}}

    monkeypatch.setattr(ab_bench, "run_once", fake_run)
    monkeypatch.setattr(ab_bench, "export_tree", lambda ref, dest: None)
    monkeypatch.setattr(ab_bench, "resolve_commit", lambda ref: "f" * 40)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD~1", "--pairs", "10", "--workloads", "train_cvpe", "--json", str(out)]
    assert ab_bench.main(argv) == 0
    printed = capsys.readouterr().out
    table = json.loads(out.read_text())
    assert table["command"] == "python3 tools/ab_bench.py " + " ".join(argv)
    assert table["parent"] == {"ref": "HEAD~1", "commit": "f" * 40}
    assert (table["pairs"], table["seeds"]) == (10, [0])
    assert table["environment"] == {"numpy": "x", "side": "change"}
    cvpe = table["workloads"]["train_cvpe"]
    assert cvpe["failed"] == {"parent": {"failed": 1, "attempted": 200},
                              "change": {"failed": 0, "attempted": 200}}
    wps = cvpe["metrics"]["windows_per_s"]
    assert wps["parent"]["values"] == [100.0 + k for k in range(10)]
    assert wps["change"]["median"] == 114.5 and wps["parent"]["median"] == 104.5
    assert (wps["won"], wps["gain_claimable"]) == (10, True)
    rss = cvpe["metrics"]["peak_rss_mb"]
    assert (rss["won"], rss["relative_change"], rss["gain_claimable"]) == (0, 0.0, False)
    # the printed table says the same
    assert ab_bench.summarise("windows_per_s", wps) in printed
    assert ab_bench.summarise("peak_rss_mb", rss) in printed
