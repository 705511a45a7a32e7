"""The pair counting, the regression verdict and the claim rule of the A/B
benchmark tool."""

import importlib.util
import json
import sys
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
    row = ab_bench.compare(better, 0.25, [float(v) for v in parent], [float(v) for v in change])
    assert (row["won"], row["pairs"], row["gain_claimable"]) == (won, len(parent), claim == "yes")
    line = ab_bench.summarise("m", row)
    assert f"won {won}/{len(parent)}" in line
    assert line.endswith(f"gain claimable: {claim}")


@pytest.mark.parametrize(
    "better,parent,change,verdict",
    [
        # the median falls 30% where higher is better, beyond a 25% bound
        ("higher", [100, 101, 102, 99, 100], [70, 71, 72, 69, 70], "yes"),
        # the median moves 5%, and the parent's spread is inside the bound
        ("lower", [100, 101, 102, 99, 100], [105, 106, 107, 104, 105], "no"),
        # the parent's runs spread 50% of their median, and the median moves
        # only 10%, so the pairs cannot tell a 25% regression from noise
        ("higher", [50, 75, 100, 125, 150], [60, 85, 110, 135, 90], "unresolved"),
        # the same spread, but every change run beats every parent run
        ("lower", [50, 75, 100, 125, 150], [40, 41, 42, 43, 44], "no"),
    ],
)
def test_regression_verdict_reads_the_bound(better, parent, change, verdict):
    row = ab_bench.compare(better, 0.25, [float(v) for v in parent], [float(v) for v in change])
    assert row["regression"] == verdict
    line = ab_bench.summarise("m", row)
    assert f"regression: {verdict}" in line
    assert ("parent spread" in line) == (verdict == "unresolved")


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
    assert (wps["won"], wps["gain_claimable"], wps["regression"]) == (10, True, "no")
    rss = cvpe["metrics"]["peak_rss_mb"]
    assert (rss["won"], rss["relative_change"], rss["gain_claimable"]) == (0, 0.0, False)
    # the printed table says the same
    assert ab_bench.summarise("windows_per_s", wps) in printed
    assert ab_bench.summarise("peak_rss_mb", rss) in printed


def test_a_failed_run_is_recorded_and_the_others_go_on(tmp_path, monkeypatch, capsys):
    # the change side's pair 1 times out and the parent side's pair 3 prints
    # no JSON; the other eight pairs are compared, and the tool exits 1
    calls = []

    def fake_run(command, tree, workload, seed, seconds):
        side = "parent" if tree != ab_bench.ROOT else "change"
        k = sum(c == side for c in calls)
        calls.append(side)
        if (side, k) == ("change", 1):
            raise ab_bench.RunFailed("timed out after 900 s", None, b"step 1\nstep 2\n")
        if (side, k) == ("parent", 3):
            raise ab_bench.RunFailed("ended without a JSON object line", 1, "Traceback\nValueError: x\n")
        metrics = {"peak_rss_mb": {"value": 70.0 - 10.0 * (side == "change"), "unit": "MB"}}
        return {"correct": True, "attempted": 20, "failed": 0, "metrics": metrics, "env": None}

    monkeypatch.setattr(ab_bench, "run_once", fake_run)
    monkeypatch.setattr(ab_bench, "export_tree", lambda ref, dest: None)
    monkeypatch.setattr(ab_bench, "resolve_commit", lambda ref: "f" * 40)
    out = tmp_path / "bench.json"
    argv = ["--pairs", "10", "--workloads", "infer_wide", "--json", str(out)]
    assert ab_bench.main(argv) == 1
    printed = capsys.readouterr().out
    wide = json.loads(out.read_text())["workloads"]["infer_wide"]
    assert wide["failed_runs"] == {
        "parent": [{"pair": 3, "seed": 0, "ended": "ended without a JSON object line",
                    "exit_code": 1, "stderr_tail": ["Traceback", "ValueError: x"]}],
        "change": [{"pair": 1, "seed": 0, "ended": "timed out after 900 s",
                    "exit_code": None, "stderr_tail": ["step 1", "step 2"]}],
    }
    assert wide["failed"] == {"parent": {"failed": 0, "attempted": 180},
                              "change": {"failed": 0, "attempted": 180}}
    assert wide["metrics"]["peak_rss_mb"]["pairs"] == 8
    assert "failed runs parent 1, change 1" in printed
    assert "failed run: change pair 1 seed 0: timed out after 900 s, exit code None" in printed
    assert "    ValueError: x" in printed


@pytest.mark.parametrize(
    "outcome,ended",
    [
        ("timeout", "timed out after 900 s"),
        ("", "printed nothing"),
        ("a line\nnot json\n", "ended without a JSON object line"),
        ("3\n", "ended without a JSON object line"),
    ],
)
def test_run_once_names_how_a_failed_run_ended(monkeypatch, outcome, ended):
    stderr = "".join(f"line {i}\n" for i in range(8))

    def fake_subprocess_run(args, timeout, **kwargs):
        if outcome == "timeout":
            raise ab_bench.subprocess.TimeoutExpired(args, timeout, stderr=stderr.encode())
        return ab_bench.subprocess.CompletedProcess(args, 1, stdout=outcome, stderr=stderr)

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_subprocess_run)
    with pytest.raises(ab_bench.RunFailed) as caught:
        ab_bench.run_once(["bench"], Path("."), "infer_wide", 0, 30)
    assert caught.value.ended == ended
    assert caught.value.exit_code == (None if outcome == "timeout" else 1)
    assert caught.value.stderr_tail == [f"line {i}" for i in range(3, 8)]


@pytest.mark.parametrize(
    "parent,change,diff",
    [
        ({"loss": 4.25, "mse": 2.0}, {"loss": 4.25, "mse": 2.0}, 0.0),
        ({"loss": 4.0, "mse": 2.0}, {"loss": 4.0, "mse": 2.0 + 2e-12}, 1e-12),
        # a value one side lacks, or one that is not a number, moved without measure
        ({"loss": 4.0}, {"loss": 4.0, "mse": 2.0}, float("inf")),
        ({"loss": 4.0}, {"loss": "4.0"}, float("inf")),
        # a run that observed nothing cannot be compared
        (None, {"loss": 4.0}, None),
    ],
)
def test_relative_difference_of_observed_values(parent, change, diff):
    got = ab_bench.relative_difference(parent, change)
    if diff is None or diff in (0.0, float("inf")):
        assert got == diff
    else:
        assert got == pytest.approx(diff, rel=1e-3)


def test_observed_values_are_read_from_the_runs_result_file(tmp_path):
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    (out / "result_infer_wide_seed1_trace0_full.json").write_text(
        json.dumps({"correct": True, "observed": {"cvpe.mse": 5.5}}))
    assert ab_bench.read_observed(tmp_path, "infer_wide", 1) == {"cvpe.mse": 5.5}
    # another seed's file, or none at all, gives nothing
    assert ab_bench.read_observed(tmp_path, "infer_wide", 0) is None
    (out / "result_infer_wide_seed0_trace0_full.json").write_text("{not json")
    assert ab_bench.read_observed(tmp_path, "infer_wide", 0) is None


def test_outputs_are_compared_per_workload_and_seed(tmp_path, monkeypatch, capsys):
    # the change observes the parent's values, except a moved loss in its
    # second pair on seed 1 and nothing at all in the third pair on seed 0
    calls = []

    def fake_run(command, tree, workload, seed, seconds):
        side = "parent" if tree != ab_bench.ROOT else "change"
        pair = sum(c == (side, seed) for c in calls)
        calls.append((side, seed))
        observed = {"loss_at_step_20": 4.0 + seed, "steps": 20}
        if side == "change" and (pair, seed) == (1, 1):
            observed["loss_at_step_20"] *= 1 + 3e-15
        if side == "change" and (pair, seed) == (2, 0):
            observed = None
        metrics = {"windows_per_s": {"value": 100.0, "unit": "1/s"}}
        return {"correct": True, "attempted": 20, "failed": 0, "metrics": metrics,
                "env": None, "observed": observed}

    monkeypatch.setattr(ab_bench, "run_once", fake_run)
    monkeypatch.setattr(ab_bench, "export_tree", lambda ref, dest: None)
    monkeypatch.setattr(ab_bench, "resolve_commit", lambda ref: "f" * 40)
    out = tmp_path / "bench.json"
    argv = ["--pairs", "3", "--seeds", "0", "1", "--workloads", "train_cvpe", "--json", str(out)]
    assert ab_bench.main(argv) == 0
    printed = capsys.readouterr().out
    outputs = json.loads(out.read_text())["workloads"]["train_cvpe"]["outputs"]
    assert outputs["0"] == {"pairs": 3, "identical": 2, "moved": 0, "unobserved": 1, "max_rel_diff": 0.0}
    assert {k: v for k, v in outputs["1"].items() if k != "max_rel_diff"} == {
        "pairs": 3, "identical": 2, "moved": 1, "unobserved": 0}
    assert outputs["1"]["max_rel_diff"] == pytest.approx(3e-15, rel=0.2)
    assert "  outputs seed 0: identical in 2/3 pairs; not observed in 1\n" in printed
    assert "  outputs seed 1: identical in 2/3 pairs; moved in 1, largest relative difference 3" in printed


def test_a_run_records_the_cpu_its_process_burnt(tmp_path):
    # a stand-in benchmark that spins for about 0.2 s of CPU, then prints its
    # JSON line; the tool's own arguments land in its sys.argv
    burn = ("import json, time\n"
            "end = time.process_time() + 0.2\n"
            "while time.process_time() < end:\n"
            "    pass\n"
            "print(json.dumps({'metrics': {}}))\n")
    result = ab_bench.run_once([sys.executable, "-c", burn], tmp_path, "train_cvpe", 0, 1)
    host = result["host"]
    assert host["cpu_s"] >= 0.2
    assert isinstance(host["nivcsw"], int) and host["nivcsw"] >= 0
    assert host["steal_ticks"] is None or host["steal_ticks"] >= 0


@pytest.mark.parametrize(
    "stat,ticks",
    [
        # user nice system idle iowait irq softirq steal guest guest_nice
        ("cpu  2760031 0 65400 3446427 356 0 1140 54912 0 0\n"
         "cpu0 1382249 0 32268 1721317 233 0 578 27419 0 0\nintr 1 2\n", 54912),
        # a kernel that counts no steal, and a file without the cpu line
        ("cpu  2760031 0 65400 3446427 356 0 1140\n", None),
        ("intr 1 2\n", None),
    ],
)
def test_steal_ticks_are_read_from_the_aggregate_cpu_line(tmp_path, stat, ticks):
    path = tmp_path / "stat"
    path.write_text(stat)
    assert ab_bench.steal_ticks(path) == ticks
    # a file that cannot be read gives None too
    assert ab_bench.steal_ticks(tmp_path / "missing") is None


def test_host_records_are_printed_per_run_and_as_medians(tmp_path, monkeypatch, capsys):
    # the parent side's runs are switched out 10, 20 and 30 times; the
    # change side could not read /proc/stat in its second run; the third run
    # of each side had 2,000 ticks stolen, the parent's second only 5
    calls = []

    def fake_run(command, tree, workload, seed, seconds):
        side = "parent" if tree != ab_bench.ROOT else "change"
        k = sum(c == side for c in calls)
        calls.append(side)
        host = {"cpu_s": 30.0 + k, "nivcsw": 10 * (k + 1) if side == "parent" else 0,
                "steal_ticks": None if (side, k) == ("change", 1) else [0, 5, 2000][k]}
        metrics = {"windows_per_s": {"value": 100.0, "unit": "1/s"}}
        return {"correct": True, "attempted": 20, "failed": 0, "metrics": metrics, "env": None,
                "host": host}

    monkeypatch.setattr(ab_bench, "run_once", fake_run)
    monkeypatch.setattr(ab_bench, "export_tree", lambda ref, dest: None)
    monkeypatch.setattr(ab_bench, "resolve_commit", lambda ref: "f" * 40)
    out = tmp_path / "bench.json"
    argv = ["--pairs", "3", "--workloads", "train_vanilla", "--json", str(out)]
    assert ab_bench.main(argv) == 0
    printed = capsys.readouterr().out
    host = json.loads(out.read_text())["workloads"]["train_vanilla"]["host"]
    assert host["parent"]["medians"] == {"cpu_s": 31.0, "nivcsw": 20, "steal_ticks": 5}
    assert host["change"]["medians"] == {"cpu_s": 31.0, "nivcsw": 0, "steal_ticks": 1000.0}
    assert [r["steal_ticks"] for r in host["change"]["runs"]] == [0, None, 2000]
    assert "train_vanilla change: failed 0/20 windows_per_s=100 cpu_s=31 nivcsw=0 steal_ticks=None" in printed
    assert ("  host medians: parent cpu_s=31 nivcsw=20 steal_ticks=5; "
            "change cpu_s=31 nivcsw=0 steal_ticks=1000") in printed
    # a run whose steal ticks exceed 1% of its CPU ticks is marked, and each
    # side's marked runs are counted
    assert [r["disturbed"] for r in host["parent"]["runs"]] == [False, False, True]
    assert [r["disturbed"] for r in host["change"]["runs"]] == [False, False, True]
    assert (host["parent"]["disturbed"], host["change"]["disturbed"]) == (1, 1)
    assert "train_vanilla parent: failed 0/20 windows_per_s=100 cpu_s=32 nivcsw=30 steal_ticks=2000 disturbed" in printed
    assert "train_vanilla parent: failed 0/20 windows_per_s=100 cpu_s=31 nivcsw=20 steal_ticks=5\n" in printed
    assert "train_vanilla parent: failed 0/20 windows_per_s=100 cpu_s=30 nivcsw=10 steal_ticks=0\n" in printed
    assert "  disturbed runs (steal_ticks > 1% of cpu ticks): parent 1/3, change 1/3" in printed


@pytest.mark.parametrize(
    "host,marked",
    [
        # records of a committed 20-pair table on a shared host: a few ticks
        # in a quiet run, over a thousand in a run the host slowed
        ({"cpu_s": 57.8, "nivcsw": 900, "steal_ticks": 15.5}, False),
        ({"cpu_s": 42.6, "nivcsw": 900, "steal_ticks": 1229}, True),
        ({"cpu_s": 42.6, "nivcsw": 900, "steal_ticks": None}, False),
        (None, False),
    ],
)
def test_a_run_is_disturbed_above_one_percent_of_its_cpu_ticks(host, marked):
    assert ab_bench.disturbed(host) is marked


def test_each_workload_and_seed_runs_each_side_first_in_half_its_pairs(monkeypatch):
    calls = []

    def fake_run(command, tree, workload, seed, seconds):
        calls.append((workload, seed, "parent" if tree != ab_bench.ROOT else "change"))
        metrics = {"windows_per_s": {"value": 100.0, "unit": "1/s"}}
        return {"correct": True, "attempted": 20, "failed": 0, "metrics": metrics, "env": None}

    monkeypatch.setattr(ab_bench, "run_once", fake_run)
    monkeypatch.setattr(ab_bench, "export_tree", lambda ref, dest: None)
    monkeypatch.setattr(ab_bench, "resolve_commit", lambda ref: "f" * 40)
    workloads = ["train_cvpe", "train_vanilla", "infer_wide"]
    assert ab_bench.main(["--pairs", "4", "--seeds", "0", "1", "--workloads", *workloads]) == 0
    # the runs come in sides of one (workload, seed) slot at a time
    firsts = [calls[i] for i in range(0, len(calls), 2)]
    assert all(calls[i][:2] == calls[i + 1][:2] for i in range(0, len(calls), 2))
    for workload in workloads:
        for seed in (0, 1):
            sides = [side for w, s, side in firsts if (w, s) == (workload, seed)]
            assert len(sides) == 4 and sides.count("parent") == 2, (workload, seed, sides)
