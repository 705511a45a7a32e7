"""Paired A/B runs of the repository benchmark: a parent commit against the working tree.

    python3 tools/ab_bench.py --parent HEAD --pairs 10 --seeds 3 [--workloads infer_wide] \
        [--json BENCH.json]

The committed files of ``--parent`` are exported (``git archive``) into a
temporary directory, so the repository's own state is left untouched.  Then,
for each pair, seed and workload, the benchmark command from
``BENCHMARK.json`` runs with ``--trace 0`` for the benchmark's
``run_seconds`` once on the parent copy and once on the working tree.  The
parent goes first in even pairs and the change in odd ones, so each
workload and seed runs each side first in half of its pairs.  Every run
prints one line as it finishes.  At the end, for each workload and end-to-end metric, the table
gives each side's median and quartiles, the share of pairs the change won
(ties count for neither), whether the metric regressed, and whether a gain
may be claimed.  The regression verdict uses the metric's ``bound`` from
``BENCHMARK.json``: ``yes`` if the change's median is worse than the
parent's by more than the bound (relative to the parent's median);
otherwise ``unresolved`` if the parent's quartile spread, relative to its
median, exceeds the bound and not every change run beats every parent run;
otherwise ``no``.  A gain may be claimed if at least ten pairs ran, the
change won at least nine tenths of them, and the medians differ by more
than the distance between the parent's quartiles.  After each run the tool
reads the ``observed`` values (the results the benchmark checks against its
reference) from that side's ``perfbench/out`` result file, and for each
workload and seed it says whether parent and change observed identical
values in every pair, or else the largest relative difference.  A run that
times out, prints nothing or does not end with a JSON object line is a
failed run of its side: it is printed with its exit code, how it ended and
the last lines of its stderr, its pair is left out of the comparison, the
other runs go on, and the tool exits 1 at the end.  Around each run the
tool also records what the host did: the CPU seconds and involuntary context
switches of the run's process and the children it waited for
(``getrusage(RUSAGE_CHILDREN)``), and the steal ticks of ``/proc/stat``'s
``cpu`` line (None where that file cannot be read).  A run that was switched
out or had its CPU stolen shows there; each run's line prints them, and the
table gives each side's medians.  A run whose steal ticks exceed
``DISTURBED_STEAL_SHARE`` (1%) of the CPU ticks of its children
(``cpu_s`` times ``SC_CLK_TCK``) is marked ``disturbed`` on its line and in
its host record, and the table gives each side's count of such runs per
workload.  A shared host steals a few ticks in almost every 30 s run
(medians of 4 to 15.5 in a committed 20-pair table), and the runs it really
slowed lost over 1,200.  With ``--json PATH`` the same table, each run's
values and host record, the failed operations and runs, the command, the
parent commit and the benchmark's environment line are also written to
``PATH``.

Nothing under ``perfbench/`` or in ``BENCHMARK.json`` is written, except the
result files the benchmark itself leaves in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
CLAIM_WIN_SHARE = 0.9
CLAIM_MIN_PAIRS = 10
STDERR_TAIL_LINES = 5
HOST_FIELDS = ("cpu_s", "nivcsw", "steal_ticks")
# a run is disturbed when its steal ticks exceed this share of its CPU ticks
DISTURBED_STEAL_SHARE = 0.01


class RunFailed(Exception):
    """A benchmark run that gave no result: how it ended, its exit code (None
    after a timeout) and the last lines of its stderr."""

    def __init__(self, ended: str, exit_code: int | None, stderr: str | bytes | None):
        if isinstance(stderr, bytes):
            stderr = stderr.decode(errors="replace")
        super().__init__(f"{ended}, exit code {exit_code}")
        self.ended = ended
        self.exit_code = exit_code
        self.stderr_tail = (stderr or "").strip().splitlines()[-STDERR_TAIL_LINES:]

    def record(self, pair: int, seed: int) -> dict:
        return {"pair": pair, "seed": seed, "ended": self.ended, "exit_code": self.exit_code,
                "stderr_tail": self.stderr_tail}


def resolve_commit(ref: str) -> str:
    """The full hash of the commit ``ref`` names."""
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()


def export_tree(ref: str, dest: Path) -> None:
    """Write the committed files of ``ref`` into ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def steal_ticks(stat: Path = Path("/proc/stat")) -> int | None:
    """The host's steal ticks so far: the eighth number of the aggregate
    ``cpu`` line of ``stat``, or None if the file cannot be read or has no
    such field."""
    try:
        lines = stat.read_text().splitlines()
    except OSError:
        return None
    for fields in map(str.split, lines):
        if fields and fields[0] == "cpu":
            return int(fields[8]) if len(fields) > 8 and fields[8].isdigit() else None
    return None


def host_since(usage: resource.struct_rusage, steal: int | None) -> dict:
    """What the host did since ``usage`` (a ``getrusage(RUSAGE_CHILDREN)``)
    and ``steal`` (``steal_ticks()``) were read: the CPU seconds and
    involuntary context switches of the children waited for since, and the
    steal ticks, None if either reading of them is."""
    now, steal_now = resource.getrusage(resource.RUSAGE_CHILDREN), steal_ticks()
    return {
        "cpu_s": now.ru_utime + now.ru_stime - usage.ru_utime - usage.ru_stime,
        "nivcsw": now.ru_nivcsw - usage.ru_nivcsw,
        "steal_ticks": None if steal is None or steal_now is None else steal_now - steal,
    }


def disturbed(host: dict | None) -> bool:
    """Whether the host took CPU from a run: its record counts more steal
    ticks than ``DISTURBED_STEAL_SHARE`` of the CPU ticks its children
    burnt.  A record without steal ticks is quiet."""
    if not host or host.get("steal_ticks") is None:
        return False
    return host["steal_ticks"] > DISTURBED_STEAL_SHARE * host["cpu_s"] * os.sysconf("SC_CLK_TCK")


def run_once(command: list[str], tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns its final JSON line, with its environment
    line under ``env`` (None if it printed none), the ``observed`` values
    of the result file it wrote (None if there are none) and what the host
    did during the run under ``host`` (see ``host_since``).  Raises
    ``RunFailed`` when the run times out, prints nothing or does not end with
    a JSON object."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    timeout = 10 * seconds + 600
    usage, steal = resource.getrusage(resource.RUSAGE_CHILDREN), steal_ticks()
    try:
        done = subprocess.run(args, cwd=tree, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"timed out after {timeout:g} s", None, exc.stderr) from None
    host = host_since(usage, steal)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RunFailed("printed nothing", done.returncode, done.stderr)
    env_tag = f"{workload}  env "
    try:
        result = json.loads(lines[-1])
        env = next((json.loads(l[len(env_tag):]) for l in lines if l.startswith(env_tag)), None)
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise RunFailed("ended without a JSON object line", done.returncode, done.stderr)
    return result | {"env": env, "observed": read_observed(tree, workload, seed), "host": host}


def read_observed(tree: Path, workload: str, seed: int) -> dict | None:
    """The ``observed`` values of the result file a ``--trace 0`` run of the
    full-size workload leaves in ``tree``, or None if it has none."""
    path = tree / "perfbench" / "out" / f"result_{workload}_seed{seed}_trace0_full.json"
    try:
        observed = json.loads(path.read_text())["observed"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return observed if isinstance(observed, dict) else None


def relative_difference(parent: dict | None, change: dict | None) -> float | None:
    """The largest relative difference between two runs' observed values: 0.0
    when they are identical, inf when a value is missing on one side or is
    not a number, and None when either run observed nothing."""
    if parent is None or change is None:
        return None
    if parent == change:
        return 0.0
    largest = 0.0
    for key in parent.keys() | change.keys():
        p, c = parent.get(key), change.get(key)
        if not all(isinstance(x, (int, float)) for x in (p, c)):
            return float("inf")
        if p != c:
            largest = max(largest, abs(c - p) / abs(p) if p else float("inf"))
    return largest


def compare_outputs(seeds: list[int], parent: list[dict | None], change: list[dict | None]) -> dict:
    """Per seed: the pairs with results on both sides, how many observed
    identical values, how many moved and by how much at most, and how many
    could not be compared because a side observed nothing.  Runs are listed
    pair by pair, seed by seed."""
    by_seed = {str(seed): {"pairs": 0, "identical": 0, "moved": 0, "unobserved": 0,
                           "max_rel_diff": 0.0} for seed in seeds}
    for i, (p, c) in enumerate(zip(parent, change)):
        if not (p and c):
            continue
        row = by_seed[str(seeds[i % len(seeds)])]
        row["pairs"] += 1
        diff = relative_difference(p.get("observed"), c.get("observed"))
        if diff is None:
            row["unobserved"] += 1
        elif diff == 0.0:
            row["identical"] += 1
        else:
            row["moved"] += 1
            row["max_rel_diff"] = max(row["max_rel_diff"], diff)
    return by_seed


def summarise_outputs(seed: str, row: dict) -> str:
    """``compare_outputs``' result for one seed as one printed line."""
    line = f"  outputs seed {seed}: identical in {row['identical']}/{row['pairs']} pairs"
    if row["moved"]:
        line += f"; moved in {row['moved']}, largest relative difference {row['max_rel_diff']:.3g}"
    if row["unobserved"]:
        line += f"; not observed in {row['unobserved']}"
    return line


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(better: str, bound: float, parent: list[float], change: list[float]) -> dict:
    """One metric's pairs: each side's quartiles, the wins, and the regression
    and claim verdicts."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    sides = {}
    for side, values in zip(SIDES, (parent, change)):
        q1, median, q3 = quartiles(values)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "values": values}
    pm, cm = sides["parent"]["median"], sides["change"]["median"]
    claim = (len(parent) >= CLAIM_MIN_PAIRS and share >= CLAIM_WIN_SHARE
             and sign * (cm - pm) > sides["parent"]["q3"] - sides["parent"]["q1"])
    spread = (sides["parent"]["q3"] - sides["parent"]["q1"]) / pm
    every_run_beaten = all(sign * (c - p) > 0 for c in change for p in parent)
    if -sign * (cm - pm) / pm > bound:
        regression = "yes"
    elif spread > bound and not every_run_beaten:
        regression = "unresolved"
    else:
        regression = "no"
    return sides | {"better": better, "relative_change": (cm - pm) / pm, "won": wins,
                    "pairs": len(parent), "won_share": share, "bound": bound,
                    "parent_spread": spread, "regression": regression, "gain_claimable": claim}


def summarise(name: str, row: dict) -> str:
    """``compare``'s result as one line of the printed table."""
    p, c = row["parent"], row["change"]
    regression = row["regression"]
    if regression == "unresolved":
        regression += f" (parent spread {row['parent_spread']:.1%})"
    return (f"  {name:<14} parent {p['median']:>10.4g} [{p['q1']:.4g}, {p['q3']:.4g}]   "
            f"change {c['median']:>10.4g} [{c['q1']:.4g}, {c['q3']:.4g}]   "
            f"{row['relative_change']:+7.1%}   won {row['won']}/{row['pairs']}   "
            f"regression: {regression}   "
            f"gain claimable: {'yes' if row['gain_claimable'] else 'no'}")


def format_host(host: dict) -> str:
    """A host record, or a side's medians of them, as ``name=value`` words."""
    return " ".join(f"{k}={'None' if host[k] is None else format(host[k], '.4g')}" for k in HOST_FIELDS)


def host_medians(results: list[dict | None]) -> dict:
    """Per host field, the median over the runs that recorded it, or None if
    none did."""
    medians = {}
    for key in HOST_FIELDS:
        values = [r["host"][key] for r in results if r and r.get("host") and r["host"][key] is not None]
        medians[key] = statistics.median(values) if values else None
    return medians


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per seed and workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--json", type=Path, metavar="PATH", help="also write the table here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    metrics = bench["end_to_end"]
    parent_commit = resolve_commit(args.parent)
    # one entry per pair and seed: the run's result, or None if it failed
    runs = {(w, side): [] for w in args.workloads for side in SIDES}
    failed_runs = {(w, side): [] for w in args.workloads for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab_parent_") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export_tree(parent_commit, trees["parent"])
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for seed in args.seeds:
                for workload in args.workloads:
                    for side in order:
                        try:
                            result = run_once(bench["command"], trees[side], workload, seed,
                                              bench["run_seconds"])
                        except RunFailed as exc:
                            runs[(workload, side)].append(None)
                            failed_runs[(workload, side)].append(exc.record(pair, seed))
                            print(f"pair {pair} seed {seed} {workload} {side}: run failed: {exc}",
                                  flush=True)
                            continue
                        runs[(workload, side)].append(result)
                        values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                          for m in metrics if m["name"] in result["metrics"])
                        if result.get("host"):
                            values += " " + format_host(result["host"])
                            result["host"]["disturbed"] = disturbed(result["host"])
                            if result["host"]["disturbed"]:
                                values += " disturbed"
                        print(f"pair {pair} seed {seed} {workload} {side}: "
                              f"failed {result['failed']}/{result['attempted']} {values}", flush=True)

    env = next((r["env"] for r in runs[(args.workloads[0], "change")] if r and r["env"]), None)
    print(f"\nparent {args.parent} ({parent_commit[:12]}) vs working tree; {args.pairs} pairs "
          f"x seeds {args.seeds}; median [q1, q3]")
    print(f"env {json.dumps(env, sort_keys=True)}")
    table = {}
    for workload in args.workloads:
        parent_runs, change_runs = runs[(workload, "parent")], runs[(workload, "change")]
        failed = {side: {"failed": sum(r["failed"] for r in runs[(workload, side)] if r),
                         "attempted": sum(r["attempted"] for r in runs[(workload, side)] if r)}
                  for side in SIDES}
        lost = {side: failed_runs[(workload, side)] for side in SIDES}
        print(f"{workload}: failed parent {failed['parent']['failed']}/{failed['parent']['attempted']}, "
              f"change {failed['change']['failed']}/{failed['change']['attempted']}; "
              f"failed runs parent {len(lost['parent'])}, change {len(lost['change'])}")
        for side in SIDES:
            for f in lost[side]:
                print(f"  failed run: {side} pair {f['pair']} seed {f['seed']}: {f['ended']}, "
                      f"exit code {f['exit_code']}")
                for line in f["stderr_tail"]:
                    print(f"    {line}")
        rows = {}
        for m in metrics:
            name = m["name"]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in zip(parent_runs, change_runs)
                     if p and c and name in p["metrics"] and name in c["metrics"]]
            if pairs:
                parent_values, change_values = map(list, zip(*pairs))
                rows[name] = compare(m["better"], m["bound"], parent_values, change_values)
                print(summarise(name, rows[name]))
        outputs = compare_outputs(args.seeds, parent_runs, change_runs)
        for seed, row in outputs.items():
            print(summarise_outputs(seed, row))
        host = {side: {"medians": host_medians(runs[(workload, side)]),
                       "runs": [r.get("host") if r else None for r in runs[(workload, side)]]}
                for side in SIDES}
        for side in SIDES:
            host[side]["disturbed"] = sum(disturbed(h) for h in host[side]["runs"])
        print("  host medians: " + "; ".join(f"{side} {format_host(host[side]['medians'])}"
                                             for side in SIDES))
        print(f"  disturbed runs (steal_ticks > {DISTURBED_STEAL_SHARE:.0%} of cpu ticks): " + ", ".join(
            f"{side} {host[side]['disturbed']}/{len(runs[(workload, side)])}" for side in SIDES))
        table[workload] = {"failed": failed, "failed_runs": lost, "metrics": rows, "outputs": outputs,
                           "host": host}

    if args.json:
        args.json.write_text(json.dumps({
            "command": " ".join(["python3", "tools/ab_bench.py", *(argv if argv is not None else sys.argv[1:])]),
            "parent": {"ref": args.parent, "commit": parent_commit},
            "pairs": args.pairs,
            "seeds": args.seeds,
            "benchmark": {"command": bench["command"], "run_seconds": bench["run_seconds"], "trace": 0},
            "claim_rule": {"min_pairs": CLAIM_MIN_PAIRS, "min_won_share": CLAIM_WIN_SHARE,
                           "median_shift_beyond": "parent q3 - q1"},
            "regression_rule": {"yes": "median worse by more than bound",
                                "unresolved": "(parent q3 - q1) / median above bound and "
                                              "not every change run beats every parent run"},
            "outputs_rule": "observed values of the parent and change runs of one pair "
                            "compared exactly; max_rel_diff is |change - parent| / |parent|",
            "host_rule": "per run: cpu_s and nivcsw of the children waited for during it "
                         "(getrusage RUSAGE_CHILDREN), steal_ticks from /proc/stat's cpu line "
                         "(None where unreadable); runs is null for a failed run; a run is "
                         f"disturbed when its steal_ticks exceed {DISTURBED_STEAL_SHARE:.0%} of "
                         "cpu_s x SC_CLK_TCK, and disturbed counts a side's disturbed runs",
            "environment": env,
            "workloads": table,
        }, indent=2) + "\n")
        print(f"table written to {args.json}")
    return 1 if any(failed_runs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
