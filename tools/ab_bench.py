"""Paired A/B runs of the repository benchmark: a parent commit against the working tree.

    python3 tools/ab_bench.py --parent HEAD --pairs 10 --seeds 3 [--workloads infer_wide] \
        [--json BENCH.json]

The committed files of ``--parent`` are exported (``git archive``) into a
temporary directory, so the repository's own state is left untouched.  Then,
for each pair, seed and workload, the benchmark command from
``BENCHMARK.json`` runs with ``--trace 0`` for the benchmark's
``run_seconds`` once on the parent copy and once on the working tree,
alternating which side goes first.  Every run prints one line as it
finishes.  At the end, for each workload and end-to-end metric, the table
gives each side's median and quartiles, the share of pairs the change won
(ties count for neither), whether the metric regressed, and whether a gain
may be claimed.  The regression verdict uses the metric's ``bound`` from
``BENCHMARK.json``: ``yes`` if the change's median is worse than the
parent's by more than the bound (relative to the parent's median);
otherwise ``unresolved`` if the parent's quartile spread, relative to its
median, exceeds the bound and not every change run beats every parent run;
otherwise ``no``.  A gain may be claimed if at least ten pairs ran, the
change won at least nine tenths of them, and the medians differ by more
than the distance between the parent's quartiles.  With
``--json PATH`` the same table, each run's values, the failure counts, the
command, the parent commit and the benchmark's environment line are also
written to ``PATH``.

Nothing under ``perfbench/`` or in ``BENCHMARK.json`` is written, except the
result files the benchmark itself leaves in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
CLAIM_WIN_SHARE = 0.9
CLAIM_MIN_PAIRS = 10


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


def run_once(command: list[str], tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns its final JSON line, with its environment
    line under ``env`` (None if it printed none)."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} printed nothing: {done.stderr[-2000:]}")
    env_tag = f"{workload}  env "
    env = next((json.loads(l[len(env_tag):]) for l in lines if l.startswith(env_tag)), None)
    return json.loads(lines[-1]) | {"env": env}


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
    runs = {(w, side): [] for w in args.workloads for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab_parent_") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export_tree(parent_commit, trees["parent"])
        turn = 0
        for pair in range(args.pairs):
            for seed in args.seeds:
                for workload in args.workloads:
                    order = SIDES if turn % 2 == 0 else SIDES[::-1]
                    turn += 1
                    for side in order:
                        result = run_once(bench["command"], trees[side], workload, seed,
                                          bench["run_seconds"])
                        runs[(workload, side)].append(result)
                        values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                          for m in metrics if m["name"] in result["metrics"])
                        print(f"pair {pair} seed {seed} {workload} {side}: "
                              f"failed {result['failed']}/{result['attempted']} {values}", flush=True)

    env = next((r["env"] for r in runs[(args.workloads[0], "change")] if r["env"]), None)
    print(f"\nparent {args.parent} ({parent_commit[:12]}) vs working tree; {args.pairs} pairs "
          f"x seeds {args.seeds}; median [q1, q3]")
    print(f"env {json.dumps(env, sort_keys=True)}")
    table = {}
    for workload in args.workloads:
        parent_runs, change_runs = runs[(workload, "parent")], runs[(workload, "change")]
        failed = {side: {"failed": sum(r["failed"] for r in runs[(workload, side)]),
                         "attempted": sum(r["attempted"] for r in runs[(workload, side)])}
                  for side in SIDES}
        print(f"{workload}: failed parent {failed['parent']['failed']}/{failed['parent']['attempted']}, "
              f"change {failed['change']['failed']}/{failed['change']['attempted']}")
        rows = {}
        for m in metrics:
            name = m["name"]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in zip(parent_runs, change_runs)
                     if name in p["metrics"] and name in c["metrics"]]
            if pairs:
                parent_values, change_values = map(list, zip(*pairs))
                rows[name] = compare(m["better"], m["bound"], parent_values, change_values)
                print(summarise(name, rows[name]))
        table[workload] = {"failed": failed, "metrics": rows}

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
            "environment": env,
            "workloads": table,
        }, indent=2) + "\n")
        print(f"table written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
