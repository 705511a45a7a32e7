"""The paired grid of a parent commit against the working tree's, by a stated bar.

    python3 tools/grid_diff.py --parent HEAD --config configs/synthetic_ab.json

The committed files of ``--parent`` are exported (``git archive``) into a
temporary directory, so the repository's own state is left untouched.  Then
``cvpe experiment --jobs 2`` runs the config once with the parent's code and
once with the working tree's, each into a temporary output directory, and
the two ``report.json`` files are compared, as are the names of the files
each run wrote: a file only one run wrote breaks the bar.  Both runs read
the same config file from the repository root, so only the code differs.

The bar is met when both reports hold the same cells, each cell has the same
``status``, ``error`` (a failed cell's message), ``window_order_digest``,
``best_epoch`` and ``epochs_run``, and its ``mse`` and ``mae``, and the
``train_mse`` and ``val_mse`` of each epoch of its ``history``, agree within
a relative 1e-10.  A flipped
early-stopping decision is a result change, not rounding.  Moving every
parameter of an initial model by one unit in the last place moved the test
MSE of two ``synthetic_ab`` cells by a relative 3.7e-15 and 8.1e-15, so the
bar sits four orders of magnitude above rounding.  Each cell's largest
relative difference is printed; the tool exits 0 when the bar is met, and
otherwise 1, naming each cell and field that broke it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_bench import ROOT, export_tree, relative_difference, resolve_commit

RTOL = 1e-10
EXACT_FIELDS = ("status", "error", "window_order_digest", "best_epoch", "epochs_run")
METRIC_FIELDS = ("mse", "mae")
HISTORY_FIELDS = ("train_mse", "val_mse")


def cells_of(report: dict) -> dict[tuple, dict]:
    """A report's cells by (variant, horizon, seed)."""
    return {(c["variant"], c["horizon"], c["seed"]): c for c in report["cells"]}


def compare_reports(parent: dict, change: dict) -> tuple[dict[tuple, float], list[str]]:
    """Each common cell's largest relative difference in ``mse``, ``mae`` and
    its history's losses, and one problem line for each cell, epoch or field
    that breaks the bar."""
    old, new = cells_of(parent), cells_of(change)
    problems = [f"cell {key} only in the {side} report"
                for side, mine, other in (("parent", old, new), ("change", new, old))
                for key in mine if key not in other]
    diffs = {}
    for key in old.keys() & new.keys():
        p, c = old[key], new[key]
        problems += [f"cell {key}: {name} {p.get(name)!r} -> {c.get(name)!r}"
                     for name in EXACT_FIELDS if p.get(name) != c.get(name)]
        # a history of another length shows as ``epochs_run`` above
        values = [("", name, p, c) for name in METRIC_FIELDS]
        values += [(f"epoch {pe['epoch']} ", name, pe, ce)
                   for pe, ce in zip(p.get("history", []), c.get("history", []))
                   for name in HISTORY_FIELDS]
        for where, name, pv, cv in values:
            diff = relative_difference({name: pv.get(name)}, {name: cv.get(name)})
            diffs[key] = max(diffs.get(key, 0.0), diff)
            if not diff <= RTOL:  # a NaN breaks the bar too
                problems.append(f"cell {key}: {where}{name} {pv.get(name)!r} -> {cv.get(name)!r} "
                                f"(relative {diff:.3g} > {RTOL:g})")
    return dict(sorted(diffs.items())), problems


def compare_file_names(parent: list[str], change: list[str]) -> list[str]:
    """One problem line for each file name only one of the two runs wrote."""
    old, new = set(parent), set(change)
    return [f"file {name} only in the {side} run"
            for side, mine, other in (("parent", old, new), ("change", new, old))
            for name in sorted(mine - other)]


def run_grid(tree: Path, config: Path, out: Path) -> tuple[dict, list[str]]:
    """``cvpe experiment --jobs 2`` on ``config`` with the code under ``tree``,
    run from the repository root; its ``report.json`` and the names of the
    files it wrote."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("CVPE_OUTPUT_DIR", None)
    done = subprocess.run(
        [sys.executable, "-m", "cvpe", "experiment", "--config", str(config),
         "--jobs", "2", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if done.returncode not in (0, 2):  # 2: a failed cell, which the report records
        raise RuntimeError(f"cvpe experiment in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    return json.loads((out / "report.json").read_text()), [p.name for p in out.iterdir()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare the working tree against")
    parser.add_argument("--config", required=True, type=Path, help="experiment config to run on both")
    args = parser.parse_args(argv)
    commit = resolve_commit(args.parent)
    config = args.config.resolve()
    with tempfile.TemporaryDirectory(prefix="grid_diff_") as tmp:
        tmp = Path(tmp)
        (tmp / "parent").mkdir()
        export_tree(commit, tmp / "parent")
        print(f"parent {commit[:12]}, config {args.config}", flush=True)
        parent, parent_files = run_grid(tmp / "parent", config, tmp / "out_parent")
        change, change_files = run_grid(ROOT, config, tmp / "out_change")
    diffs, problems = compare_reports(parent, change)
    problems += compare_file_names(parent_files, change_files)
    for (variant, horizon, seed), diff in diffs.items():
        print(f"  {variant:<10} h={horizon:<4} seed={seed:<4} largest relative difference {diff:.3g}")
    for line in problems:
        print(f"FAIL {line}")
    print(f"{'FAIL' if problems else 'PASS'}: {len(diffs)} common cells, largest relative "
          f"difference {max(diffs.values(), default=0.0):.3g} (bar {RTOL:g})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
