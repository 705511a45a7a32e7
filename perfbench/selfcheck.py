"""Self-check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload it runs an untraced and a traced tiny run and requires
each metric of BENCHMARK.json to print by name with its unit.  It requires
an exception from ``train.backward`` to count as a failed operation.  It
then corrupts one stored reference value and requires the run to count a
failure and exit non-zero, and runs the benchmark in a tree that holds only
BENCHMARK.json and perfbench/, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "out" / "selfcheck"

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def run(root: Path, *args: str) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seconds", "1", "--size", "tiny", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return done.returncode, done.stdout.strip().splitlines()


def result(lines: list[str]) -> dict | None:
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def failure_counted() -> bool:
    """A gradient that is not finite makes ``train.backward`` raise; the
    ledger must count it, whatever exception type the program uses."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy as np
    from cvpe.autodiff import parameter, power, tsum
    from cvpe.train import backward
    from perfbench.workloads import Ledger

    p = parameter([0.0, 1.0], "p")
    ledger = Ledger()
    with np.errstate(divide="ignore"):
        ledger.run(backward, tsum(power(p, 0.5)), [p])
    print(f"     train.backward failure recorded as {dict(ledger.errors)}")
    return ledger.attempted == 1 and ledger.failed == 1


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(ROOT, "--workload", workload, "--seed", "0", "--trace", str(trace))
            res = result(lines)
            label = f"{workload} --trace {trace}"
            expect(code == 0 and res is not None and res["correct"], f"{label}: exit 0, correct")
            if res is None:
                continue
            expect(res["failed"] == 0 and res["attempted"] >= 1, f"{label}: failed_ratio 0")
            expect(any(" failed_ratio = " in line for line in lines), f"{label}: failed_ratio printed")
            for spec in bench[key]:
                name, unit = spec["name"], spec["unit"]
                value = res["metrics"].get(name, {})
                shown = any(line.startswith(f"{workload}  {name} = ") and f" {unit}  (" in line
                            for line in lines)
                expect(value.get("unit") == unit and shown, f"{label}: {name} printed in {unit}")
            if trace and workload == "train_vanilla":
                block = [n for n in res["metrics"] if n.startswith("embedding.") and n.endswith("_ms")]
                expect(all(res["metrics"][n]["value"] == 0 for n in block),
                       f"{label}: embedding times are zero without the block")

    expect(failure_counted(), "a failing train.backward counts as one failed operation")

    WORKDIR.mkdir(parents=True, exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())
    entry = reference["tiny"]["train_vanilla"]
    for key in entry:
        entry[key] *= 1.0 + 1e-6
    corrupted = WORKDIR / "corrupted_reference.json"
    corrupted.write_text(json.dumps(reference))
    code, lines = run(ROOT, "--workload", "train_vanilla", "--seed", "0", "--trace", "0",
                      "--reference", str(corrupted))
    res = result(lines)
    expect(code != 0 and res is not None and res["failed"] >= 1 and not res["correct"],
           "a corrupted reference raises failed_ratio and the exit code")

    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = run(bare, "--workload", "train_cvpe", "--seed", "0", "--trace", "0")
    expect(code != 0 and result(lines) is None, "without the program it fails and prints no result")
    shutil.rmtree(bare)

    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
