"""Benchmark of the cvpe training stack: one command, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload train_cvpe --seed 0 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): ``train_cvpe``,
``train_vanilla`` and ``infer_wide``.  The program is
imported from ``src/`` of the tree this file sits in; nothing is installed
and no thread or BLAS variable is set.

Every metric is printed by name with its unit and a note on what it counts,
then the checks and the failures, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics
from a separate traced run, and writes the spans to ``perfbench/out/``.
The exit code is 0 when every operation and check passed, 1 when one
failed, and 2 when the tree holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)
# stage times the set-up probe reports, as per-layer metrics
PROBE_STAGES = (
    "import_ms",
    "config.parse_ms",
    "data.prepare_segments_ms",
    "train.make_windows_ms",
    "model.build_ms",
)
PROBE_TIMEOUT_S = 120


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "machine": platform.machine(),
    }


def setup_probes(ctx, n: int) -> dict[str, float]:
    """Medians over ``n`` fresh-process set-up probes."""
    runs = []
    for _ in range(n):
        cmd = [sys.executable, str(HERE / "probe.py"), ctx.workload, str(ctx.seed), ctx.size]

        def probe():
            done = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
            )
            return json.loads(done.stdout.strip().splitlines()[-1])

        result = ctx.ledger.run(probe)
        if result is not None:
            runs.append(result)
    if not runs:
        return {}
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]} | {"n": len(runs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small shapes for the self-check")
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="reference values for the default seed")
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cvpe" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: no program to measure: {ROOT}/src/cvpe or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import specs, workloads
    from perfbench.tracing import Tracer

    try:
        kind = specs.kind(args.workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    reference = json.loads(Path(args.reference).read_text())
    ctx = workloads.Context(
        workload=args.workload,
        seed=args.seed,
        size=args.size,
        seconds=args.seconds,
        tracer=Tracer(enabled=bool(args.trace)),
        reference=reference.get(args.size, {}).get(args.workload),
        out_dir=OUT,
    )
    env = environment()
    workloads.RUNNERS[kind](ctx)
    setup = setup_probes(ctx, ctx.settings["probes"])

    w = args.workload
    if setup:
        ctx.metrics["setup_s"] = (setup["setup_s"], "s", f"median of {setup['n']} fresh-process probes")
        for stage in PROBE_STAGES:
            ctx.layers[stage] = (setup[stage], "ms", f"median of {setup['n']} set-up probes")
    source = ctx.layers if args.trace else ctx.metrics
    unmeasured = f"not exercised on {w}"
    metrics, notes, lines = {}, {}, []
    for spec in wanted:
        name = spec["name"]
        if name in source:
            value, unit, note = source[name]
        elif args.trace:
            value, unit, note = 0.0, spec["unit"], unmeasured
        else:
            ctx.ledger.fail(LookupError(f"metric {name} was not measured"))
            continue
        if unit != spec["unit"]:
            raise AssertionError(f"{name} measured in {unit}, BENCHMARK.json says {spec['unit']}")
        metrics[name] = {"value": float(value), "unit": unit}
        notes[name] = note
        lines.append(f"{w}  {name} = {float(value):.6g} {unit}  ({note})")

    ledger = ctx.ledger
    print(f"{w}  env {json.dumps(env, sort_keys=True)}")
    for check in ledger.checks:
        print(f"{w}  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    for name, count in ledger.errors.items():
        print(f"{w}  error {name} x{count}: {ledger.examples[name]}")
    if args.trace:
        print(f"{w}  self time per span (count, total ms, ms per call):")
        for name, (count, total) in sorted(ctx.tracer.self_times().items(), key=lambda kv: -kv[1][1]):
            print(f"{w}    {name:<36} {count:>6} {1000 * total:>12.3f} {1000 * total / count:>10.4f}")
        ctx.tracer.write(OUT / f"trace_{w}_seed{args.seed}_{args.size}.jsonl")
    print("\n".join(lines))
    ratio = ledger.failed / ledger.attempted if ledger.attempted else float("nan")
    print(f"{w}  failed_ratio = {ledger.failed}/{ledger.attempted} = {ratio:.6g}  "
          f"(operations and checks; {len(ledger.checks)} checks)")

    correct = ledger.failed == 0 and ledger.attempted > 0
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result_{w}_seed{args.seed}_trace{args.trace}_{args.size}.json").write_text(
        json.dumps(
            result | {"env": env, "checks": ledger.checks, "errors": dict(ledger.errors),
                      "observed": ctx.observed, "notes": notes},
            indent=2, sort_keys=True,
        )
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
