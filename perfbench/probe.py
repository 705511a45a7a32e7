"""Set-up probe: one fresh process, from ``import cvpe`` to a ready first batch.

Run as ``python3 perfbench/probe.py <workload> <seed> <size>``
from the repository root; prints one JSON object of stage times in
milliseconds plus ``setup_s``.  ``run.py`` starts several of these per run
and reports their medians, so set-up work that a change adds shows.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import specs  # noqa: E402  (standard library only)


def main(argv: list[str]) -> None:
    workload, seed, size = argv[0], int(argv[1]), argv[2]
    kind = specs.kind(workload)
    marks = [("start", time.perf_counter())]

    def mark(name):
        marks.append((name, time.perf_counter()))

    from cvpe import evaluation, train
    from cvpe.config import parse_config

    mark("import_ms")
    cfg = parse_config(specs.raw_config(workload, seed, size))
    mark("config.parse_ms")
    train_s, _, test_s = evaluation.prepare_segments(cfg)
    mark("data.prepare_segments_ms")
    horizon = cfg.horizons[0]
    segment = test_s if kind == "infer" else train_s
    windows, targets = train.make_windows(segment.values, cfg.context, horizon)
    mark("train.make_windows_ms")
    models = [specs.build_model(cfg, v, horizon, seed) for v in cfg.variants]
    for m in models:
        m.parameters()
    mark("model.build_ms")
    if kind == "infer":
        windows[: cfg.batch_size].copy()
    else:
        order = train.plan_schedule(windows.shape[0], 1, seed)[0][: cfg.batch_size]
        windows[order], targets[order]
    mark("first_batch_ms")
    out = {name: 1000.0 * (t - prev) for (_, prev), (name, t) in zip(marks, marks[1:])}
    out["setup_s"] = marks[-1][1] - marks[0][1]
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
