"""The program surface the benchmark under ``perfbench/`` reads.

The benchmark imports names from ``cvpe``, some of them inside functions,
and reads attributes of the model's parameter objects.  A change under
``src/`` that drops one would otherwise fail only when the benchmark runs;
this walks each of them at the benchmark's tiny sizes.
"""

import importlib
import sys
from pathlib import Path

from cvpe.config import parse_config
from cvpe.evaluation import prepare_segments
from cvpe.train import make_windows

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # perfbench is a package at the repository root

# names perfbench/selfcheck.py and perfbench/probe.py import or call inside functions
_LATE_NAMES = {
    "cvpe.autodiff": ("parameter", "power", "tsum"),
    "cvpe.train": ("backward", "make_windows", "plan_schedule"),
    "cvpe.evaluation": ("prepare_segments",),
    "cvpe.config": ("parse_config",),
}


def test_the_benchmark_finds_every_name_it_reads():
    # workloads imports layer_times, specs and tracing, and the program's
    # names at module level
    from perfbench import layer_times, specs, workloads  # noqa: F401

    for module, names in _LATE_NAMES.items():
        missing = [n for n in names if not hasattr(importlib.import_module(module), n)]
        assert not missing, f"{module} lacks {missing}"

    cfg = parse_config(specs.raw_config("infer_wide", specs.DEFAULT_SEED, "tiny"))
    horizon = cfg.horizons[0]
    _, _, test_s = prepare_segments(cfg)
    windows, _ = make_windows(test_s.values, cfg.context, horizon)
    windows = windows[: cfg.batch_size]
    # the per-layer items read the block's router table, the prototype bank
    # and the attention config's heads, among others
    params = specs.build_model(cfg, "cvpe", horizon, specs.DEFAULT_SEED)
    times, reps = layer_times.measure(params, windows, True, 0.0, min_reps=1, max_reps=1)
    assert reps == 1
    assert {"embedding.cvpe.fwd_ms", "embedding.cvpe.bwd_ms", "autodiff.gelu.fwd_ms"} <= set(times)
    total, block, analytic = layer_times.score_counts(params, windows)
    assert 0 < block == analytic <= total
