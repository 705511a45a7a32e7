"""The program surface the benchmark under ``perfbench/`` reads.

The benchmark imports names from ``cvpe``, some of them inside functions,
and reads attributes of the model's parameter objects.  A change under
``src/`` that drops one would otherwise fail only when the benchmark runs;
this finds the names in the benchmark's source and walks the model at the
benchmark's tiny sizes.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from cvpe.config import parse_config
from cvpe.evaluation import prepare_segments
from cvpe.train import make_windows

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # perfbench is a package at the repository root


def names_the_benchmark_reads() -> set[tuple[str, str]]:
    """(module, name) for every ``from cvpe... import name`` in
    ``perfbench/*.py``, at any depth, and every attribute the benchmark reads
    of a ``cvpe`` submodule it imports (``train.plan_schedule``)."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> imported cvpe submodule
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cvpe":
                for alias in node.names:
                    sub = f"cvpe.{alias.name}"
                    if node.module == "cvpe" and importlib.util.find_spec(sub) is not None:
                        modules[alias.asname or alias.name] = sub
                    else:
                        names.add((node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                names.add((modules[node.value.id], node.attr))
    return names


def test_the_benchmark_finds_every_name_it_reads():
    names = names_the_benchmark_reads()
    # names read inside functions: an import and a submodule's attribute
    assert {("cvpe.autodiff", "power"), ("cvpe.train", "plan_schedule")} <= names
    missing = sorted((m, n) for m, n in names if not hasattr(importlib.import_module(m), n))
    assert not missing, f"cvpe lacks {missing}"

    from perfbench import layer_times, specs

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
