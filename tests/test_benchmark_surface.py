"""The program surface the benchmark under ``perfbench/`` reads.

The benchmark imports names from ``cvpe``, some of them inside functions,
passes some of them keyword arguments, and reads attributes of the model's
parameter objects.  A change under ``src/`` that drops or renames one would
otherwise fail only when the benchmark runs; this finds the names and the
keywords in the benchmark's source, walks the model at the benchmark's tiny
sizes and parses every config the benchmark generates.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from cvpe.config import parse_config
from cvpe.evaluation import prepare_segments
from cvpe.train import make_windows

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # perfbench is a package at the repository root


def _cvpe_bindings(tree) -> dict[str, tuple[str, str | None]]:
    """Local name -> (module, name) for every ``from cvpe... import name`` in
    ``tree``, at any depth; a ``cvpe`` submodule binds (submodule, None)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cvpe":
            for alias in node.names:
                sub = f"cvpe.{alias.name}"
                is_module = node.module == "cvpe" and importlib.util.find_spec(sub) is not None
                bound[alias.asname or alias.name] = (sub, None) if is_module else (node.module, alias.name)
    return bound


def _benchmark_sources():
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        yield path, tree, _cvpe_bindings(tree)


def names_the_benchmark_reads() -> set[tuple[str, str]]:
    """(module, name) for every ``from cvpe... import name`` in
    ``perfbench/*.py``, at any depth, and every attribute the benchmark reads
    of a ``cvpe`` submodule it imports (``train.plan_schedule``)."""
    names = set()
    for _, tree, bound in _benchmark_sources():
        modules = {local: module for local, (module, name) in bound.items() if name is None}
        names |= {b for b in bound.values() if b[1] is not None}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                names.add((modules[node.value.id], node.attr))
    return names


def keyword_calls() -> list[tuple[str, object, list[str]]]:
    """(file:line, callee, keywords) for every call in ``perfbench/*.py`` that
    passes keyword arguments to a ``cvpe`` name, or to an attribute of one
    (``AdamState.init``, ``train.plan_schedule``)."""
    calls = []
    for path, tree, bound in _benchmark_sources():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.keywords):
                continue
            func, attr = node.func, None
            if isinstance(func, ast.Attribute):
                func, attr = func.value, func.attr
            if not (isinstance(func, ast.Name) and func.id in bound):
                continue
            module, name = bound[func.id]
            callee = importlib.import_module(module)
            for part in (name, attr):
                callee = callee if part is None else getattr(callee, part)
            calls.append((f"{path.name}:{node.lineno}", callee, [k.arg for k in node.keywords if k.arg]))
    return calls


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


def test_every_keyword_the_benchmark_passes_is_a_parameter():
    calls = keyword_calls()
    callees = {getattr(callee, "__qualname__", "") for _, callee, _ in calls}
    assert {"Tensor", "ModelParams.build", "AdamState.init", "grad_check", "run_experiment",
            "write_experiment"} <= callees
    wrong = [
        (site, kw) for site, callee, keywords in calls
        for kw in keywords if kw not in inspect.signature(callee).parameters
    ]
    assert not wrong, f"cvpe takes no such keyword: {wrong}"


def test_every_config_the_benchmark_generates_parses():
    from perfbench import specs

    raws = [specs.raw_config(w, specs.DEFAULT_SEED, size) for w in specs.WORKLOADS for size in ("full", "tiny")]
    raws += [specs.grid_config(specs.DEFAULT_SEED, size) for size in ("full", "tiny")]
    assert len(raws) == 8
    for raw in raws:
        parse_config(raw)
