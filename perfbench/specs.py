"""Workload definitions: run configs, sizes and fixed sample rules.

This module imports nothing beyond the standard library at import time, so
the set-up probe can load it before it starts the clock on ``import cvpe``.

Every workload draws its data, its model initialisation and its batch order
from the ``--seed`` argument; the program only ever sees the generated
config.  ``size`` is ``"full"`` for the measured runs and ``"tiny"`` for the
self-check.
"""

from __future__ import annotations

import copy

WORKLOADS = ("train_cvpe", "train_vanilla", "infer_wide")

# Seed whose outputs are compared against reference.json.
DEFAULT_SEED = 0
# Relative tolerance for reference comparisons: float rounding only, so a
# reordered but equivalent computation passes and a changed result fails.
REFERENCE_RTOL = 1e-8

# Shapes of configs/synthetic_ab.json: N=8, context 64, P=5, dim 16.
_BASE = {
    "dataset": {
        "kind": "synthetic",
        "n_channels": 8,
        "length": 4000,
        "coupling": 0.9,
        "lag": 4,
        "noise_std": 0.1,
        "seed": 0,
    },
    "split": "ratio_70_10_20",
    "context": 64,
    "horizons": [8],
    "patch": {"length": 24, "stride": 8},
    "model": {
        "dim": 16,
        "heads": 4,
        "prototypes": 16,
        "routers": 4,
        "backbone": {"layers": 1, "width": 16, "heads": 4, "hidden": 32},
    },
    "variants": ["vanilla", "cvpe"],
    "train": {"epochs": 40, "batch_size": 32, "lr": 0.01, "patience": 10},
    "seeds": [0],
}

# Per workload and size: config overrides plus the benchmark's own knobs.
#   ref_step    step whose loss is compared with the reference (train_*)
#   tail_pct    the fixed tail percentile reported as batch_ms_p95; it
#               keeps at least ten samples beyond it at the sample count a
#               run gets on the baseline (p95 would keep too few on infer)
#   probes      set-up probes per run (fresh processes)
# The "grid" entry is no workload of its own: infer_wide's traced run runs it
# to time the evaluation layers (see workloads.measure_grid).
_SIZES = {
    "train": {
        "full": {"over": {}, "ref_step": 20, "tail_pct": 95, "probes": 7},
        "tiny": {
            "over": {"dataset": {"n_channels": 4, "length": 600}, "train": {"batch_size": 8}},
            "ref_step": 5, "tail_pct": 95, "probes": 1,
        },
    },
    # 3555 steps leave 711 test steps, i.e. exactly 640 windows = 10 full
    # batches of 64, so every timed batch has the same shape.
    "infer": {
        "full": {
            "over": {"dataset": {"n_channels": 32, "length": 3555}, "train": {"batch_size": 64}},
            "ref_step": 0, "tail_pct": 80, "probes": 7,
        },
        "tiny": {
            "over": {"dataset": {"n_channels": 8, "length": 500}, "train": {"batch_size": 16}},
            "ref_step": 0, "tail_pct": 80, "probes": 1,
        },
    },
    # A short paired grid: two seeds x two variants x three epochs on 800
    # steps.  Validation and best-epoch restore run every epoch, but the
    # patience equals the epoch count, so early stopping never cuts a cell
    # short and every seed does the same work.
    "grid": {
        "full": {"over": {"dataset": {"length": 800}, "train": {"epochs": 3, "patience": 3}}},
        "tiny": {"over": {"dataset": {"length": 760}, "train": {"epochs": 2, "patience": 2}}},
    },
}


def kind(workload: str) -> str:
    """``train`` or ``infer``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return workload.split("_")[0]


def variants(workload: str) -> list[str]:
    """Model variants the workload runs."""
    if workload == "train_cvpe":
        return ["cvpe"]
    if workload == "train_vanilla":
        return ["vanilla"]
    return ["vanilla", "cvpe"]


def settings(workload: str, size: str) -> dict:
    """The benchmark knobs of one workload at one size."""
    return _SIZES[kind(workload)][size]


def build_model(cfg, variant: str, horizon: int, seed: int):
    """The model a run config describes (imports the program lazily)."""
    from cvpe.model import ModelParams

    return ModelParams.build(
        variant=variant,
        context=cfg.context,
        horizon=horizon,
        patch_cfg=cfg.patch,
        model_dim=cfg.model_dim,
        heads=cfg.heads,
        n_prototypes=cfg.n_prototypes,
        n_routers=cfg.n_routers,
        backbone_cfg=cfg.backbone,
        seed=seed,
    )


def _raw(over: dict, seed: int) -> dict:
    raw = copy.deepcopy(_BASE)
    for section, values in over.items():
        raw[section].update(values)
    raw["dataset"]["seed"] = seed
    return raw


def raw_config(workload: str, seed: int, size: str) -> dict:
    """The JSON-shaped run config the workload hands to ``cvpe.config``."""
    raw = _raw(settings(workload, size)["over"], seed)
    raw["variants"] = variants(workload)
    raw["seeds"] = [seed]
    return raw


def grid_config(seed: int, size: str) -> dict:
    """The paired grid infer_wide's traced run hands to ``cvpe experiment``."""
    raw = _raw(_SIZES["grid"][size]["over"], seed)
    raw["seeds"] = [seed, seed + 1] if size == "full" else [seed]
    return raw
