"""Run configuration: JSON schema, exhaustive validation, domain objects.

A run config describes one A/B study: the dataset, the split, the model
shape, the variants to compare, and the training budget.  Validation
collects every problem it can find instead of stopping at the first, so a
bad config is fixable in one pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .data import SplitSpec, SyntheticSpec, TARGET_CHANNEL
from .model import BackboneConfig, VARIANTS
from .preprocess import PatchConfig

_MISSING = object()

# The keys each section of a run config may hold, by section path ("" is the
# top level); any other key is an error, so a typo cannot fall back to a
# default unnoticed.
_KNOWN = {
    "": {
        "dataset", "split", "target", "select_top_k", "context", "horizons",
        "patch", "model", "variants", "train", "seeds", "output_dir",
    },
    "split": {"protocol", "boundaries"},
    "patch": {"length", "stride"},
    "model": {"dim", "heads", "prototypes", "routers", "backbone"},
    "model.backbone": {"layers", "width", "heads", "hidden"},
    "train": {"epochs", "batch_size", "lr", "patience"},
}
# the dataset keys besides "kind", which depend on the kind
_DATASET_KINDS = {
    "synthetic": {"n_channels", "length", "coupling", "lag", "noise_std", "seed"},
    "csv": {"path", "date_column"},
}


class ConfigError(ValueError):
    """Invalid run configuration; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors))
        self.errors = errors


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment description."""

    dataset_kind: str  # "synthetic" or "csv"
    synthetic: SyntheticSpec | None
    csv_path: str | None
    date_column: str
    split: SplitSpec
    target: str
    select_top_k: int | None
    context: int
    horizons: tuple[int, ...]
    patch: PatchConfig
    model_dim: int
    heads: int
    n_prototypes: int
    n_routers: int
    backbone: BackboneConfig
    variants: tuple[str, ...]
    epochs: int
    batch_size: int
    lr: float
    patience: int
    seeds: tuple[int, ...]
    output_dir: str
    echo: dict = field(compare=False, repr=False, default_factory=dict)


class _Fields:
    """Pulls typed values out of a nested dict, remembering every problem."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, msg: str):
        if msg not in self.errors:
            self.errors.append(msg)

    def reject_unknown(self, obj: dict, known: set[str], where: str = ""):
        for key in obj:
            if key not in known:
                label = f"{where}.{key}" if where else key
                self.fail(f"unknown field {label!r}")

    def pull(self, obj: dict, key: str, kind, default=_MISSING, where: str = ""):
        label = f"{where}.{key}" if where else key
        if key not in obj:
            if default is _MISSING:
                self.fail(f"missing required field {label!r}")
                return None
            return default
        value = obj[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if (kind is int or kind == (int,)) and isinstance(value, bool):
            self.fail(f"{label} must be an integer, got a boolean")
            return None
        if not isinstance(value, kind):
            name = kind.__name__ if hasattr(kind, "__name__") else " or ".join(k.__name__ for k in kind)
            self.fail(f"{label} must be {name}, got {type(value).__name__}")
            return None
        if isinstance(value, float) and not math.isfinite(value):
            # json reads NaN and Infinity, which no field can take
            self.fail(f"{label} must be finite, got {value}")
            return None
        return value

    def pull_pos_int(self, obj: dict, key: str, where: str = "", default=_MISSING):
        label = f"{where}.{key}" if where else key
        value = self.pull(obj, key, int, default, where)
        if value is not None and value < 1:
            self.fail(f"{label} must be positive, got {value}")
            return None
        return value

    def pull_int_list(self, obj: dict, key: str, minimum: int, default=_MISSING) -> tuple[int, ...]:
        values = self.pull(obj, key, list, default)
        if values is None:
            return ()
        if not values:
            self.fail(f"{key} must be non-empty")
            return ()
        if not all(isinstance(v, int) and not isinstance(v, bool) and v >= minimum for v in values):
            self.fail(f"{key} must all be integers >= {minimum}")
            return ()
        if len(set(values)) != len(values):
            self.fail(f"{key} must be distinct")
            return ()
        return tuple(values)


def parse_config(raw: dict) -> RunConfig:
    """Build a :class:`RunConfig` from a JSON-shaped dict, or raise
    :class:`ConfigError` listing every detected problem."""
    if not isinstance(raw, dict):
        raise ConfigError(["configuration root must be a JSON object"])
    f = _Fields()
    f.reject_unknown(raw, _KNOWN[""])

    dataset = f.pull(raw, "dataset", dict)
    dataset_kind, synthetic, csv_path, date_column = "", None, None, "date"
    if dataset is not None:
        dataset_kind = f.pull(dataset, "kind", str, where="dataset")
        if dataset_kind in _DATASET_KINDS:
            f.reject_unknown(dataset, {"kind"} | _DATASET_KINDS[dataset_kind], "dataset")
        if dataset_kind == "synthetic":
            n_channels = f.pull_pos_int(dataset, "n_channels", "dataset")
            length = f.pull_pos_int(dataset, "length", "dataset")
            coupling = f.pull(dataset, "coupling", float, where="dataset")
            lag = f.pull_pos_int(dataset, "lag", "dataset")
            noise_std = f.pull(dataset, "noise_std", float, where="dataset")
            seed = f.pull(dataset, "seed", int, 0, where="dataset")
            if None not in (n_channels, length, coupling, lag, noise_std, seed):
                try:
                    synthetic = SyntheticSpec(n_channels, length, coupling, lag, noise_std, seed)
                except ValueError as exc:
                    f.fail(f"dataset: {exc}")
        elif dataset_kind == "csv":
            csv_path = f.pull(dataset, "path", str, where="dataset")
            date_column = f.pull(dataset, "date_column", str, "date", where="dataset") or "date"
        elif dataset_kind is not None:
            f.fail(f"dataset.kind must be 'synthetic' or 'csv', got {dataset_kind!r}")

    split_raw = f.pull(raw, "split", (dict, str), {"protocol": "ratio_70_10_20"})
    split = None
    if isinstance(split_raw, str):
        split_raw = {"protocol": split_raw}
    if isinstance(split_raw, dict):
        f.reject_unknown(split_raw, _KNOWN["split"], "split")
        try:
            if "protocol" in split_raw:
                split = SplitSpec(protocol=split_raw["protocol"])
            elif "boundaries" in split_raw:
                bounds = split_raw["boundaries"]
                if not (
                    isinstance(bounds, list)
                    and len(bounds) in (2, 3)
                    and all(isinstance(b, int) and not isinstance(b, bool) for b in bounds)
                ):
                    raise ValueError("boundaries must be a list of 2 or 3 integers")
                split = SplitSpec(boundaries=tuple(bounds))
            else:
                raise ValueError("split needs 'protocol' or 'boundaries'")
        except ValueError as exc:
            f.fail(f"split: {exc}")

    target = f.pull(raw, "target", str, TARGET_CHANNEL)
    select_top_k = f.pull(raw, "select_top_k", int, None)
    if select_top_k is not None and select_top_k < 0:
        f.fail(f"select_top_k must be non-negative, got {select_top_k}")

    context = f.pull_pos_int(raw, "context")
    horizons = f.pull_int_list(raw, "horizons", minimum=1)

    patch_raw = f.pull(raw, "patch", dict)
    patch_cfg = None
    if patch_raw is not None:
        f.reject_unknown(patch_raw, _KNOWN["patch"], "patch")
        p_len = f.pull_pos_int(patch_raw, "length", "patch")
        p_str = f.pull_pos_int(patch_raw, "stride", "patch")
        if None not in (p_len, p_str):
            patch_cfg = PatchConfig(p_len, p_str)
            if context is not None:
                try:
                    patch_cfg.n_patches(context)
                except ValueError as exc:
                    f.fail(str(exc))
                    patch_cfg = None

    model_raw = f.pull(raw, "model", dict, {})
    model_dim = heads = n_prototypes = n_routers = None
    backbone = None
    if model_raw is not None:
        f.reject_unknown(model_raw, _KNOWN["model"], "model")
        model_dim = f.pull_pos_int(model_raw, "dim", "model", 32)
        heads = f.pull_pos_int(model_raw, "heads", "model", 8)
        n_prototypes = f.pull_pos_int(model_raw, "prototypes", "model", 100)
        n_routers = f.pull_pos_int(model_raw, "routers", "model", 4)
        if None not in (model_dim, heads) and model_dim % heads != 0:
            f.fail(f"model.dim {model_dim} must be divisible by model.heads {heads}")
        bb_raw = f.pull(model_raw, "backbone", dict, {}, "model")
        if bb_raw is not None:
            f.reject_unknown(bb_raw, _KNOWN["model.backbone"], "model.backbone")
            layers = f.pull_pos_int(bb_raw, "layers", "model.backbone", 2)
            width = f.pull_pos_int(bb_raw, "width", "model.backbone", 32)
            bb_heads = f.pull_pos_int(bb_raw, "heads", "model.backbone", 4)
            default_hidden = None if width is None else 2 * width
            hidden = f.pull_pos_int(bb_raw, "hidden", "model.backbone", default_hidden)
            if None not in (layers, width, bb_heads, hidden):
                try:
                    backbone = BackboneConfig(layers, width, bb_heads, hidden)
                except ValueError as exc:
                    f.fail(f"model.backbone: {exc}")

    variants_raw = f.pull(raw, "variants", list, list(VARIANTS))
    variants: tuple[str, ...] = ()
    if variants_raw is not None:
        bad = [v for v in variants_raw if v not in VARIANTS]
        if not variants_raw:
            f.fail("variants must be non-empty")
        elif bad:
            f.fail(f"variants must be drawn from {VARIANTS}, got {bad}")
        elif len(set(variants_raw)) != len(variants_raw):
            f.fail("variants must be distinct")
        else:
            variants = tuple(variants_raw)

    train_raw = f.pull(raw, "train", dict)
    epochs = batch_size = patience = lr = None
    if train_raw is not None:
        f.reject_unknown(train_raw, _KNOWN["train"], "train")
        epochs = f.pull_pos_int(train_raw, "epochs", "train")
        batch_size = f.pull_pos_int(train_raw, "batch_size", "train", 8)
        patience = f.pull_pos_int(train_raw, "patience", "train", 10)
        lr = f.pull(train_raw, "lr", float, 1e-2, where="train")
        if lr is not None and lr < 0:
            f.fail(f"train.lr cannot be negative, got {lr}")

    seeds = f.pull_int_list(raw, "seeds", minimum=0, default=[0])
    output_dir = f.pull(raw, "output_dir", str, "runs/experiment")

    # checks that need several valid pieces at once
    if synthetic is not None and split is not None:
        try:
            a, _, _ = split.resolve(synthetic.length)
        except ValueError as exc:
            f.fail(f"split: {exc}")
        else:
            if context is not None and horizons and a < context + max(horizons):
                f.fail(
                    f"training segment of {a} steps cannot hold context {context} "
                    f"plus horizon {max(horizons)}"
                )

    if f.errors:
        raise ConfigError(f.errors)
    return RunConfig(
        dataset_kind=dataset_kind,
        synthetic=synthetic,
        csv_path=csv_path,
        date_column=date_column,
        split=split,
        target=target,
        select_top_k=select_top_k,
        context=context,
        horizons=horizons,
        patch=patch_cfg,
        model_dim=model_dim,
        heads=heads,
        n_prototypes=n_prototypes,
        n_routers=n_routers,
        backbone=backbone,
        variants=variants,
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        patience=patience,
        seeds=seeds,
        output_dir=output_dir,
        echo=raw,
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON run configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"no such config file: {path}"])
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from None
    return parse_config(raw)
