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
from types import SimpleNamespace

from .data import SPLIT_PROTOCOLS, SyntheticSpec, split_bounds, window_count
from .model import BackboneConfig, VARIANTS
from .preprocess import PatchConfig

POSITIVE = "positive int"  # a kind: an integer of at least 1
_REQUIRED = object()  # the default of a key that must be given
_UNSET = object()  # the default of a key whose absence the section tells apart


class ConfigError(ValueError):
    """Invalid run configuration; the message lists every problem found."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid configuration: " + "; ".join(errors))


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment description."""

    dataset: SyntheticSpec | str  # a CSV dataset is the path load_csv reads
    split: str | tuple[int, int, int]  # a protocol name or (train_end, val_end, test_end)
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
    echo: dict = field(compare=False, repr=False, default_factory=dict)


class _Fields:
    """Reads typed values out of a nested dict, remembering every problem."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, msg: str):
        if msg not in self.errors:
            self.errors.append(msg)

    def build(self, where: str, make, *args):
        """``make(*args)``, or None when an argument is None (it failed its own
        read) or ``make`` raises ValueError, which is reported under ``where``."""
        if None in args:
            return None
        try:
            return make(*args)
        except ValueError as exc:
            self.fail(f"{where}: {exc}" if where else str(exc))
            return None

    def read(self, obj, keys: dict, where: str = "", into: dict | None = None) -> dict:
        """One section's values in the order of ``keys``, which maps each key the
        section may hold to a kind (a JSON type, a tuple of them, ``object`` or
        POSITIVE), ``(kind, default)`` or ``(kind, default, then)``.  A key
        without a default is required, and any other key is an error, so a
        typo cannot fall back to a default unnoticed.  A failed value reads as
        None; ``then(value, label)`` turns any other into the value kept, as
        :meth:`build` does, and a dict it returns replaces the key.  ``into``
        takes the values as they come, for later keys."""
        got = {} if into is None else into
        if not isinstance(obj, dict):
            self.fail(f"{where} must be dict, got {type(obj).__name__}")
            return dict.fromkeys(keys)
        for key in obj:
            if key not in keys:
                self.fail(f"unknown field {f'{where}.{key}' if where else key!r}")
        for key, spec in keys.items():
            kind, default, then = (*spec, None)[:3] if isinstance(spec, tuple) else (spec, _REQUIRED, None)
            label = f"{where}.{key}" if where else key
            value = self._pull(obj, key, kind, default, label)
            if then is not None and value is not None:
                value = self.build("", then, value, label)
                if isinstance(value, dict):
                    got.update(value)
                    continue
            got[key] = value
        return got

    def _pull(self, obj: dict, key: str, kind, default, label: str):
        if key not in obj:
            if default is _REQUIRED:
                self.fail(f"missing required field {label!r}")
                return None
            return default
        value = obj[key]
        json_type = int if kind is POSITIVE else kind
        if json_type is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if json_type is int and isinstance(value, bool):
            self.fail(f"{label} must be an integer, got a boolean")
            return None
        if not isinstance(value, json_type):
            name = getattr(json_type, "__name__", None) or " or ".join(k.__name__ for k in json_type)
            self.fail(f"{label} must be {name}, got {type(value).__name__}")
            return None
        if json_type is float and not math.isfinite(value):
            # json reads NaN and Infinity, which no field can take
            self.fail(f"{label} must be finite, got {value}")
            return None
        if kind is POSITIVE and value < 1:
            self.fail(f"{label} must be positive, got {value}")
            return None
        return value


def _at_least(bound, words: str):
    """A then-step that rejects values below ``bound`` in ``words``."""

    def check(value, label):
        if value < bound:
            raise ValueError(f"{label} {words}, got {value}")
        return value

    return check


def _distinct(accept, problem: str):
    """A then-step: a non-empty list of distinct values ``accept`` takes, as a
    tuple; ``problem`` words those it does not, put in place of ``{}``."""

    def check(values, label):
        bad = [v for v in values if not accept(v)]
        if not values:
            raise ValueError(f"{label} must be non-empty")
        if bad:
            raise ValueError(f"{label} {problem.format(bad)}")
        if len(set(values)) != len(values):
            raise ValueError(f"{label} must be distinct")
        return tuple(values)

    return check


def _ints(minimum: int):
    return _distinct(
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= minimum,
        f"must all be integers >= {minimum}",
    )


# A dataset's kind decides its spec and which other keys it holds.
_DATASET_KIND = {"kind": str}
_DATASETS = {
    "synthetic": (SyntheticSpec, {"n_channels": POSITIVE, "length": POSITIVE, "coupling": float,
                                  "lag": POSITIVE, "noise_std": float, "seed": (int, 0)}),
    "csv": (str, {"path": str}),
}


def _boundaries(boundaries, label) -> tuple[int, int, int]:
    """A then-step: the split's (train_end, val_end, test_end)."""
    if not (len(boundaries) == 3
            and all(isinstance(b, int) and not isinstance(b, bool) for b in boundaries)):
        raise ValueError(f"{label} must be a list of 3 integers")
    return tuple(boundaries)


def parse_config(raw: dict) -> RunConfig:
    """Build a :class:`RunConfig` from a JSON-shaped dict, or raise
    :class:`ConfigError` listing every detected problem."""
    if not isinstance(raw, dict):
        raise ConfigError(["configuration root must be a JSON object"])
    f = _Fields()
    cfg = SimpleNamespace(echo=raw)  # RunConfig's fields, set as they are read

    def dataset(value, where):
        # the kind alone first, as the other keys, and so the unknown ones, depend on it
        (kind,) = f.read({k: v for k, v in value.items() if k in _DATASET_KIND}, _DATASET_KIND, where).values()
        if kind not in _DATASETS:
            if kind is not None:
                f.fail(f"{where}.kind must be {' or '.join(map(repr, _DATASETS))}, got {kind!r}")
            return None
        spec, keys = _DATASETS[kind]
        _, *values = f.read(value, _DATASET_KIND | keys, where).values()
        return f.build(where, spec, *values)

    def split(value, where):
        if isinstance(value, str):
            if value not in SPLIT_PROTOCOLS:
                f.fail(f"{where}: unknown split protocol {value!r}; known: {sorted(SPLIT_PROTOCOLS)}")
                return None
            return value
        (bounds,) = f.read(value, {"boundaries": (list, _REQUIRED, _boundaries)}, where).values()
        return bounds

    def patch(value, where):
        length, stride = f.read(value, {"length": POSITIVE, "stride": POSITIVE}, where).values()
        patch_cfg = f.build(where, PatchConfig, length, stride)
        return patch_cfg if patch_cfg and f.build("", patch_cfg.n_patches, cfg.context) else None

    def model(value, where):
        dim, heads, prototypes, routers, backbone = f.read(value, {
            "dim": (POSITIVE, 32), "heads": (POSITIVE, 8), "prototypes": (POSITIVE, 100), "routers": (POSITIVE, 4),
            "backbone": (object, {}),  # read after the check below
        }, where).values()
        if None not in (dim, heads) and dim % heads != 0:
            f.fail(f"{where}.dim {dim} must be divisible by {where}.heads {heads}")
        where = f"{where}.backbone"
        layers, width, bb_heads, hidden = f.read(backbone, {
            "layers": (POSITIVE, 2), "width": (POSITIVE, 32), "heads": (POSITIVE, 4), "hidden": (POSITIVE, _UNSET),
        }, where).values()
        if hidden is _UNSET:
            hidden = width and 2 * width
        backbone = f.build(where, BackboneConfig, layers, width, bb_heads, hidden)
        return dict(model_dim=dim, heads=heads, n_prototypes=prototypes, n_routers=routers, backbone=backbone)

    f.read(raw, {
        "dataset": (dict, _REQUIRED, dataset),
        "split": ((dict, str), "ratio_70_10_20", split),
        "context": POSITIVE,
        "horizons": (list, _REQUIRED, _ints(1)),
        "patch": (dict, _REQUIRED, patch),
        "model": (dict, {}, model),
        "variants": (list, list(VARIANTS), _distinct(lambda v: v in VARIANTS, f"must be drawn from {VARIANTS}, got {{}}")),
        "train": (dict, _REQUIRED, lambda value, where: f.read(value, {
            "epochs": POSITIVE, "batch_size": (POSITIVE, 8), "patience": (POSITIVE, 10),
            "lr": (float, 1e-2, _at_least(0, "cannot be negative")),
        }, where)),
        "seeds": (list, [0], _ints(0)),
    }, into=vars(cfg))

    # checks that need several valid pieces at once
    if isinstance(cfg.dataset, SyntheticSpec) and cfg.split is not None:
        try:
            a, _, _ = split_bounds(cfg.split, cfg.dataset.length)
        except ValueError as exc:
            f.fail(f"split: {exc}")
        else:
            if cfg.context is not None and cfg.horizons and window_count(a, cfg.context, max(cfg.horizons)) == 0:
                f.fail(f"training segment of {a} steps cannot hold context {cfg.context} "
                       f"plus horizon {max(cfg.horizons)}")

    if f.errors:
        raise ConfigError(f.errors)
    return RunConfig(**vars(cfg))


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON run configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"no such config file: {path}"])
    try:
        raw = json.loads(path.read_text())
    # RecursionError: nesting too deep for the parser
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from None
    return parse_config(raw)
