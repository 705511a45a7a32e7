"""Run-configuration parsing and exhaustive validation."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from cvpe.config import ConfigError, RunConfig, load_config, parse_config
from cvpe.data import SyntheticSpec
from cvpe.model import BackboneConfig


def minimal(**overrides):
    raw = {
        "dataset": {
            "kind": "synthetic",
            "n_channels": 4,
            "length": 400,
            "coupling": 0.9,
            "lag": 4,
            "noise_std": 0.1,
            "seed": 0,
        },
        "context": 32,
        "horizons": [4],
        "patch": {"length": 8, "stride": 4},
        "train": {"epochs": 2},
    }
    raw.update(overrides)
    return raw


class TestParsing:
    def test_minimal_config_fills_documented_defaults(self):
        cfg = parse_config(minimal())
        assert isinstance(cfg.dataset, SyntheticSpec)
        assert cfg.split == "ratio_70_10_20"
        assert (cfg.model_dim, cfg.heads) == (32, 8)
        assert (cfg.n_prototypes, cfg.n_routers) == (100, 4)
        assert cfg.backbone == BackboneConfig(2, 32, 4, 64)
        assert cfg.variants == ("vanilla", "cvpe")
        assert (cfg.batch_size, cfg.lr, cfg.patience) == (8, 1e-2, 10)
        assert cfg.seeds == (0,)
        assert cfg.echo == minimal()
        # the fields are those above and the ones read from required keys
        assert [f.name for f in fields(RunConfig)] == [
            "dataset", "split", "context", "horizons", "patch", "model_dim", "heads", "n_prototypes",
            "n_routers", "backbone", "variants", "epochs", "batch_size", "lr", "patience", "seeds", "echo",
        ]

    def test_split_accepts_string_and_boundaries(self):
        cfg = parse_config(minimal(split="ett_hourly", dataset={"kind": "csv", "path": "data/x.csv"}))
        assert cfg.split == "ett_hourly"
        cfg = parse_config(minimal(split={"boundaries": [200, 300, 400]}))
        assert cfg.split == (200, 300, 400)

    @pytest.mark.parametrize("split, error", [
        ("weekly", "split: unknown split protocol 'weekly'; known: ['ett_hourly', 'ett_minute', 'ratio_70_10_20']"),
        ({"boundaries": [200, 300]}, "split.boundaries must be a list of 3 integers"),
        ({"boundaries": [200, 300, True]}, "split.boundaries must be a list of 3 integers"),
        ({"boundaries": [300, 200, 400]}, "split: split boundaries must be strictly increasing and positive, "
                                          "got (300, 200, 400)"),
    ], ids=["unknown_protocol", "two_boundaries", "boolean_boundary", "decreasing"])
    def test_split_problems_are_named(self, split, error):
        with pytest.raises(ConfigError) as info:
            parse_config(minimal(split=split))
        assert str(info.value) == f"invalid configuration: {error}"

    def test_every_problem_is_reported_at_once(self):
        raw = minimal()
        raw["model"] = {"dim": 30, "heads": 8}
        raw["horizons"] = []
        raw["bogus"] = 1
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        text = str(err.value)
        assert "model.dim 30 must be divisible by model.heads 8" in text
        assert "horizons must be non-empty" in text
        assert "unknown field 'bogus'" in text
        assert text.count("; ") >= 2

    def test_unknown_keys_inside_sections_are_named(self):
        raw = minimal(
            train={"epochs": 2, "patiense": 1},
            model={"router": 4, "backbone": {"width": 8, "heads": 2, "hiden": 3}},
            split={"protocol": "ratio_70_10_20", "boundary": [1, 2]},
            patch={"length": 8, "stride": 4, "len": 8},
        )
        raw["dataset"]["frequency"] = "hourly"
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert str(err.value) == "invalid configuration: " + "; ".join([
            "unknown field 'dataset.frequency'",
            "unknown field 'split.protocol'",
            "unknown field 'split.boundary'",
            "missing required field 'split.boundaries'",
            "unknown field 'patch.len'",
            "unknown field 'model.router'",
            "unknown field 'model.backbone.hiden'",
            "unknown field 'train.patiense'",
        ])

    def test_dataset_keys_depend_on_the_kind(self):
        raw = minimal()
        raw["dataset"] = {"kind": "csv", "path": "data/x.csv", "n_channels": 4}
        with pytest.raises(ConfigError, match="unknown field 'dataset.n_channels'"):
            parse_config(raw)

    def test_every_bundled_config_parses(self):
        # the benchmark's configs are parsed in test_benchmark_surface
        configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
        assert configs
        for path in configs:
            load_config(path)

    def test_missing_required_fields_are_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config({})
        text = str(err.value)
        for name in ("dataset", "context", "horizons", "patch", "train"):
            assert f"'{name}'" in text

    def test_booleans_are_not_integers(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal(context=True))
        assert "context must be an integer, got a boolean" in str(err.value)

    def test_variant_validation(self):
        with pytest.raises(ConfigError, match="drawn from"):
            parse_config(minimal(variants=["vanilla", "fancy"]))
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(minimal(variants=["vanilla", "vanilla"]))
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config(minimal(variants=[]))
        cfg = parse_config(minimal(variants=["cvpe"]))
        assert cfg.variants == ("cvpe",)

    def test_horizon_and_seed_lists(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(horizons=[4, 4]))
        with pytest.raises(ConfigError):
            parse_config(minimal(horizons=[0]))
        with pytest.raises(ConfigError):
            parse_config(minimal(seeds=[-1]))
        cfg = parse_config(minimal(seeds=[2, 0, 1]))
        assert cfg.seeds == (2, 0, 1)

    def test_synthetic_spec_problems_surface(self):
        raw = minimal()
        raw["dataset"]["coupling"] = 1.5
        with pytest.raises(ConfigError, match="dataset"):
            parse_config(raw)

    def test_patch_must_fit_context(self):
        with pytest.raises(ConfigError, match="too short"):
            parse_config(minimal(patch={"length": 30, "stride": 8}))

    def test_train_segment_must_hold_a_window(self):
        raw = minimal()
        raw["dataset"]["length"] = 50  # train split is 35 < 32 + 4
        with pytest.raises(ConfigError, match="training segment"):
            parse_config(raw)

    def test_train_epochs_batch_size_and_patience_must_be_positive(self):
        for key in ("epochs", "batch_size", "patience"):
            with pytest.raises(ConfigError, match=f"train.{key} must be positive, got 0"):
                parse_config(minimal(train={"epochs": 1, key: 0}))

    def test_lr_zero_allowed_negative_rejected(self):
        cfg = parse_config(minimal(train={"epochs": 1, "lr": 0.0}))
        assert cfg.lr == 0.0
        with pytest.raises(ConfigError, match="lr"):
            parse_config(minimal(train={"epochs": 1, "lr": -1.0}))

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_named(self, value):
        number = json.loads(value)  # json reads these three words as floats
        raw = minimal(train={"epochs": 1, "lr": number})
        raw["dataset"]["noise_std"] = number
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == (
            f"invalid configuration: dataset.noise_std must be finite, got {number}; "
            f"train.lr must be finite, got {number}"
        )

    def test_csv_dataset_fields(self):
        raw = minimal()
        raw["dataset"] = {"kind": "csv", "path": "data/x.csv"}
        cfg = parse_config(raw)
        assert cfg.dataset == "data/x.csv"
        raw["dataset"] = {"kind": "tape"}
        with pytest.raises(ConfigError, match="kind"):
            parse_config(raw)

    @pytest.mark.parametrize("dataset, errors", [
        ({"path": "data/x.csv"}, ["missing required field 'dataset.kind'"]),
        ({"kind": "tape", "path": "x"}, ["dataset.kind must be 'synthetic' or 'csv', got 'tape'"]),
        ({"kind": 3}, ["dataset.kind must be str, got int"]),
        # the timestamp column is fixed, so the key is unknown even holding its old default
        ({"kind": "csv", "path": "data/x.csv", "date_column": "date"}, ["unknown field 'dataset.date_column'"]),
        ({"kind": "csv", "date_column": None},
         ["unknown field 'dataset.date_column'", "missing required field 'dataset.path'"]),
    ])
    def test_dataset_problems_are_named(self, dataset, errors):
        with pytest.raises(ConfigError) as info:
            parse_config(minimal(dataset=dataset))
        assert str(info.value) == "invalid configuration: " + "; ".join(errors)

    def test_backbone_hidden_defaults_to_twice_the_width(self):
        cfg = parse_config(minimal(model={"backbone": {"width": 8, "heads": 2}}))
        assert cfg.backbone.hidden == 16
        cfg = parse_config(minimal(model={"backbone": {"width": 8, "heads": 2, "hidden": 5}}))
        assert cfg.backbone.hidden == 5


class TestLoading:
    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(minimal()))
        cfg = load_config(path)
        assert cfg.context == 32

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```jsonc\n(.*?)```", readme, re.S)
    cfg = parse_config(json.loads(re.sub(r"//.*", "", block)))
    assert cfg.backbone.hidden == 2 * cfg.backbone.width
