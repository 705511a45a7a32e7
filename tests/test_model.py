"""Full forecaster: reprogramming, backbone, variants, checkpoints."""

from pathlib import Path

import numpy as np
import pytest
from conftest import identity_block

from cvpe.config import load_config
from cvpe.embedding import AttentionConfig, ScoreCounter
from cvpe.layers import rng_from
from cvpe.model import (
    BackboneConfig,
    BackboneLayer,
    ModelParams,
    PrototypeBank,
    ReprogramParams,
    backbone_forward,
    build_model,
    forecast_batch,
    load_checkpoint,
    reprogram,
    save_checkpoint,
)
from cvpe.preprocess import PatchConfig
from oracles import backbone_layer_oracle, cross_attention_oracle


def arr(t):
    return np.asarray(t)


def tiny_model(variant, seed=0, **overrides):
    kwargs = dict(
        context=32,
        horizon=4,
        patch_cfg=PatchConfig(8, 4),
        model_dim=8,
        heads=2,
        n_prototypes=6,
        n_routers=2,
        backbone_cfg=BackboneConfig(n_layers=1, width=8, heads=2, hidden=16),
        seed=seed,
    )
    kwargs.update(overrides)
    return ModelParams.build(variant, **kwargs)


class TestReprogram:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            heads = int(rng.choice([1, 2]))
            d = heads * int(rng.integers(2, 4))
            width = d  # query/key live in model dim; out maps to width
            params = ReprogramParams.init(
                d, width, int(rng.integers(1, 8)), np.random.default_rng(trial), f"rp{trial}"
            )
            x = rng.normal(size=(5, d))
            got = arr(reprogram(x, params, AttentionConfig(heads)))
            want = cross_attention_oracle(
                x,
                arr(params.bank.table),
                arr(params.query.w),
                arr(params.key.w),
                arr(params.value.w),
                arr(params.value.b),
                arr(params.out.w),
                arr(params.out.b),
                heads,
            )
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_single_prototype_broadcasts_its_value(self):
        rng = np.random.default_rng(1)
        d = 4
        params = ReprogramParams.init(d, d, 1, np.random.default_rng(2), "rp")
        x = rng.normal(size=(7, d))
        got = arr(reprogram(x, params, AttentionConfig(2)))
        proto_value = arr(params.value.apply(params.bank.table))
        want = proto_value @ arr(params.out.w) + arr(params.out.b)
        np.testing.assert_allclose(got, np.broadcast_to(want, got.shape), atol=1e-12)

    def test_prototype_bank_needs_an_entry(self):
        with pytest.raises(ValueError):
            PrototypeBank.init(0, 4, np.random.default_rng(0), "p")


class TestBackbone:
    def test_single_layer_matches_oracle(self):
        rng = np.random.default_rng(3)
        cfg = BackboneConfig(n_layers=1, width=6, heads=2, hidden=10)
        layer = BackboneLayer.init(cfg, np.random.default_rng(4), "bb")
        x = rng.normal(size=(5, 6))
        got = arr(backbone_forward(x, [layer], cfg))
        want = backbone_layer_oracle(
            x,
            arr(layer.ln1.gain),
            arr(layer.ln1.bias),
            arr(layer.q.w),
            arr(layer.k.w),
            arr(layer.v.w),
            arr(layer.v.b),
            arr(layer.out.w),
            arr(layer.out.b),
            arr(layer.ln2.gain),
            arr(layer.ln2.bias),
            arr(layer.mlp.fc1.w),
            arr(layer.mlp.fc1.b),
            arr(layer.mlp.fc2.w),
            arr(layer.mlp.fc2.b),
            heads=2,
        )
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_stacked_layers_compose(self):
        rng = np.random.default_rng(5)
        cfg = BackboneConfig(n_layers=2, width=4, heads=2, hidden=8)
        layers = [
            BackboneLayer.init(cfg, np.random.default_rng(6), "bb0"),
            BackboneLayer.init(cfg, np.random.default_rng(7), "bb1"),
        ]
        x = rng.normal(size=(3, 4))
        both = arr(backbone_forward(x, layers, cfg))
        first = backbone_forward(x, layers[:1], cfg)
        chained = arr(backbone_forward(first, layers[1:], cfg))
        np.testing.assert_allclose(both, chained, atol=1e-12)

    def test_config_validation(self):
        # layers, width, heads, hidden: each must be positive, and the heads
        # must divide the width
        for sizes in ((0, 8, 2, 16), (1, 0, 1, 16), (1, 8, 0, 16), (1, 8, 2, 0), (1, 6, 4, 12)):
            with pytest.raises(ValueError):
                BackboneConfig(*sizes)


class TestForecaster:
    def test_output_shapes(self):
        params = tiny_model("vanilla")
        rng = np.random.default_rng(8)
        batch = rng.normal(size=(3, 4, 32))
        out = arr(forecast_batch(batch, params))
        assert out.shape == (3, 4, 4)

    def test_single_window_agrees_with_batch(self):
        # a window's forecast does not depend on the other windows in its batch
        for variant in ("vanilla", "cvpe"):
            params = tiny_model(variant)
            rng = np.random.default_rng(9)
            batch = rng.normal(size=(2, 3, 32))
            whole = arr(forecast_batch(batch, params))
            for i in range(2):
                single = arr(forecast_batch(batch[i][None], params))
                assert single.shape == (1, 3, 4)
                np.testing.assert_allclose(single[0], whole[i], atol=1e-12)

    def test_vanilla_channels_are_exactly_independent(self):
        params = tiny_model("vanilla")
        rng = np.random.default_rng(10)
        w = rng.normal(size=(1, 3, 32))
        base = arr(forecast_batch(w, params))
        bumped = w.copy()
        bumped[0, 0] = rng.normal(size=32) * 5 + 2
        moved = arr(forecast_batch(bumped, params))
        np.testing.assert_array_equal(moved[0, 1:], base[0, 1:])
        assert np.max(np.abs(moved[0, 0] - base[0, 0])) > 1e-6

    def test_cross_variate_variant_couples_channels(self):
        params = tiny_model("cvpe")
        rng = np.random.default_rng(11)
        w = rng.normal(size=(1, 3, 32))
        base = arr(forecast_batch(w, params))
        bumped = w.copy()
        bumped[0, 0] = rng.normal(size=32) * 5 + 2
        moved = arr(forecast_batch(bumped, params))
        assert np.max(np.abs(moved[0, 1:] - base[0, 1:])) > 1e-8

    def test_identity_block_reproduces_vanilla(self):
        vanilla = tiny_model("vanilla", seed=3)
        twin = tiny_model("cvpe", seed=3)
        twin.cvpe = identity_block(twin.n_positions, twin.model_dim, twin.n_routers)
        rng = np.random.default_rng(12)
        w = rng.normal(size=(2, 3, 32))
        np.testing.assert_allclose(
            arr(forecast_batch(w, twin)), arr(forecast_batch(w, vanilla)), atol=1e-9
        )

    def test_paired_seeds_share_all_non_block_parameters(self):
        vanilla = tiny_model("vanilla", seed=5)
        cvpe = tiny_model("cvpe", seed=5)
        shared = {p.name: p.data for p in vanilla.parameters()}
        for p in cvpe.parameters():
            if p.name.startswith("cvpe."):
                continue
            np.testing.assert_array_equal(p.data, shared[p.name])
        assert any(p.name.startswith("cvpe.") for p in cvpe.parameters())

    def test_different_seeds_differ(self):
        a = tiny_model("vanilla", seed=0)
        b = tiny_model("vanilla", seed=1)
        assert not np.array_equal(arr(a.head.w), arr(b.head.w))

    def test_component_streams_are_separate(self):
        # drawing order inside one stream must not bleed into another
        a = rng_from(7, 0).normal(size=3)
        b = rng_from(7, 1).normal(size=3)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, rng_from(7, 0).normal(size=3))

    def test_counter_counts_only_embedding_and_reprogram_scores(self):
        params = tiny_model("cvpe")
        counter = ScoreCounter()
        w = np.random.default_rng(13).normal(size=(2, 3, 32))
        forecast_batch(w, params, counter)
        batch, n, p = 2, 3, params.n_positions
        heads, routers, protos = 2, params.n_routers, params.n_prototypes
        embed = 2 * batch * p * heads * routers * n
        reprog = batch * n * heads * p * protos
        assert counter.count == embed + reprog

    def test_score_cost_is_linear_in_channels(self):
        params = tiny_model("cvpe")
        counts = {}
        for n in (2, 4):
            counter = ScoreCounter()
            w = np.random.default_rng(n).normal(size=(1, n, 32))
            forecast_batch(w, params, counter)
            counts[n] = counter.count
        assert counts[4] == 2 * counts[2]

    def test_input_validation(self):
        params = tiny_model("vanilla")
        with pytest.raises(ValueError):
            forecast_batch(np.zeros((2, 32)), params)
        with pytest.raises(ValueError):
            forecast_batch(np.zeros((1, 2, 30)), params)
        with pytest.raises(ValueError):
            tiny_model("fancy")
        with pytest.raises(ValueError):
            tiny_model("vanilla", context=0)
        with pytest.raises(ValueError):
            tiny_model("vanilla", model_dim=7)

    def test_vanilla_has_no_block_parameters(self):
        names = [p.name for p in tiny_model("vanilla").parameters()]
        assert not any(n.startswith("cvpe.") for n in names)


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        for variant in ("vanilla", "cvpe"):
            params = tiny_model(variant, seed=9)
            # perturb away from the deterministic init to make the test real
            for p in params.parameters():
                p.data = p.data + np.random.default_rng(1).normal(size=p.data.shape)
            path = tmp_path / f"{variant}.npz"
            save_checkpoint(path, params)
            loaded = load_checkpoint(path)
            assert loaded.structure() == params.structure()
            saved = {p.name: p.data for p in params.parameters()}
            for p in loaded.parameters():
                np.testing.assert_array_equal(p.data, saved[p.name])
            w = np.random.default_rng(2).normal(size=(1, 2, 32))
            np.testing.assert_array_equal(
                arr(forecast_batch(w, loaded)), arr(forecast_batch(w, params))
            )

    def test_missing_file_and_missing_parameter(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.npz")
        params = tiny_model("cvpe")
        path = tmp_path / "model.npz"
        save_checkpoint(path, params)
        import numpy as np_

        with np_.load(path) as bundle:
            arrays = {k: bundle[k] for k in bundle.files if k != "head.w"}
        with open(path, "wb") as fh:
            np_.savez(fh, **arrays)
        with pytest.raises(ValueError, match="head.w"):
            load_checkpoint(path)

    def test_structure_holds_every_build_argument(self):
        params = tiny_model(
            "cvpe", context=40, horizon=5, patch_cfg=PatchConfig(10, 6), model_dim=12,
            heads=3, n_prototypes=7, n_routers=4,
            backbone_cfg=BackboneConfig(n_layers=2, width=9, heads=3, hidden=11),
        )
        assert params.structure() == {
            "variant": "cvpe", "context": 40, "horizon": 5, "patch_length": 10,
            "patch_stride": 6, "model_dim": 12, "heads": 3, "n_prototypes": 7,
            "n_routers": 4, "backbone_layers": 2, "backbone_width": 9,
            "backbone_heads": 3, "backbone_hidden": 11,
        }

    def test_structure_round_trip(self):
        params = tiny_model("cvpe")
        rebuilt = ModelParams.from_structure(params.structure())
        assert rebuilt.structure() == params.structure()
        assert [p.name for p in rebuilt.parameters()] == [
            p.name for p in params.parameters()
        ]


@pytest.mark.parametrize("variant", ["vanilla", "cvpe"])
def test_build_model_takes_every_structural_field_from_the_config(variant):
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "gradcheck_tiny.json")
    got = build_model(config, variant, horizon=3, seed=5)
    assert (got.variant, got.context, got.horizon, got.patch_cfg) == (variant, config.context, 3, config.patch)
    assert (got.model_dim, got.attn_cfg.heads) == (config.model_dim, config.heads)
    assert (got.n_prototypes, got.n_routers, got.backbone_cfg) == (
        config.n_prototypes, config.n_routers, config.backbone,
    )
    same, other = build_model(config, variant, 3, 5), build_model(config, variant, 3, 6)
    np.testing.assert_array_equal(got.head.w.data, same.head.w.data)
    assert not np.array_equal(got.head.w.data, other.head.w.data)


# The parameter order keys checkpoints, lays out Adam's moment vector and
# fixes the coordinates grad_check samples; these lists pin it.
_BACKBONE_AND_HEAD = [
    "backbone.0.ln1.gain", "backbone.0.ln1.bias", "backbone.0.q.w", "backbone.0.k.w",
    "backbone.0.v.w", "backbone.0.v.b", "backbone.0.out.w", "backbone.0.out.b",
    "backbone.0.ln2.gain", "backbone.0.ln2.bias",
    "backbone.0.mlp.fc1.w", "backbone.0.mlp.fc1.b", "backbone.0.mlp.fc2.w", "backbone.0.mlp.fc2.b",
    "head.w", "head.b",
]
_PARAMETER_NAMES = {
    "vanilla": [
        "patch_proj.w", "patch_proj.b",
        "reprogram.prototypes", "reprogram.query.w", "reprogram.key.w",
        "reprogram.value.w", "reprogram.value.b", "reprogram.out.w", "reprogram.out.b",
        *_BACKBONE_AND_HEAD,
    ],
    "cvpe": [
        "patch_proj.w", "patch_proj.b",
        "cvpe.positional", "cvpe.routers",
        "cvpe.collect_out.w", "cvpe.collect_out.b", "cvpe.dispatch_out.w", "cvpe.dispatch_out.b",
        "cvpe.mlp.fc1.w", "cvpe.mlp.fc1.b", "cvpe.mlp.fc2.w", "cvpe.mlp.fc2.b",
        "cvpe.ln1.gain", "cvpe.ln1.bias", "cvpe.ln2.gain", "cvpe.ln2.bias",
        "reprogram.prototypes", "reprogram.query.w", "reprogram.key.w",
        "reprogram.value.w", "reprogram.value.b", "reprogram.out.w", "reprogram.out.b",
        *_BACKBONE_AND_HEAD,
    ],
}


@pytest.mark.parametrize("variant", ["vanilla", "cvpe"])
def test_parameter_order_is_pinned(variant):
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "gradcheck_tiny.json")
    params = build_model(config, variant, config.horizons[0], 0)
    assert [p.name for p in params.parameters()] == _PARAMETER_NAMES[variant]
