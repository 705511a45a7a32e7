"""Reversible instance normalisation and patch slicing."""

import numpy as np
import pytest

from cvpe.autodiff import as_tensor, parameter
from cvpe.preprocess import (
    PatchConfig,
    patch,
    project_patches,
    revin_denormalize,
    revin_normalize,
)
from oracles import patch_oracle


class TestRevin:
    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.normal(loc=rng.normal() * 10, scale=rng.uniform(0.5, 5), size=(4, 31))
            normed, state = revin_normalize(w)
            back = revin_denormalize(normed, state)
            np.testing.assert_allclose(back, w, atol=1e-9)

    def test_normalized_moments(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 64)) * 7 + 3
        normed, _ = revin_normalize(w)
        np.testing.assert_allclose(normed.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(normed.std(axis=-1), 1.0, atol=1e-12)

    def test_constant_channel_survives_the_clamp(self):
        w = np.full((2, 16), 5.0)
        normed, state = revin_normalize(w)
        assert np.all(np.isfinite(normed))
        np.testing.assert_allclose(normed, 0.0, atol=1e-12)
        np.testing.assert_allclose(revin_denormalize(normed, state), w, atol=1e-9)

    def test_batched_shapes_broadcast(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5, 3, 40))
        normed, state = revin_normalize(w)
        assert normed.shape == w.shape
        assert state.mean.shape == (5, 3, 1)
        np.testing.assert_allclose(revin_denormalize(normed, state), w, atol=1e-9)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 30))
        a, _ = revin_normalize(w)
        b, _ = revin_normalize(3.5 * w)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            revin_normalize(np.empty((2, 0)))
        with pytest.raises(ValueError):
            revin_normalize(np.array([[1.0, np.inf]]))

    def test_tensor_denormalize_matches_array_path(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(2, 24)) * 4 - 1
        normed, state = revin_normalize(w)
        out = revin_denormalize(as_tensor(normed), state)
        np.testing.assert_allclose(np.asarray(out), w, atol=1e-9)


class TestPatching:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PatchConfig(0, 4)
        with pytest.raises(ValueError):
            PatchConfig(4, 0)

    def test_known_patch_count(self):
        assert PatchConfig(16, 8).n_patches(256) == 30

    def test_count_formula_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            length = int(rng.integers(1, 20))
            stride = int(rng.integers(1, 12))
            steps = length + stride + int(rng.integers(0, 80))
            assert PatchConfig(length, stride).n_patches(steps) == (steps - length) // stride

    def test_window_too_short(self):
        with pytest.raises(ValueError):
            PatchConfig(16, 8).n_patches(20)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            length = int(rng.integers(2, 10))
            stride = int(rng.integers(1, 6))
            steps = length + stride + int(rng.integers(0, 40))
            v = rng.normal(size=steps)
            got = patch(v, PatchConfig(length, stride))
            np.testing.assert_array_equal(got, patch_oracle(v, length, stride))

    def test_batched_channels_patch_independently(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3, 50))
        cfg = PatchConfig(8, 4)
        got = patch(x, cfg)
        assert got.shape == (4, 3, cfg.n_patches(50), 8)
        np.testing.assert_array_equal(got[2, 1], patch_oracle(x[2, 1], 8, 4))

    def test_projection_shape_and_fan_in_check(self):
        rng = np.random.default_rng(8)
        patches = rng.normal(size=(3, 5, 8))
        w = parameter(rng.normal(size=(8, 6)) * 0.1, name="w")
        b = parameter(np.zeros(6), name="b")
        out = project_patches(patches, w, b)
        assert np.asarray(out).shape == (3, 5, 6)
        np.testing.assert_allclose(
            np.asarray(out), patches @ np.asarray(w) + np.asarray(b), atol=1e-12
        )
        with pytest.raises(ValueError):
            project_patches(rng.normal(size=(3, 5, 7)), w, b)
