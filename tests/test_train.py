"""Loss, optimiser, gradient checking, and the training loop."""

import numpy as np
import pytest

from cvpe.autodiff import NumericError, as_tensor, parameter, power, tsum
from cvpe.data import SyntheticSpec, generate_synthetic
from cvpe.model import BackboneConfig, ModelParams, forecast_batch
from cvpe.preprocess import PatchConfig
from cvpe.train import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    backward,
    evaluate,
    grad_check,
    make_windows,
    model_forecast_fn,
    mse_loss,
    plan_schedule,
    schedule_digest,
    train_loop,
)


def tiny_model(variant, seed=0, context=24, horizon=3):
    return ModelParams.build(
        variant,
        context=context,
        horizon=horizon,
        patch_cfg=PatchConfig(6, 3),
        model_dim=4,
        heads=2,
        n_prototypes=5,
        n_routers=2,
        backbone_cfg=BackboneConfig(n_layers=1, width=4, heads=2, hidden=8),
        seed=seed,
    )


def tiny_dataset(seed=0, n=3, length=160):
    series = generate_synthetic(SyntheticSpec(n, length, 0.8, 2, 0.05, seed))
    cut = int(0.8 * length)
    train = make_windows(series.values[:, :cut], 24, 3)
    val = make_windows(series.values[:, cut:], 24, 3)
    return train, val


class TestLossAndGradients:
    def test_mse_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        got = mse_loss(as_tensor(a), b).item()
        assert got == pytest.approx(np.mean((a - b) ** 2), abs=1e-12)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(as_tensor(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_backward_returns_zero_for_untouched_parameters(self):
        x = parameter(np.ones(3), "used")
        unused = parameter(np.ones(2), "unused")
        loss = mse_loss(x, np.zeros(3))
        grads = backward(loss, [x, unused])
        np.testing.assert_allclose(grads[0], 2.0 / 3.0 * np.ones(3), atol=1e-12)
        np.testing.assert_array_equal(grads[1], np.zeros(2))

    def test_non_finite_gradient_names_stage_and_parameter(self):
        # d/dp sqrt(p) is infinite at p = 0 while the loss stays finite
        p = parameter(np.array([0.0, 1.0]), "p")
        with np.errstate(divide="ignore"):
            loss = tsum(power(p, 0.5))
            with pytest.raises(NumericError) as err:
                backward(loss, [p])
        assert err.value.stage == "backward"
        assert "non-finite gradient for p" in str(err.value)

    @pytest.mark.parametrize("variant", ["vanilla", "cvpe"])
    def test_model_gradients_are_separate_writeable_arrays(self, variant):
        (tw, tt), _ = tiny_dataset()
        params = tiny_model(variant)
        plist = params.parameters()
        grads = backward(mse_loss(forecast_batch(tw[:4], params), tt[:4]), plist)
        assert all(g.flags.writeable for g in grads)
        for i, gi in enumerate(grads):
            for gj in grads[i + 1 :]:
                assert not np.shares_memory(gi, gj)

    def test_linear_regression_gradient_is_closed_form(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 3))
        w = parameter(rng.normal(size=(3, 1)), "w")
        y = rng.normal(size=(10, 1))
        from cvpe.autodiff import matmul

        pred = matmul(x, w)
        loss = mse_loss(pred, y)
        (grad,) = backward(loss, [w])
        resid = x @ np.asarray(w) - y
        want = 2.0 / y.size * (x.T @ resid)
        np.testing.assert_allclose(grad, want, atol=1e-12)


class TestAdam:
    def test_zero_learning_rate_leaves_parameters_alone(self):
        p = parameter(np.arange(4.0), "p")
        state = AdamState.init([p], lr=0.0)
        before = p.data.copy()
        adam_step(state, [p], [np.ones(4)])
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_moves_by_lr_in_sign_direction(self):
        # with bias correction the very first update is lr * sign(g)
        p = parameter(np.zeros(3), "p")
        state = AdamState.init([p], lr=0.1)
        adam_step(state, [p], [np.array([4.0, -2.0, 0.5])])
        np.testing.assert_allclose(p.data, [-0.1, 0.1, -0.1], rtol=1e-6)

    def test_converges_on_identity_regression(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(64, 2))
        w = parameter(np.zeros((2, 2)), "w")
        state = AdamState.init([w], lr=0.05)
        from cvpe.autodiff import matmul

        for _ in range(200):
            loss = mse_loss(matmul(x, w), x)
            grads = backward(loss, [w])
            adam_step(state, [w], grads)
        final = mse_loss(matmul(x, w), x).item()
        assert final < 1e-3
        np.testing.assert_allclose(np.asarray(w), np.eye(2), atol=0.05)

    def test_flat_update_gives_the_per_parameter_bits(self):
        # the update runs over all parameters laid end to end; each element
        # sees the same expression as a per-parameter update
        rng = np.random.default_rng(5)
        shapes = [(3, 4), (4,), (2, 1, 3), ()]
        params = [parameter(rng.normal(size=s), f"p{i}") for i, s in enumerate(shapes)]
        want = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        state = AdamState.init(params, lr=0.03)
        for t in range(1, 6):
            grads = [rng.normal(size=s) for s in shapes]
            adam_step(state, params, grads)
            for i, g in enumerate(grads):
                m[i] = m[i] * 0.9 + (1.0 - 0.9) * g
                v[i] = v[i] * 0.999 + (1.0 - 0.999) * g * g
                step = 0.03 * (m[i] / (1.0 - 0.9**t)) / (np.sqrt(v[i] / (1.0 - 0.999**t)) + 1e-8)
                want[i] = want[i] - step
            for p, w in zip(params, want):
                assert p.data.shape == w.shape
                np.testing.assert_array_equal(p.data, w)

    def test_mismatched_lengths_and_shapes(self):
        p = parameter(np.zeros(2), "p")
        state = AdamState.init([p])
        with pytest.raises(ValueError):
            adam_step(state, [p], [np.zeros(2), np.zeros(2)])
        with pytest.raises(ValueError):
            adam_step(state, [p], [np.zeros(3)])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, lr=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, patience=0)
        TrainConfig(epochs=1, lr=0.0)  # zero is allowed: a frozen run


class TestWindows:
    def test_shapes_and_alignment(self):
        values = np.arange(40.0).reshape(2, 20)
        windows, targets = make_windows(values, context=6, horizon=2)
        assert windows.shape == (13, 2, 6)
        assert targets.shape == (13, 2, 2)
        np.testing.assert_array_equal(windows[0, 0], np.arange(6.0))
        np.testing.assert_array_equal(targets[0, 0], [6.0, 7.0])
        np.testing.assert_array_equal(windows[12, 1], np.arange(32.0, 38.0))

    def test_stride_skips_starts(self):
        values = np.arange(20.0)[None]
        w1, _ = make_windows(values, 4, 1, stride=1)
        w3, _ = make_windows(values, 4, 1, stride=3)
        assert w1.shape[0] == 16
        assert w3.shape[0] == 6
        np.testing.assert_array_equal(w3[1, 0], w1[3, 0])

    @pytest.mark.parametrize("channels,stride", [(3, 1), (3, 3), (1, 7)])
    def test_matches_slicing_at_every_start(self, channels, stride):
        # one channel at a stride equal to the context is the case where a
        # contiguous view of the input could be returned instead of a copy
        values = np.random.default_rng(3).normal(size=(channels, 40))
        windows, targets = make_windows(values, 7, 4, stride=stride)
        starts = range(0, 40 - 11 + 1, stride)
        want_w = np.stack([values[:, s : s + 7] for s in starts])
        want_t = np.stack([values[:, s + 7 : s + 11] for s in starts])
        for got, want in ((windows, want_w), (targets, want_t)):
            assert got.flags.c_contiguous
            assert not np.shares_memory(got, values)
            np.testing.assert_array_equal(got, want)

    def test_too_short_segment(self):
        with pytest.raises(ValueError):
            make_windows(np.zeros((1, 5)), context=4, horizon=2)


class TestGradCheck:
    def test_model_gradients_match_finite_differences(self):
        params = tiny_model("cvpe")
        (windows, targets), _ = tiny_dataset()
        report = grad_check(params, windows[:2], targets[:2], samples_per_tensor=4)
        assert report.passed, f"max rel err {report.max_rel_err:.3e}"
        assert report.max_rel_err < 1e-4
        assert len(report.entries) == len(params.parameters())

    def test_corrupted_gradient_is_caught(self):
        params = tiny_model("vanilla")
        (windows, targets), _ = tiny_dataset()
        report = grad_check(
            params, windows[:2], targets[:2], samples_per_tensor=4, corrupt="head.b"
        )
        assert not report.passed
        worst = max(report.entries, key=lambda e: e.max_rel_err)
        assert worst.name == "head.b"

    def test_unknown_corrupt_name(self):
        params = tiny_model("vanilla")
        (windows, targets), _ = tiny_dataset()
        with pytest.raises(ValueError):
            grad_check(params, windows[:1], targets[:1], corrupt="nope")


class TestSchedule:
    def test_every_epoch_is_a_permutation(self):
        schedule = plan_schedule(12, 5, seed=3)
        assert schedule.shape == (5, 12)
        for row in schedule:
            np.testing.assert_array_equal(np.sort(row), np.arange(12))

    def test_digest_depends_on_seed_not_variant(self):
        a = schedule_digest(plan_schedule(20, 4, seed=0))
        b = schedule_digest(plan_schedule(20, 4, seed=0))
        c = schedule_digest(plan_schedule(20, 4, seed=1))
        assert a == b
        assert a != c


class TestTrainLoop:
    def test_loss_decreases_within_first_epochs(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        for variant in ("vanilla", "cvpe"):
            wins = 0
            for seed in (0, 1, 2):
                params = tiny_model(variant, seed=seed)
                result = train_loop(
                    params, tw, tt, vw, vt, TrainConfig(epochs=3, batch_size=16, seed=seed)
                )
                if result.history[-1].train_mse < result.history[0].train_mse:
                    wins += 1
            assert wins >= 2, f"{variant}: train loss failed to drop in {3 - wins} of 3 seeds"

    def test_same_seed_reproduces_history_exactly(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        histories = []
        for _ in range(2):
            params = tiny_model("cvpe", seed=4)
            result = train_loop(
                params, tw, tt, vw, vt, TrainConfig(epochs=2, batch_size=16, seed=4)
            )
            histories.append([(r.train_mse, r.val_mse) for r in result.history])
        assert histories[0] == histories[1]

    def test_best_parameters_are_restored(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        params = tiny_model("vanilla", seed=5)
        result = train_loop(
            params, tw, tt, vw, vt, TrainConfig(epochs=4, batch_size=16, seed=5)
        )
        final_val = evaluate(model_forecast_fn(params), vw, vt).mse
        assert final_val == pytest.approx(result.best_val_mse, rel=1e-12)
        assert result.best_val_mse == min(r.val_mse for r in result.history)

    def test_early_stopping_respects_patience(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        params = tiny_model("vanilla", seed=6)
        result = train_loop(
            params, tw, tt, vw, vt,
            TrainConfig(epochs=50, batch_size=16, lr=0.0, patience=2, seed=6),
        )
        # frozen parameters: epoch 0 is best, the next two exhaust patience
        assert result.stopped_early
        assert len(result.history) == 3
        assert result.best_epoch == 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_raises_with_location(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        params = tiny_model("vanilla", seed=7)
        params.head.w.data = params.head.w.data * 1e200
        with pytest.raises((TrainingDiverged, NumericError)):
            train_loop(params, tw, tt, vw, vt, TrainConfig(epochs=1, batch_size=16, seed=7))

    def test_non_finite_validation_loss_raises_at_batch_minus_one(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        params = tiny_model("vanilla", seed=7)
        # a finite target whose squared error overflows: the forecasts and the
        # training loss stay finite, the validation MSE does not
        vt = vt.copy()
        vt[-1, :, -1] = 1e200
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged) as err:
            train_loop(params, tw, tt, vw, vt, TrainConfig(epochs=2, batch_size=16, seed=7))
        assert (err.value.epoch, err.value.batch) == (0, -1)
        assert str(err.value) == "non-finite validation loss at epoch 0"

    def test_empty_window_sets_are_rejected(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        params = tiny_model("vanilla")
        cfg = TrainConfig(epochs=1, seed=0)
        with pytest.raises(ValueError):
            train_loop(params, tw[:0], tt[:0], vw, vt, cfg)
        with pytest.raises(ValueError):
            train_loop(params, tw, tt, vw[:0], vt[:0], cfg)

    def test_paired_variants_see_identical_schedules(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        digests = {}
        for variant in ("vanilla", "cvpe"):
            params = tiny_model(variant, seed=8)
            result = train_loop(
                params, tw, tt, vw, vt, TrainConfig(epochs=2, batch_size=16, seed=8)
            )
            digests[variant] = result.window_order_digest
        assert digests["vanilla"] == digests["cvpe"]
