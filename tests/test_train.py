"""Loss, optimiser, gradient checking, and the training loop."""

import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import tiny_raw_config

from cvpe.autodiff import NumericError, as_tensor, no_grad, parameter, power, tsum
from cvpe.config import load_config, parse_config
from cvpe.data import SyntheticSpec, generate_synthetic
from cvpe.model import build_model, forecast_batch
from cvpe.train import (
    AdamState,
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

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_TINY = parse_config(tiny_raw_config())
_RUN = load_config(CONFIGS / "gradcheck_tiny.json")
_ETTH1 = load_config(CONFIGS / "etth1_smoke.json")
_SYNTHETIC_AB = load_config(CONFIGS / "synthetic_ab.json")


def tiny_model(variant, seed=0):
    """The tiny run config's model: 3 channels, context 24, horizon 3."""
    return build_model(_TINY, variant, 3, seed)


def train_config(epochs, batch_size=16, lr=1e-2, patience=10):
    """A parsed run config with these training settings."""
    return replace(_RUN, epochs=epochs, batch_size=batch_size, lr=lr, patience=patience)


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

    def test_mse_loss_is_numpys_closed_form_to_the_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            shape = tuple(rng.integers(1, 7, size=rng.integers(1, 5)))
            scale = 10.0 ** rng.integers(-3, 4)
            p = rng.normal(size=shape) * scale
            t = rng.normal(size=shape) * scale
            pred = parameter(p, "pred")
            loss = mse_loss(pred, t)
            (grad,) = backward(loss, [pred])
            d = p - t
            assert np.float64(loss.item()).tobytes() == np.mean(d * d).tobytes(), shape
            assert grad.tobytes() == (d * (2.0 / d.size)).tobytes(), shape

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
        assert str(err.value) == "non-finite value in stage 'backward': non-finite gradient for p"

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
        state = AdamState.init([p], lr=0.01)
        with pytest.raises(ValueError):
            adam_step(state, [p], [np.zeros(2), np.zeros(2)])
        with pytest.raises(ValueError):
            adam_step(state, [p], [np.zeros(3)])


class TestWindows:
    def test_shapes_and_alignment(self):
        values = np.arange(40.0).reshape(2, 20)
        windows, targets = make_windows(values, context=6, horizon=2)
        assert windows.shape == (13, 2, 6)
        assert targets.shape == (13, 2, 2)
        np.testing.assert_array_equal(windows[0, 0], np.arange(6.0))
        np.testing.assert_array_equal(targets[0, 0], [6.0, 7.0])
        np.testing.assert_array_equal(windows[12, 1], np.arange(32.0, 38.0))

    @pytest.mark.parametrize("channels,context", [(3, 1), (3, 3), (1, 7), (1, 1)])
    def test_matches_slicing_at_every_start(self, channels, context):
        # one channel with a context of one is the case where a contiguous
        # view of the input itself could be returned
        values = np.random.default_rng(3).normal(size=(channels, 40))
        total = context + 4
        windows, targets = make_windows(values, context, 4)
        starts = range(0, 40 - total + 1)
        want_w = np.stack([values[:, s : s + context] for s in starts])
        want_t = np.stack([values[:, s + context : s + total] for s in starts])
        for got, want in ((windows, want_w), (targets, want_t)):
            assert not got.flags.writeable
            assert not np.shares_memory(got, values)
            np.testing.assert_array_equal(got, want)

    def test_too_short_segment(self):
        with pytest.raises(ValueError):
            make_windows(np.zeros((1, 5)), context=4, horizon=2)

    def test_cuts_windows_without_a_copy_per_window(self):
        # ETTh1-smoke shapes, where a copy of every window held about 163 MB
        values = np.random.default_rng(4).normal(size=(7, 8640))
        tracemalloc.start()
        try:
            windows, targets = make_windows(values, 256, 96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert windows.shape == (8640 - 352 + 1, 7, 256) and targets.shape == (8289, 7, 96)
        assert peak < 2 * values.nbytes, f"peak {peak / 1e6:.2f} MB for a {values.nbytes / 1e6:.2f} MB series"

    @pytest.mark.parametrize("variant", ["vanilla", "cvpe"])
    def test_a_strided_batch_forecasts_the_bits_of_its_c_ordered_copy(self, variant):
        (windows, _), _ = tiny_dataset()
        batch = windows[3:60:2]
        assert not batch.flags.c_contiguous
        params = tiny_model(variant)
        with no_grad():
            from_view = forecast_batch(batch, params).data
            from_copy = forecast_batch(np.ascontiguousarray(batch), params).data
        np.testing.assert_array_equal(from_view, from_copy)


def test_a_walk_frees_the_tape_while_the_loss_is_still_held():
    # after backward the loss keeps a scalar, not the graph: what stays
    # allocated is the leaf gradients, and a second walk raises
    (windows, targets), _ = tiny_dataset()
    params = tiny_model("cvpe")
    leaves = params.parameters()
    x, y = windows[:64].copy(), targets[:64].copy()
    backward(mse_loss(forecast_batch(x, params), y), leaves)  # fills the caches
    for p in leaves:
        p.grad = None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = mse_loss(forecast_batch(x, params), y)
        taped = tracemalloc.get_traced_memory()[0] - before
        grads = backward(loss, leaves)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # each gradient owns its data, so its whole size counts its header too
    assert all(g.flags.owndata for g in grads)
    grad_bytes = sum(sys.getsizeof(g) for g in grads)
    assert held - grad_bytes < 8192 < taped / 20, (held, grad_bytes, taped)
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()


class TestGradCheck:
    def test_model_gradients_match_finite_differences(self):
        params = tiny_model("cvpe")
        (windows, targets), _ = tiny_dataset()
        report = grad_check(params, windows[:2], targets[:2], tolerance=1e-4, samples_per_tensor=4)
        assert report.passed, f"max rel err {report.max_rel_err:.3e}"
        assert report.max_rel_err < 1e-4
        assert len(report.entries) == len(params.parameters())

    def test_corrupted_gradient_is_caught(self):
        params = tiny_model("vanilla")
        (windows, targets), _ = tiny_dataset()
        report = grad_check(
            params, windows[:2], targets[:2], tolerance=1e-4, samples_per_tensor=4, corrupt="head.b"
        )
        assert not report.passed
        worst = max(report.entries, key=lambda e: e.max_rel_err)
        assert worst.name == "head.b"

    def test_unknown_corrupt_name(self):
        params = tiny_model("vanilla")
        (windows, targets), _ = tiny_dataset()
        with pytest.raises(ValueError):
            grad_check(params, windows[:1], targets[:1], tolerance=1e-4, corrupt="nope")


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
                result = train_loop(params, tw, tt, vw, vt, train_config(epochs=3), seed)
                if result.history[-1].train_mse < result.history[0].train_mse:
                    wins += 1
            assert wins >= 2, f"{variant}: train loss failed to drop in {3 - wins} of 3 seeds"

    def test_same_seed_reproduces_history_exactly(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        histories = []
        for _ in range(2):
            params = tiny_model("cvpe", seed=4)
            result = train_loop(params, tw, tt, vw, vt, train_config(epochs=2), 4)
            histories.append([(r.train_mse, r.val_mse) for r in result.history])
        assert histories[0] == histories[1]

    def test_best_parameters_are_restored(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        params = tiny_model("vanilla", seed=5)
        result = train_loop(params, tw, tt, vw, vt, train_config(epochs=4), 5)
        final_val = evaluate(model_forecast_fn(params), vw, vt).mse
        best_val = result.history[result.best_epoch].val_mse
        assert final_val == pytest.approx(best_val, rel=1e-12)
        assert best_val == min(r.val_mse for r in result.history)

    def test_early_stopping_respects_patience(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        params = tiny_model("vanilla", seed=6)
        result = train_loop(params, tw, tt, vw, vt, train_config(epochs=50, lr=0.0, patience=2), 6)
        # frozen parameters: epoch 0 is best, the next two exhaust patience
        assert len(result.history) == 3
        assert result.best_epoch == 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_raises_with_location(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        params = tiny_model("vanilla", seed=7)
        params.head.w.data = params.head.w.data * 1e200
        with pytest.raises((TrainingDiverged, NumericError)):
            train_loop(params, tw, tt, vw, vt, train_config(epochs=1), 7)

    def test_non_finite_validation_loss_raises_at_batch_minus_one(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        params = tiny_model("vanilla", seed=7)
        # a finite target whose squared error overflows: the forecasts and the
        # training loss stay finite, the validation MSE does not
        vt = vt.copy()
        vt[-1, :, -1] = 1e200
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged) as err:
            train_loop(params, tw, tt, vw, vt, train_config(epochs=2), 7)
        assert str(err.value) == "non-finite validation loss at epoch 0"

    def test_empty_window_sets_are_rejected(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        params = tiny_model("vanilla")
        cfg = train_config(epochs=1, batch_size=8)
        with pytest.raises(ValueError):
            train_loop(params, tw[:0], tt[:0], vw, vt, cfg, 0)
        with pytest.raises(ValueError):
            train_loop(params, tw, tt, vw[:0], vt[:0], cfg, 0)

    def test_paired_variants_see_identical_schedules(self):
        (tw, tt), (vw, vt) = tiny_dataset()
        digests = {}
        for variant in ("vanilla", "cvpe"):
            params = tiny_model(variant, seed=8)
            result = train_loop(params, tw, tt, vw, vt, train_config(epochs=2), 8)
            digests[variant] = result.window_order_digest
        assert digests["vanilla"] == digests["cvpe"]


class TestSplitForecaster:
    """``model_forecast_fn`` forecasts two parts of a batch on two threads."""

    @pytest.mark.parametrize("variant", ["vanilla", "cvpe"])
    @pytest.mark.parametrize("batch", [1, 2, 16, 33, 37, 64])
    def test_parts_give_the_whole_batch_bits(self, variant, batch):
        params = tiny_model(variant, seed=3)
        windows = np.random.default_rng(batch).normal(size=(batch, 3, 24))
        with no_grad():
            whole = forecast_batch(windows, params).data
        assert np.array_equal(model_forecast_fn(params)(windows), whole)

    @pytest.mark.parametrize("variant", ["vanilla", "cvpe"])
    def test_etth1_shapes_give_the_whole_batch_bits(self, variant):
        # 7 channels x 31 patches a window: a split at len // 2 moves rows
        # between BLAS tiles and changes their last bit
        params = build_model(_ETTH1, variant, 96, 0)
        windows = np.random.default_rng(0).normal(size=(37, 7, 256))
        with no_grad():
            whole = forecast_batch(windows, params).data
        assert np.array_equal(model_forecast_fn(params)(windows), whole)

    @pytest.mark.parametrize("variant", ["vanilla", "cvpe"])
    def test_even_prototype_blocks_give_the_whole_batch_bits(self, variant):
        # 37 windows of 5 channels x 10 patches are 1,850 rows of prototype
        # attention, the parts 800 and 1,050.  Untaped attention splits the
        # rows evenly: blocks of at most 1,024 rows left the second part a
        # last block of 26 rows, whose score GEMM OpenBLAS runs in another
        # kernel, and its forecasts moved in the last bit
        params = build_model(replace(_ETTH1, context=96), variant, 24, 0)
        windows = np.random.default_rng(0).normal(size=(37, 5, 96)).cumsum(axis=-1)
        with no_grad():
            whole = forecast_batch(windows, params).data
        assert np.array_equal(model_forecast_fn(params)(windows), whole)

    @pytest.mark.parametrize("variant", ["vanilla", "cvpe"])
    def test_wide_evaluation_shapes_give_the_whole_batch_bits(self, variant):
        # the benchmark's wide evaluation: 32 channels, batch 64, the
        # synthetic_ab model.  Each half's GEMMs cross OpenBLAS's small-matrix
        # limit and run in row blocks, and the whole batch's blocks fall
        # differently from the halves'
        params = build_model(_SYNTHETIC_AB, variant, 8, 0)
        windows = np.random.default_rng(0).normal(size=(64, 32, 64))
        with no_grad():
            whole = forecast_batch(windows, params).data
        assert np.array_equal(model_forecast_fn(params)(windows), whole)

    @pytest.mark.parametrize("variant", ["vanilla", "cvpe"])
    @pytest.mark.parametrize("batch", [63, 64])
    def test_a_narrow_head_holds_to_the_stated_bar(self, variant, batch):
        # 32 channels, horizon 4: a GEMM of 4 output columns rounds
        # differently on either side of OpenBLAS's small-matrix limit (see
        # "Row blocks" in the autodiff module docstring), so the parts are
        # held to the grid's relative 1e-10, not to its bits.
        # The gap is taken against the batch's largest forecast: an entry near
        # zero takes its gap from the terms it sums, and one of about 2e-7
        # here differs by 4e-10 of itself.  The test metrics are held to it too.
        params = build_model(replace(_ETTH1, context=96), variant, 4, 0)
        rng = np.random.default_rng(batch)
        windows, targets = rng.normal(size=(batch, 32, 96)), rng.normal(size=(batch, 32, 4))
        with no_grad():
            whole = forecast_batch(windows, params).data
        split = model_forecast_fn(params)(windows)
        assert np.abs(split - whole).max() <= 1e-10 * np.abs(whole).max()
        for metric in (np.square, np.abs):
            want = metric(whole - targets).mean()
            assert abs(metric(split - targets).mean() - want) <= 1e-10 * want

    def test_concurrent_callers_share_one_helper_and_get_their_own_bits(self):
        params = tiny_model("cvpe", seed=3)
        fn = model_forecast_fn(params)
        batches = [np.random.default_rng(i).normal(size=(16 + i, 3, 24)) for i in range(6)]
        with no_grad():
            wanted = [forecast_batch(w, params).data for w in batches]
        got = [None] * len(batches)

        def call(i):
            for _ in range(5):
                got[i] = fn(batches[i])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(batches))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(g, w) for g, w in zip(got, wanted))
        helpers = [t for t in threading.enumerate() if t.name.startswith("cvpe-forecast")]
        assert len(helpers) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [[20], [3, 20]])
    def test_non_finite_forecast_raises_the_one_thread_error(self, bad):
        params = tiny_model("cvpe")
        windows = np.random.default_rng(0).normal(size=(32, 3, 24))
        windows[bad] *= 1e200  # finite, but the forecast overflows
        with no_grad(), pytest.raises(NumericError) as whole:
            forecast_batch(windows, params)
        with pytest.raises(NumericError) as split:
            model_forecast_fn(params)(windows)
        assert str(split.value) == str(whole.value)

    @pytest.mark.parametrize("windows", [np.zeros((32, 3, 20)), np.zeros((32, 3, 24)) + np.nan])
    def test_malformed_batch_raises_the_one_thread_error(self, windows):
        params = tiny_model("vanilla")
        with no_grad(), pytest.raises(ValueError) as whole:
            forecast_batch(windows, params)
        with pytest.raises(ValueError) as split:
            model_forecast_fn(params)(windows)
        assert str(split.value) == str(whole.value)
