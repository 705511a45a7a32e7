"""Metrics, the A/B experiment grid, and report emission."""

import json
import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cvpe import autodiff
from cvpe.config import parse_config
from cvpe.evaluation import (
    MetricPair,
    OutputDirectoryExists,
    dataset_label,
    evaluate,
    model_forecast_fn,
    prepare_segments,
    run_cell,
    run_experiment,
    write_experiment,
)
from cvpe.model import BackboneConfig, ModelParams
from cvpe.preprocess import PatchConfig
from oracles import mae_oracle, mse_oracle

ROOT = Path(__file__).resolve().parent.parent


def tiny_config(**overrides):
    raw = {
        "dataset": {
            "kind": "synthetic",
            "n_channels": 3,
            "length": 400,
            "coupling": 0.8,
            "lag": 2,
            "noise_std": 0.05,
            "seed": 0,
        },
        "context": 24,
        "horizons": [3],
        "patch": {"length": 6, "stride": 3},
        "model": {
            "dim": 4,
            "heads": 2,
            "prototypes": 5,
            "routers": 2,
            "backbone": {"layers": 1, "width": 4, "heads": 2, "hidden": 8},
        },
        "train": {"epochs": 2, "batch_size": 16, "lr": 0.01, "patience": 5},
        "seeds": [0],
        "output_dir": "runs/test",
    }
    raw.update(overrides)
    return parse_config(raw)


class TestMetrics:
    def test_match_loop_oracles_on_random_instances(self):
        # the scorer behind every validation and test score, forecasting
        # ``a`` for targets ``b``
        rng = np.random.default_rng(0)
        for _ in range(100):
            shape = tuple(rng.integers(1, 5, size=int(rng.integers(1, 4))))
            a = rng.normal(size=shape)
            b = rng.normal(size=shape)
            scores = evaluate(lambda w: w, a, b)
            assert scores.mse == pytest.approx(mse_oracle(a, b), abs=1e-12)
            assert scores.mae == pytest.approx(mae_oracle(a, b), abs=1e-12)

    def test_metric_pair_rejects_negatives(self):
        with pytest.raises(ValueError):
            MetricPair(mse=-1.0, mae=0.0)


class TestEvaluate:
    def test_perfect_forecaster_scores_zero(self):
        rng = np.random.default_rng(1)
        windows = rng.normal(size=(10, 2, 8))
        targets = rng.normal(size=(10, 2, 3))
        state = {"offset": 0}

        def perfect(chunk):
            lo = state["offset"]
            state["offset"] += chunk.shape[0]
            return targets[lo : state["offset"]]

        pair = evaluate(perfect, windows, targets, batch_size=4)
        assert pair.mse <= 1e-6
        assert pair.mae <= 1e-6

    def test_zero_predictor_on_standard_noise_scores_near_one(self):
        rng = np.random.default_rng(2)
        windows = rng.normal(size=(200, 3, 8))
        targets = rng.normal(size=(200, 3, 4))
        pair = evaluate(lambda w: np.zeros((w.shape[0], 3, 4)), windows, targets)
        assert pair.mse == pytest.approx(1.0, rel=0.1)

    def test_chunking_does_not_change_the_answer(self):
        rng = np.random.default_rng(3)
        windows = rng.normal(size=(17, 2, 8))
        targets = rng.normal(size=(17, 2, 3))
        fn = lambda w: w[..., :3] * 0.5
        small = evaluate(fn, windows, targets, batch_size=4)
        big = evaluate(fn, windows, targets, batch_size=100)
        assert small.mse == pytest.approx(big.mse, abs=1e-12)
        assert small.mae == pytest.approx(big.mae, abs=1e-12)

    def test_uniform_average_over_windows_channels_horizon(self):
        rng = np.random.default_rng(4)
        windows = rng.normal(size=(6, 2, 8))
        targets = rng.normal(size=(6, 2, 3))
        preds = rng.normal(size=(6, 2, 3))
        state = {"offset": 0}

        def fn(chunk):
            lo = state["offset"]
            state["offset"] += chunk.shape[0]
            return preds[lo : state["offset"]]

        pair = evaluate(fn, windows, targets, batch_size=2)
        assert pair.mse == pytest.approx(mse_oracle(preds, targets), abs=1e-12)
        assert pair.mae == pytest.approx(mae_oracle(preds, targets), abs=1e-12)

    def test_input_validation(self):
        w = np.zeros((3, 2, 8))
        t = np.zeros((3, 2, 3))
        with pytest.raises(ValueError):
            evaluate(lambda x: x[..., :3], w, t[:2])
        with pytest.raises(ValueError):
            evaluate(lambda x: x[..., :3], w[:0], t[:0])
        with pytest.raises(ValueError):
            evaluate(lambda x: x[..., :2], w, t)

    def test_evaluation_does_not_touch_gradients(self):
        params = ModelParams.build(
            "vanilla",
            context=24,
            horizon=3,
            patch_cfg=PatchConfig(6, 3),
            model_dim=4,
            heads=2,
            n_prototypes=5,
            n_routers=2,
            backbone_cfg=BackboneConfig(1, 4, 2, 8),
            seed=0,
        )
        fn = model_forecast_fn(params)
        rng = np.random.default_rng(5)
        out = fn(rng.normal(size=(2, 3, 24)))
        assert isinstance(out, np.ndarray)
        assert out.shape == (2, 3, 3)
        assert all(p.grad is None for p in params.parameters())


class TestExperiment:
    def test_grid_runs_and_aggregates_recompute(self, tmp_path):
        config = tiny_config(seeds=[0, 1])
        report = run_experiment(config)
        assert len(report.rows) == 4  # 2 variants x 1 horizon x 2 seeds
        assert not report.any_failed
        for variant in ("vanilla", "cvpe"):
            agg = report.aggregates[(variant, 3)]
            cells = [r for r in report.rows if r.variant == variant]
            mses = np.array([r.mse for r in cells])
            maes = np.array([r.mae for r in cells])
            assert agg.n_seeds == 2
            assert agg.mean_mse == pytest.approx(mses.mean(), abs=1e-12)
            assert agg.std_mse == pytest.approx(mses.std(), abs=1e-12)
            assert agg.mean_mae == pytest.approx(maes.mean(), abs=1e-12)
        (imp,) = report.improvements
        base = report.aggregates[("vanilla", 3)].mean_mse
        cross = report.aggregates[("cvpe", 3)].mean_mse
        assert imp["horizon"] == 3
        assert imp["relative_improvement"] == pytest.approx(
            (base - cross) / base, abs=1e-12
        )

    def test_paired_cells_share_window_schedules(self):
        report = run_experiment(tiny_config())
        digests = {r.variant: r.window_order_digest for r in report.rows}
        assert digests["vanilla"] == digests["cvpe"]

    def test_report_is_deterministic(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert a.to_json() == b.to_json()
        assert a.to_text() == b.to_text()

    def test_json_payload_shape(self):
        report = run_experiment(tiny_config())
        payload = json.loads(report.to_json())
        assert set(payload) == {"dataset", "cells", "aggregates", "improvements", "config"}
        cell = payload["cells"][0]
        assert cell["status"] == "ok"
        assert cell["history"]
        assert payload["config"]["context"] == 24

    def test_text_report_mentions_improvement(self):
        text = run_experiment(tiny_config()).to_text()
        assert "cross-variate vs vanilla mean MSE improvement" in text
        assert "vanilla" in text and "cvpe" in text

    def test_diverged_cell_is_recorded_not_raised(self):
        config = tiny_config(train={"epochs": 2, "batch_size": 16, "lr": 1e150})
        with np.errstate(all="ignore"):
            report = run_experiment(config)
        assert report.any_failed
        assert all(r.status == "failed" for r in report.rows)
        assert all(r.error for r in report.rows)
        assert report.aggregates == {}
        assert report.improvements == []
        # reports still render
        assert "failed" in report.to_text()
        json.loads(report.to_json())

    def test_non_finite_gradient_fails_the_cell(self, monkeypatch):
        real = autodiff._accumulate

        def poisoned(t, g):
            real(t, g)
            if t.name is not None:
                t.grad = np.full_like(t.grad, np.nan)

        monkeypatch.setattr(autodiff, "_accumulate", poisoned)
        config = tiny_config()
        cell = run_cell(prepare_segments(config), config, "cvpe", 3, 0)
        assert cell.status == "failed"
        assert cell.mse is None
        assert cell.error.startswith("NumericError: non-finite value in stage 'backward'")
        assert "non-finite gradient for" in cell.error

    def test_validation_divergence_fails_the_cell(self):
        config = tiny_config()
        train_s, val_s, test_s = prepare_segments(config)
        # the last step is only ever a target: a finite value whose squared
        # error overflows makes the validation MSE, and nothing else, inf
        values = val_s.values.copy()
        values[:, -1] = 1e200
        blown = replace(val_s, values=values)
        with np.errstate(over="ignore"):
            cell = run_cell((train_s, blown, test_s), config, "cvpe", 3, 0)
        assert cell.status == "failed"
        assert cell.mse is None and cell.history == []
        assert cell.error == "TrainingDiverged: non-finite validation loss at epoch 0"

    def test_dataset_label_format(self):
        label = dataset_label(tiny_config())
        assert label == "synthetic(n=3, T=400, coupling=0.8, lag=2, noise=0.05, seed=0)"

    def test_prepare_segments_applies_channel_selection(self):
        config = tiny_config(select_top_k=1)
        train_s, val_s, test_s = prepare_segments(config)
        assert train_s.n_channels == 2
        assert train_s.channel_names[-1] == "OT"
        assert val_s.channel_names == train_s.channel_names
        assert test_s.channel_names == train_s.channel_names

    def test_run_cell_reports_training_metadata(self):
        config = tiny_config()
        cell = run_cell(prepare_segments(config), config, "vanilla", 3, 0)
        assert cell.status == "ok"
        assert cell.epochs_run == 2
        assert 0 <= cell.best_epoch < 2
        assert len(cell.history) == cell.epochs_run
        assert cell.mse is not None and cell.mse > 0


class TestWriting:
    def test_emits_expected_file_set(self, tmp_path):
        config = tiny_config()
        report = run_experiment(config)
        outdir = tmp_path / "run"
        write_experiment(report, outdir)
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            "config.json",
            "loss_cvpe_h3_seed0.csv",
            "loss_vanilla_h3_seed0.csv",
            "report.json",
            "report.txt",
        ]
        echoed = json.loads((outdir / "config.json").read_text())
        assert echoed == report.config_echo
        first = (outdir / "loss_vanilla_h3_seed0.csv").read_text().splitlines()
        assert first[0] == "epoch,train_mse,val_mse"
        assert len(first) == 3  # header + 2 epochs

    def test_loss_curve_floats_round_trip(self, tmp_path):
        report = run_experiment(tiny_config())
        write_experiment(report, tmp_path / "run")
        row = report.rows[0]
        lines = (tmp_path / "run" / f"loss_{row.variant}_h3_seed0.csv").read_text().splitlines()
        epoch, train_mse, val_mse = lines[1].split(",")
        assert float(train_mse) == row.history[0].train_mse
        assert float(val_mse) == row.history[0].val_mse

    def test_refuses_to_clobber_without_overwrite(self, tmp_path):
        report = run_experiment(tiny_config())
        outdir = tmp_path / "run"
        write_experiment(report, outdir)
        with pytest.raises(OutputDirectoryExists):
            write_experiment(report, outdir)
        write_experiment(report, outdir, overwrite=True)


# Prints the thread count after the imports and after a split forecast,
# which starts the forecaster's helper thread, then runs the grid through
# the forked --jobs pool and serially and prints whether the reports agree.
_FORK_AFTER_HELPER = """
import json, sys, threading
import numpy as np
from cvpe.config import parse_config
from cvpe.evaluation import run_experiment
from cvpe.model import build_model
from cvpe.train import model_forecast_fn

config = parse_config(json.loads(sys.argv[1]))
params = build_model(config, "cvpe", config.horizons[0], 0)
print(threading.active_count())
model_forecast_fn(params)(np.zeros((16, 3, config.context)))
print(threading.active_count())
print(run_experiment(config, jobs=2).to_json() == run_experiment(config).to_json())
"""


def test_helper_starts_on_first_use_and_a_pool_forked_after_it_runs_its_cells():
    # a worker that kept the parent's helper would wait forever on its
    # first split forecast: the test segment's 54 windows are split
    config = tiny_config(seeds=[0, 1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # its own session, so that a timeout also ends hung pool workers
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORK_AFTER_HELPER, json.dumps(config.echo)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the forked grid did not finish within 120 s")
    assert proc.returncode == 0, err
    assert out.split() == ["1", "2", "True"]
