"""End-to-end acceptance checks for the shipped study.

Each test covers one numbered acceptance criterion and prints a single
``criterion N (...): PASS|FAIL`` line directly to the terminal (bypassing
capture) so a full run yields one verdict per criterion.  Criteria 2 and 3
train the frozen A/B configurations shipped in ``configs/`` and dominate the
suite's runtime.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import identity_block, record_verdict

from cvpe.autodiff import as_tensor
from cvpe.cli import main
from cvpe.config import load_config
from cvpe.data import pearson
from cvpe.embedding import (
    AttentionConfig,
    CvpeParams,
    ScoreCounter,
    cvpe_forward,
    multi_head_attention,
)
from cvpe.evaluation import run_experiment
from cvpe.layers import Affine
from cvpe.model import BackboneConfig, ModelParams, ReprogramParams, forecast_batch, reprogram
from cvpe.preprocess import PatchConfig, patch, revin_denormalize, revin_normalize
from cvpe.train import evaluate
from oracles import (
    cross_attention_oracle,
    mae_oracle,
    mha_oracle,
    mse_oracle,
    patch_oracle,
    pearson_oracle,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
ETTH1 = ROOT / "data" / "ETTh1.csv"


def verdict(number: int, label: str, ok: bool, detail: str = ""):
    line = f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    record_verdict(line)
    print(line, file=sys.__stdout__, flush=True)


def skip_line(number: int, label: str, reason: str):
    line = f"criterion {number} ({label}): SKIP [{reason}]"
    record_verdict(line)
    print(line, file=sys.__stdout__, flush=True)


def test_gradient_correctness_on_tiny_block(capsys):
    started = time.monotonic()
    code = main(["gradcheck", "--config", str(CONFIGS / "gradcheck_tiny.json")])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    worst = max(
        float(l.split("max_rel_err=")[1].split()[0])
        for l in out.splitlines()
        if "max_rel_err=" in l
    )
    ok = code == 0 and "gradient check PASS" in out and worst <= 1e-4 and elapsed <= 60
    verdict(1, "gradient correctness", ok, f"max rel err {worst:.3e}, {elapsed:.1f}s")
    assert ok, f"gradcheck exit={code}, max rel err {worst:.3e}, took {elapsed:.1f}s"


def test_channel_mixing_beats_baseline_on_coupled_data():
    config = load_config(CONFIGS / "synthetic_ab.json")
    started = time.monotonic()
    report = run_experiment(config, jobs=2)  # same bytes as jobs=1, on both cores
    elapsed = time.monotonic() - started
    base = report.aggregates[("vanilla", 8)]
    cross = report.aggregates[("cvpe", 8)]
    (imp,) = [i for i in report.improvements if i["horizon"] == 8]
    improvement = imp["relative_improvement"]
    ok = (
        not report.any_failed
        and cross.mean_mse < base.mean_mse
        and improvement >= 0.10
        and elapsed <= 600
    )
    detail = (
        f"vanilla {base.mean_mse:.4f}±{base.std_mse:.4f}, "
        f"cvpe {cross.mean_mse:.4f}±{cross.std_mse:.4f}, "
        f"improvement {improvement:+.2%}, {elapsed:.0f}s"
    )
    verdict(2, "cross-variate gain on coupled data", ok, detail)
    assert ok, (
        "cross-variate embedding did not reach a 10% mean-MSE improvement on "
        f"coupled synthetic data: {detail}"
    )


def test_uncoupled_data_degrades_gracefully():
    config = load_config(CONFIGS / "synthetic_uncoupled.json")
    started = time.monotonic()
    report = run_experiment(config, jobs=2)  # same bytes as jobs=1, on both cores
    elapsed = time.monotonic() - started
    base = report.aggregates[("vanilla", 8)]
    cross = report.aggregates[("cvpe", 8)]
    degradation = (cross.mean_mse - base.mean_mse) / base.mean_mse
    ok = not report.any_failed and degradation <= 0.25
    detail = (
        f"vanilla {base.mean_mse:.4f}, cvpe {cross.mean_mse:.4f}, "
        f"degradation {degradation:+.2%}, {elapsed:.0f}s"
    )
    verdict(3, "graceful degradation without coupling", ok, detail)
    assert ok, detail


def test_shape_and_identity_invariants():
    rng = np.random.default_rng(0)
    shapes_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 6))
        d = 2 * int(rng.integers(1, 5))
        params = CvpeParams.init(p, d, int(rng.integers(1, 4)), np.random.default_rng(int(rng.integers(10_000))))
        x = rng.normal(size=(n, p, d))
        out = np.asarray(cvpe_forward(x, params, AttentionConfig(2)))
        shapes_ok = shapes_ok and out.shape == (n, p, d) and np.all(np.isfinite(out))

    def build(variant, seed=0):
        return ModelParams.build(
            variant,
            context=32,
            horizon=4,
            patch_cfg=PatchConfig(8, 4),
            model_dim=8,
            heads=2,
            n_prototypes=6,
            n_routers=2,
            backbone_cfg=BackboneConfig(1, 8, 2, 16),
            seed=seed,
        )

    vanilla = build("vanilla")
    w = rng.normal(size=(1, 4, 32))
    bumped = w.copy()
    bumped[0, 0] = rng.normal(size=32) * 3 + 1
    base = np.asarray(forecast_batch(w, vanilla))
    moved = np.asarray(forecast_batch(bumped, vanilla))
    independent = np.array_equal(moved[0, 1:], base[0, 1:])

    twin = build("cvpe")
    twin.cvpe = identity_block(twin.n_positions, twin.model_dim, twin.n_routers)
    gap = float(
        np.max(np.abs(np.asarray(forecast_batch(w, twin)) - np.asarray(forecast_batch(w, vanilla))))
    )
    identity_ok = gap <= 1e-9

    ok = shapes_ok and independent and identity_ok
    verdict(
        4,
        "shape and identity invariants",
        ok,
        f"100 shapes, channel independence {independent}, identity gap {gap:.1e}",
    )
    assert shapes_ok, "cross-variate block changed a shape or produced non-finite output"
    assert independent, "vanilla forecaster leaked information between channels"
    assert identity_ok, f"identity-configured block deviates from vanilla by {gap:.3e}"


def test_router_attention_cost_is_linear_in_variates():
    p, d, c, heads = 5, 8, 3, 2
    params = CvpeParams.init(p, d, c, np.random.default_rng(1))
    cfg = AttentionConfig(heads)
    counts = {}
    exact = True
    for n in (4, 8):
        counter = ScoreCounter()
        x = as_tensor(np.random.default_rng(n).normal(size=(n, p, d)))
        cvpe_forward(x, params, cfg, counter)
        expected = p * heads * 2 * c * n
        exact = exact and counter.count == expected
        counts[n] = counter.count
    linear = counts[8] == 2 * counts[4]
    ok = exact and linear
    verdict(
        5,
        "router attention score count",
        ok,
        f"count(N=4)={counts[4]}, count(N=8)={counts[8]}",
    )
    assert exact, f"score count deviates from P*K*2cN: {counts}"
    assert linear, f"doubling variates did not double the score count: {counts}"


def test_core_numerics_match_naive_oracles():
    rng = np.random.default_rng(2)
    worst = {"mha": 0.0, "reprogram": 0.0, "pearson": 0.0, "mse": 0.0, "mae": 0.0}
    patch_exact = True
    for trial in range(100):
        heads = int(rng.choice([1, 2]))
        d = heads * int(rng.integers(1, 4))
        q = rng.normal(size=(int(rng.integers(1, 5)), d))
        k = rng.normal(size=(int(rng.integers(1, 5)), d))
        v = rng.normal(size=(k.shape[0], d))
        out = Affine.init(d, d, rng, f"o{trial}")
        got = np.asarray(multi_head_attention(q, k, v, AttentionConfig(heads), out))
        want = mha_oracle(q, k, v, heads, np.asarray(out.w), np.asarray(out.b))
        worst["mha"] = max(worst["mha"], float(np.max(np.abs(got - want))))

        rp = ReprogramParams.init(d, d, int(rng.integers(1, 6)), np.random.default_rng(trial), f"rp{trial}")
        x = rng.normal(size=(3, d))
        got = np.asarray(reprogram(x, rp, AttentionConfig(heads)))
        want = cross_attention_oracle(
            x, np.asarray(rp.bank.table), np.asarray(rp.query.w), np.asarray(rp.key.w),
            np.asarray(rp.value.w), np.asarray(rp.value.b), np.asarray(rp.out.w),
            np.asarray(rp.out.b), heads,
        )
        worst["reprogram"] = max(worst["reprogram"], float(np.max(np.abs(got - want))))

        length = int(rng.integers(2, 9))
        stride = int(rng.integers(1, 5))
        steps = length + stride + int(rng.integers(0, 30))
        series = rng.normal(size=steps)
        patch_exact = patch_exact and np.array_equal(
            patch(series, PatchConfig(length, stride)), patch_oracle(series, length, stride)
        )

        npts = int(rng.integers(3, 30))
        a = rng.normal(size=npts)
        b = rng.normal(size=npts)
        worst["pearson"] = max(worst["pearson"], abs(pearson(a, b) - pearson_oracle(a, b)))

        shape = tuple(rng.integers(1, 5, size=2))
        x1 = rng.normal(size=shape)
        x2 = rng.normal(size=shape)
        scores = evaluate(lambda w: w, x1, x2)
        worst["mse"] = max(worst["mse"], abs(scores.mse - mse_oracle(x1, x2)))
        worst["mae"] = max(worst["mae"], abs(scores.mae - mae_oracle(x1, x2)))

    ok = (
        worst["mha"] <= 1e-10
        and worst["reprogram"] <= 1e-10
        and patch_exact
        and worst["pearson"] <= 1e-12
        and worst["mse"] <= 1e-12
        and worst["mae"] <= 1e-12
    )
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items()) + f", patch exact {patch_exact}"
    verdict(6, "oracle equivalences", ok, detail)
    assert ok, f"oracle deviation too large: {detail}"


def test_preprocessing_round_trips():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        w = rng.normal(loc=rng.normal() * 5, scale=rng.uniform(0.2, 8), size=(3, int(rng.integers(2, 64))))
        normed, state = revin_normalize(w)
        worst = max(worst, float(np.max(np.abs(revin_denormalize(normed, state) - w))))
    round_trip_ok = worst <= 1e-9

    formula_ok = True
    for _ in range(100):
        length = int(rng.integers(1, 33))
        stride = int(rng.integers(1, 17))
        steps = length + stride + int(rng.integers(0, 300))
        formula_ok = formula_ok and PatchConfig(length, stride).n_patches(steps) == (steps - length) // stride
    default_ok = PatchConfig(16, 8).n_patches(256) == 30

    ok = round_trip_ok and formula_ok and default_ok
    verdict(
        7,
        "preprocessing round trips",
        ok,
        f"revin worst {worst:.1e}, P(256,16,8)={PatchConfig(16, 8).n_patches(256)}",
    )
    assert round_trip_ok, f"normalisation round trip off by {worst:.3e}"
    assert formula_ok and default_ok


def test_experiment_reports_are_bit_identical(tmp_path, capsys):
    config = {
        "dataset": {
            "kind": "synthetic", "n_channels": 3, "length": 400,
            "coupling": 0.8, "lag": 2, "noise_std": 0.05, "seed": 0,
        },
        "context": 24,
        "horizons": [3],
        "patch": {"length": 6, "stride": 3},
        "model": {
            "dim": 4, "heads": 2, "prototypes": 5, "routers": 2,
            "backbone": {"layers": 1, "width": 4, "heads": 2, "hidden": 8},
        },
        "train": {"epochs": 2, "batch_size": 16, "lr": 0.01, "patience": 5},
        "seeds": [0],
        "output_dir": str(tmp_path / "unused"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    contents = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        code = main(["experiment", "--config", str(cfg_path), "--out", str(outdir)])
        assert code == 0
        contents.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    capsys.readouterr()
    ok = contents[0] == contents[1]
    verdict(8, "deterministic reports", ok, f"{len(contents[0])} files compared")
    assert ok, "two runs from the same config produced different report bytes"


def test_hourly_benchmark_smoke():
    label = "real-data training smoke"
    if not ETTH1.exists():
        skip_line(9, label, "data/ETTh1.csv not present")
        pytest.skip("ETTh1 CSV not available")
    config = load_config(CONFIGS / "etth1_smoke.json")
    from cvpe.evaluation import prepare_segments
    from cvpe.train import TrainConfig, make_windows, train_loop

    train_s, val_s, test_s = prepare_segments(config)
    split_ok = (
        train_s.n_channels == 7
        and (train_s.length, val_s.length, test_s.length) == (8640, 2880, 2880)
    )
    tw, tt = make_windows(train_s.values, 256, 96)
    vw, vt = make_windows(val_s.values, 256, 96)
    params = ModelParams.build(
        "vanilla",
        context=256,
        horizon=96,
        patch_cfg=config.patch,
        model_dim=config.model_dim,
        heads=config.heads,
        n_prototypes=config.n_prototypes,
        n_routers=config.n_routers,
        backbone_cfg=config.backbone,
        seed=0,
    )
    result = train_loop(
        params, tw, tt, vw, vt,
        TrainConfig(epochs=5, batch_size=config.batch_size, lr=config.lr, patience=5, seed=0),
    )
    vals = [r.val_mse for r in result.history]
    train_ok = all(np.isfinite(vals)) and min(vals[1:]) < vals[0]
    ok = split_ok and train_ok
    verdict(9, label, ok, f"split {train_s.length}/{val_s.length}/{test_s.length}, val {vals[0]:.4f}->{min(vals):.4f}")
    assert split_ok, "channel count or raw split lengths off for the hourly benchmark"
    assert train_ok, f"validation loss not finite and decreasing: {vals}"
