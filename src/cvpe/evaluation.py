"""The cell trainer and scorer, the paired A/B experiment driver, and report
emission.

A run is a grid of cells (horizon, seed, variant).  Cells that share a
horizon and seed are paired: identical data windows, identical batch
schedule, identical initialisation of every component the variants share.
Reports are deterministic byte for byte; they carry no timestamps and all
floats round-trip.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import NumericError
from .config import RunConfig
from .data import (
    MultivariateSeries,
    SyntheticSpec,
    chronological_split,
    generate_synthetic,
    load_csv,
    select_top_k,
)
from .model import ModelParams, build_model
from .train import (
    EpochRecord,
    TrainingDiverged,
    TrainResult,
    evaluate,
    make_windows,
    model_forecast_fn,
    train_loop,
)


@dataclass
class CellResult:
    """One trained-and-evaluated grid cell."""

    dataset: str
    variant: str
    horizon: int
    seed: int
    status: str  # "ok" or "failed"
    mse: float | None = None
    mae: float | None = None
    best_epoch: int | None = None
    epochs_run: int | None = None
    window_order_digest: str | None = None
    error: str | None = None
    history: list[EpochRecord] = field(default_factory=list)


@dataclass
class AggregateRow:
    """Across-seed summary for one (variant, horizon) pair."""

    variant: str
    horizon: int
    n_seeds: int
    mean_mse: float
    std_mse: float
    mean_mae: float
    std_mae: float


@dataclass
class ExperimentReport:
    dataset_label: str
    rows: list[CellResult]
    aggregates: dict[tuple[str, int], AggregateRow]  # by (variant, horizon), in grid order
    improvements: list[dict]
    config_echo: dict

    @property
    def any_failed(self) -> bool:
        return any(r.status != "ok" for r in self.rows)

    def to_json(self) -> str:
        payload = {
            "dataset": self.dataset_label,
            "cells": [asdict(r) for r in self.rows],
            "aggregates": [asdict(a) for a in self.aggregates.values()],
            "improvements": self.improvements,
            "config": self.config_echo,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"dataset: {self.dataset_label}", ""]
        header = f"{'variant':<10} {'horizon':>7} {'seed':>6} {'status':<8} {'mse':>12} {'mae':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.rows:
            m = f"{r.mse:.6f}" if r.mse is not None else "-"
            a = f"{r.mae:.6f}" if r.mae is not None else "-"
            lines.append(
                f"{r.variant:<10} {r.horizon:>7} {r.seed:>6} {r.status:<8} {m:>12} {a:>12}"
            )
        lines.append("")
        header = (
            f"{'variant':<10} {'horizon':>7} {'seeds':>6} "
            f"{'mean_mse':>12} {'std_mse':>12} {'mean_mae':>12} {'std_mae':>12}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for g in self.aggregates.values():
            lines.append(
                f"{g.variant:<10} {g.horizon:>7} {g.n_seeds:>6} "
                f"{g.mean_mse:>12.6f} {g.std_mse:>12.6f} {g.mean_mae:>12.6f} {g.std_mae:>12.6f}"
            )
        for imp in self.improvements:
            lines.append("")
            lines.append(
                f"horizon {imp['horizon']}: cross-variate vs vanilla mean MSE "
                f"improvement {imp['relative_improvement']:+.4%}"
            )
        return "\n".join(lines) + "\n"


def prepare_segments(
    config: RunConfig,
) -> tuple[MultivariateSeries, MultivariateSeries, MultivariateSeries]:
    """Draw or load the dataset, optionally select channels (on training statistics), and split."""
    spec = config.dataset
    if isinstance(spec, SyntheticSpec):
        series = generate_synthetic(spec)
    else:
        series = load_csv(spec.path, spec.date_column)
    train_end, _, _ = config.split.resolve(series.length)
    if config.select_top_k is not None:
        series = select_top_k(series, config.target, config.select_top_k, train_len=train_end)
    return chronological_split(series, config.split)


def dataset_label(config: RunConfig) -> str:
    s = config.dataset
    if isinstance(s, SyntheticSpec):
        return (
            f"synthetic(n={s.n_channels}, T={s.length}, coupling={s.coupling}, "
            f"lag={s.lag}, noise={s.noise_std}, seed={s.seed})"
        )
    return Path(s.path).name


def _windows(segment: MultivariateSeries, name: str, context: int, horizon: int):
    """``make_windows`` over one segment; a segment too short for a window
    is named in the error (``name`` is train, validation or test)."""
    try:
        return make_windows(segment.values, context, horizon)
    except ValueError as exc:
        raise ValueError(f"{name} {exc}") from None


def train_cell(
    segments: tuple[MultivariateSeries, MultivariateSeries, MultivariateSeries],
    config: RunConfig,
    variant: str,
    horizon: int,
    seed: int,
) -> tuple[ModelParams, TrainResult]:
    """Build one cell's model and train it on the train and validation
    segments; ``cvpe train`` and every grid cell train through here."""
    train_s, val_s, _ = segments
    tw, tt = _windows(train_s, "train", config.context, horizon)
    vw, vt = _windows(val_s, "validation", config.context, horizon)
    params = build_model(config, variant, horizon, seed)
    return params, train_loop(params, tw, tt, vw, vt, config, seed)


def run_cell(
    segments: tuple[MultivariateSeries, MultivariateSeries, MultivariateSeries],
    config: RunConfig,
    variant: str,
    horizon: int,
    seed: int,
) -> CellResult:
    """Train one variant at one horizon and seed, then score it on test."""
    row = CellResult(dataset_label(config), variant, horizon, seed, status="ok")
    # cut first, so a test segment too short fails before any epoch runs
    test = _windows(segments[2], "test", config.context, horizon)
    try:
        params, result = train_cell(segments, config, variant, horizon, seed)
        metrics = evaluate(model_forecast_fn(params), *test)
    except (TrainingDiverged, NumericError) as exc:
        row.status, row.error = "failed", f"{type(exc).__name__}: {exc}"
        return row
    row.mse, row.mae = metrics.mse, metrics.mae
    row.best_epoch, row.epochs_run = result.best_epoch, len(result.history)
    row.window_order_digest, row.history = result.window_order_digest, result.history
    return row


def _grid_cells(config: RunConfig) -> list[tuple[str, int, int]]:
    """The grid's ``(variant, horizon, seed)`` cells in run and report order:
    horizon, then seed, then variant."""
    return [(v, h, s) for h in config.horizons for s in config.seeds for v in config.variants]


def run_experiment(config: RunConfig, jobs: int = 1) -> ExperimentReport:
    """Run the full grid and aggregate across seeds.

    The data is read once, so a data error raises before any worker starts.
    A failed cell (divergence or a non-finite value) is recorded with its
    error and excluded from aggregates; the remaining cells still run.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    segments = prepare_segments(config)
    grid = _grid_cells(config)
    variants, horizons, seeds = zip(*grid)
    cells = ([segments] * len(grid), [config] * len(grid), variants, horizons, seeds)
    if jobs == 1:
        rows = list(map(run_cell, *cells))
    else:
        # imported here, so only a --jobs run loads multiprocessing; the pool
        # forks all its workers up front, so start no more than cells
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(grid))) as pool:
            rows = list(pool.map(run_cell, *cells))

    aggregates = {}
    for horizon in config.horizons:
        for variant in config.variants:
            ok = [
                r
                for r in rows
                if r.variant == variant and r.horizon == horizon and r.status == "ok"
            ]
            if not ok:
                continue
            mses = np.array([r.mse for r in ok])
            maes = np.array([r.mae for r in ok])
            aggregates[variant, horizon] = AggregateRow(
                variant=variant,
                horizon=horizon,
                n_seeds=len(ok),
                mean_mse=float(mses.mean()),
                std_mse=float(mses.std()),
                mean_mae=float(maes.mean()),
                std_mae=float(maes.std()),
            )

    improvements = []
    for horizon in config.horizons:
        base = aggregates.get(("vanilla", horizon))
        cross = aggregates.get(("cvpe", horizon))
        if base is not None and cross is not None and base.mean_mse > 0:
            improvements.append(
                {
                    "horizon": horizon,
                    "relative_improvement": (base.mean_mse - cross.mean_mse) / base.mean_mse,
                }
            )

    return ExperimentReport(
        dataset_label=dataset_label(config),
        rows=rows,
        aggregates=aggregates,
        improvements=improvements,
        config_echo=config.echo,
    )


# the files ``write_experiment`` writes besides the loss curves
REPORT_FILES = ("config.json", "report.json", "report.txt")


def claim_outputs(paths, overwrite: bool) -> None:
    """The one rule for which files a command may write, checked before any is
    written: a directory is refused, and an existing file unless ``overwrite``."""
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if path.exists() and not overwrite:
            raise FileExistsError(f"{path} already exists; pass --overwrite to replace")


def write_experiment(report: ExperimentReport, outdir: str | Path, overwrite: bool = False):
    """Emit per-cell loss curves, then the config echo and the JSON and text
    reports, so a failed write leaves no report naming a missing curve."""
    outdir = Path(outdir)
    curves = [row for row in report.rows if row.history]
    names = [*(loss_curve_name(r.variant, r.horizon, r.seed) for r in curves), *REPORT_FILES]
    claim_outputs((outdir / name for name in names), overwrite)
    outdir.mkdir(parents=True, exist_ok=True)
    for row in curves:
        write_loss_curve(outdir, row.variant, row.horizon, row.seed, row.history)
    config, as_json, as_text = REPORT_FILES
    (outdir / config).write_text(json.dumps(report.config_echo, indent=2, sort_keys=True) + "\n")
    (outdir / as_json).write_text(report.to_json())
    (outdir / as_text).write_text(report.to_text())


def loss_curve_name(variant: str, horizon: int, seed: int) -> str:
    """The file name of one cell's loss curve."""
    return f"loss_{variant}_h{horizon}_seed{seed}.csv"


def experiment_files(config: RunConfig) -> list[str]:
    """The names of every file ``write_experiment`` may write for the grid of
    ``config``."""
    return [*REPORT_FILES, *(loss_curve_name(*cell) for cell in _grid_cells(config))]


def write_loss_curve(outdir: Path, variant: str, horizon: int, seed: int, history: list[EpochRecord]) -> None:
    """Write one cell's per-epoch losses as ``loss_<variant>_h<H>_seed<S>.csv``.

    Floats are written in ``repr`` form, so the file round-trips them exactly.
    """
    lines = ["epoch,train_mse,val_mse"]
    for rec in history:
        lines.append(f"{rec.epoch},{rec.train_mse!r},{rec.val_mse!r}")
    (Path(outdir) / loss_curve_name(variant, horizon, seed)).write_text("\n".join(lines) + "\n")
