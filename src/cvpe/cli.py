"""Command line interface.

Subcommands::

    prepare     inspect the configured dataset and its split
    train       train one (variant, horizon, seed) cell and save a checkpoint
    evaluate    score a saved checkpoint on the test segment
    gradcheck   verify analytic gradients against finite differences
    experiment  run the full paired A/B grid and write reports

Exit codes: 0 success, 1 configuration or input problem, 2 runtime failure
(divergence, non-finite numbers or a dead ``--jobs`` worker), 3 gradient
check failure.  The ``CVPE_OUTPUT_DIR`` environment variable overrides the
configured output directory; an explicit ``--out`` flag overrides both.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from .autodiff import NumericError
from .config import ConfigError, RunConfig, load_config
from .data import lagged_driver_mean, pearson, rank_channels
from .evaluation import (
    OutputDirectoryExists,
    _windows,
    dataset_label,
    prepare_segments,
    run_experiment,
    score,
    train_cell,
    write_experiment,
    write_loss_curve,
)
from .model import VARIANTS, build_model, load_checkpoint, save_checkpoint
from .train import TrainingDiverged, grad_check

OUTPUT_DIR_ENV = "CVPE_OUTPUT_DIR"
DEFAULT_FAULT_TARGET = "head.b"
# training windows in the gradient check's probe batch
GRADCHECK_WINDOWS = 4


def _outdir(config: RunConfig, flag: str | None) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(config.output_dir)


@contextlib.contextmanager
def _output_directory(outdir: Path):
    """Create the output directory before any training, so a path that cannot
    be one (under a file, say) fails at once.  The directories this call
    created are removed again on the way out if they are still empty, as
    when the command fails before writing anything."""
    created = [p for p in (outdir, *outdir.parents) if not p.exists()]
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot use {outdir} as the output directory: {exc.strerror or exc}") from None
    try:
        yield
    finally:
        for path in created:
            try:
                path.rmdir()  # refused unless empty
            except OSError:
                break


def _cell_args(config: RunConfig, args) -> tuple[str, int, int]:
    variant = args.variant or config.variants[0]
    horizon = args.horizon if args.horizon is not None else config.horizons[0]
    seed = args.seed if args.seed is not None else config.seeds[0]
    if variant not in config.variants:
        raise ConfigError([f"variant {variant!r} not in configured variants {config.variants}"])
    if horizon not in config.horizons:
        raise ConfigError([f"horizon {horizon} not in configured horizons {config.horizons}"])
    return variant, horizon, seed


def cmd_prepare(args) -> int:
    config = load_config(args.config)
    train_s, val_s, test_s = prepare_segments(config)
    print(f"dataset: {dataset_label(config)}")
    print(f"channels ({train_s.n_channels}): {', '.join(train_s.channel_names)}")
    print(
        f"split lengths: train={train_s.length} val={val_s.length} test={test_s.length}"
    )
    for horizon in config.horizons:
        counts = []
        for name, seg in (("train", train_s), ("val", val_s), ("test", test_s)):
            n = seg.length - (config.context + horizon) + 1
            counts.append(f"{name}={max(n, 0)}")
        print(f"windows @ horizon {horizon}: {' '.join(counts)}")
    # the correlations need a target that varies on the training segment;
    # the model does not, so without one they are skipped, not an error
    try:
        ranked = rank_channels(train_s, config.target)
    except ValueError as exc:
        print(f"correlations with {config.target} skipped: {exc}")
        return 0
    ranked_names = {name for name, _ in ranked}
    constant = [n for n in train_s.channel_names if n != config.target and n not in ranked_names]
    if ranked or constant:
        print(f"train-segment correlation with {config.target}:")
    for name, r in ranked:
        print(f"  {name:<12} r={r:+.4f}")
    for name in constant:
        print(f"  {name:<12} constant on the training segment, not ranked")
    if config.dataset_kind == "synthetic" and train_s.n_channels > 1:
        t_idx = train_s.channel_names.index(config.target)
        drivers = np.delete(train_s.values, t_idx, axis=0)
        driven = lagged_driver_mean(drivers, config.synthetic.lag)
        r = pearson(driven, train_s.values[t_idx])
        print(
            f"lagged driver mean vs {config.target} (lag {config.synthetic.lag}): r={r:+.4f}"
        )
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    variant, horizon, seed = _cell_args(config, args)
    segments = prepare_segments(config)
    outdir = _outdir(config, args.out)
    with _output_directory(outdir):
        ckpt = outdir / f"model_{variant}_h{horizon}_seed{seed}.npz"
        if ckpt.exists() and not args.overwrite:
            raise OutputDirectoryExists(f"{ckpt} already exists; pass --overwrite to replace")
        params, result = train_cell(segments, config, variant, horizon, seed)
        save_checkpoint(ckpt, params)
        write_loss_curve(outdir, variant, horizon, seed, result.history)
        print(f"trained {variant} (horizon {horizon}, seed {seed})")
        print(f"epochs run: {len(result.history)}  best epoch: {result.best_epoch}")
        print(f"best val mse: {result.best_val_mse:.6f}")
        print(f"window order digest: {result.window_order_digest}")
        print(f"checkpoint: {ckpt}")
        return 0


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    params = load_checkpoint(args.checkpoint)
    if params.context != config.context:
        raise ConfigError(
            [
                f"checkpoint was trained with context {params.context}, "
                f"config says {config.context}"
            ]
        )
    _, _, test_s = prepare_segments(config)
    metrics = score(params, _windows(test_s, "test", params.context, params.horizon))
    print(f"variant: {params.variant}  horizon: {params.horizon}")
    print(f"test mse: {metrics.mse:.6f}")
    print(f"test mae: {metrics.mae:.6f}")
    return 0


def cmd_gradcheck(args) -> int:
    config = load_config(args.config)
    variant, horizon, seed = _cell_args(config, args)
    train_s, _, _ = prepare_segments(config)
    tw, tt = _windows(train_s, "train", config.context, horizon)
    params = build_model(config, variant, horizon, seed)
    report = grad_check(
        params,
        tw[:GRADCHECK_WINDOWS],
        tt[:GRADCHECK_WINDOWS],
        tolerance=args.tolerance,
        corrupt=args.inject_fault,
    )
    for entry in report.entries:
        print(f"{entry.name:<28} max_rel_err={entry.max_rel_err:.3e} ({entry.n_checked} coords)")
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"gradient check {verdict}: max relative error {report.max_rel_err:.3e} "
        f"(tolerance {report.tolerance:.1e})"
    )
    return 0 if report.passed else 3


def cmd_experiment(args) -> int:
    config = load_config(args.config)
    outdir = _outdir(config, args.out)
    with _output_directory(outdir):
        if any(outdir.iterdir()) and not args.overwrite:
            # refuse before burning compute on the grid
            raise OutputDirectoryExists(
                f"output directory {outdir} already has contents; pass --overwrite to replace"
            )
        report = run_experiment(config, jobs=args.jobs)
        write_experiment(report, outdir, overwrite=True)
        sys.stdout.write(report.to_text())
        print(f"report written to {outdir}")
        if report.any_failed:
            failed = [r for r in report.rows if r.status != "ok"]
            for r in failed:
                print(
                    f"cell failed: {r.variant} h={r.horizon} seed={r.seed}: {r.error}",
                    file=sys.stderr,
                )
            return 2
        return 0


def _tolerance(text: str) -> float:
    """A finite, positive float: any other tolerance would pass or fail every check."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvpe",
        description="Paired A/B study of cross-variate patch embedding in a "
        "channel-independent forecaster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options several subcommands share, each declared once
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="path to a JSON run configuration")
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--variant", choices=VARIANTS, help="embedding variant")
    cell.add_argument("--horizon", type=int, help="forecast horizon (default: first configured)")
    cell.add_argument("--seed", type=int, help="run seed (default: first configured)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output directory override")
    out.add_argument("--overwrite", action="store_true", help="replace existing outputs")

    p = sub.add_parser("prepare", parents=[config], help="inspect the dataset, split and channel ranking")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", parents=[config, cell, out], help="train one cell and save a checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[config], help="score a checkpoint on the test segment")
    p.add_argument("--checkpoint", required=True, help="path to a saved .npz checkpoint")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", parents=[config, cell], help="finite-difference gradient verification")
    p.add_argument("--tolerance", type=_tolerance, default=1e-4, help="max relative error allowed")
    p.add_argument(
        "--inject-fault",
        nargs="?",
        const=DEFAULT_FAULT_TARGET,
        default=None,
        metavar="PARAM",
        help="flip the sign of one parameter's gradient to prove the check catches it",
    )
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("experiment", parents=[config, out], help="run the paired A/B grid and write reports")
    p.add_argument("--jobs", type=int, default=1, help="cells to train in parallel")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold those into the config-error code
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OutputDirectoryExists, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # BrokenExecutor is the base of the process pool's BrokenProcessPool
    except (TrainingDiverged, NumericError, BrokenExecutor) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
