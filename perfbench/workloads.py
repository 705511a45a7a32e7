"""The workloads: closed loops with one client, driven from this process.

Each runner measures its loop for the requested seconds, then checks the
program's outputs outside the timed region.  An operation (a training
step, an evaluation batch, a grid cell) that raises, goes non-finite or
fails a check counts as failed; the runner records the exception type and
goes on.

With tracing on, a runner spends most of its time in the same loop with
spans around every call into the program on every other operation, and the
rest timing single layers; the difference between the traced and the
untraced operations is the tracing overhead.  infer_wide's traced run also
times the evaluation layers on a short paired ``--jobs 2`` grid.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cvpe import cli
from cvpe.autodiff import no_grad
from cvpe.config import load_config, parse_config
from cvpe.evaluation import (
    evaluate,
    model_forecast_fn,
    prepare_segments,
    run_cell,
    run_experiment,
    write_experiment,
)
from cvpe.model import forecast_batch
from cvpe.train import (
    AdamState,
    adam_step,
    backward,
    grad_check,
    make_windows,
    mse_loss,
    plan_schedule,
)

from perfbench import layer_times, specs
from perfbench.tracing import Tracer

WARMUP_STEPS = 3
PLANNED_EPOCHS = 100  # the batch order repeats after this many epochs
GRAD_CHECK_WINDOWS = 2
GRAD_CHECK_SAMPLES = 4
# Finite differences on trained parameters reach a relative error of about
# 2e-4 on coordinates with tiny gradients; a wrong gradient is off by O(1).
GRAD_CHECK_TOL = 1e-3
JOBS = 2
LOOP_SHARE, LAYER_SHARE = 0.6, 0.3  # of --seconds, in a traced run

_NO_SPAN = Tracer(enabled=False).span


class NonFinite(ArithmeticError):
    """An output of the program was NaN or infinite."""


class Ledger:
    """Attempted and failed operations and checks, with failure types."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.examples: dict[str, str] = {}
        self.checks: list[dict] = []

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        name = type(exc).__name__
        self.errors[name] += 1
        self.examples.setdefault(name, str(exc)[:300])

    def run(self, fn, *args):
        """One operation; returns None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation must not end the run
            self.fail(exc)
            return None

    def check(self, name: str, fn) -> None:
        """One correctness check: ``fn`` returns (ok, detail); raising fails."""
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


@dataclass
class Context:
    workload: str
    seed: int
    size: str
    seconds: float
    tracer: Tracer
    reference: dict | None  # this workload's stored values for DEFAULT_SEED
    out_dir: Path
    ledger: Ledger = field(default_factory=Ledger)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit, note)
    layers: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)  # values reference.json holds

    @property
    def settings(self) -> dict:
        return specs.settings(self.workload, self.size)

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    def compare(self, key: str, value: float) -> None:
        """Check ``value`` against the reference; only at the default seed."""
        self.observed[key] = value
        if self.seed != specs.DEFAULT_SEED:
            return

        def close():
            if not self.reference or key not in self.reference:
                return False, f"{value!r}, but no reference stored"
            expected = self.reference[key]
            ok = abs(value - expected) <= specs.REFERENCE_RTOL * abs(expected)
            return ok, f"{value!r} vs reference {expected!r} (rtol {specs.REFERENCE_RTOL:g})"

        self.ledger.check(f"reference {key}", close)


def latency_metrics(ctx: Context, seconds: list[float], what: str) -> None:
    """batch_ms_p50 and the workload's fixed tail percentile as batch_ms_p95."""
    ms = 1000.0 * np.asarray(seconds)
    q = ctx.settings["tail_pct"]
    tail = float(np.percentile(ms, q))
    beyond = int(np.sum(ms > tail))
    ctx.metrics["batch_ms_p50"] = (float(np.median(ms)), "ms", f"median {what}, n={ms.size}")
    ctx.metrics["batch_ms_p95"] = (
        tail, "ms", f"p{q} {what}, n={ms.size}, {beyond} samples beyond it"
    )


def rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ms_median(values: list[float]) -> float:
    return 1000.0 * float(np.median(values)) if values else 0.0


def overhead(ctx: Context, traced_ms: float, untraced_ms: float) -> None:
    ctx.layers["trace.overhead_ms"] = (
        traced_ms - untraced_ms, "ms", f"traced {traced_ms:.4f} - untraced {untraced_ms:.4f} ms"
    )
    ctx.layers["trace.overhead_pct"] = (
        100.0 * (traced_ms / untraced_ms - 1.0), "%", "of the untraced median"
    )


# -- train_cvpe / train_vanilla ------------------------------------------------


def run_train(ctx: Context) -> None:
    cfg = parse_config(specs.raw_config(ctx.workload, ctx.seed, ctx.size))
    horizon, bsz = cfg.horizons[0], cfg.batch_size
    train_s, _, _ = prepare_segments(cfg)
    windows, targets = make_windows(train_s.values, cfg.context, horizon)
    params = specs.build_model(cfg, cfg.variants[0], horizon, ctx.seed)
    leaves = params.parameters()
    state = AdamState.init(leaves, lr=cfg.lr)
    schedule = plan_schedule(windows.shape[0], PLANNED_EPOCHS, ctx.seed)
    batches = (
        order[lo : lo + bsz] for order in itertools.cycle(schedule) for lo in range(0, order.size, bsz)
    )
    losses: list[float | None] = []
    ref_step = ctx.settings["ref_step"]

    def step(sel, span):
        with span("model.forecast_batch"):
            pred = forecast_batch(windows[sel], params)
        with span("train.mse_loss"):
            loss = mse_loss(pred, targets[sel])
            value = loss.item()
        if not np.isfinite(value):
            raise NonFinite(f"training loss {value}")
        with span("train.backward"):
            grads = backward(loss, leaves)
        with span("train.adam_step"):
            adam_step(state, leaves, grads)
        return value

    def loop(seconds: float, spans) -> dict:
        """Steps for ``seconds``; step k records spans with ``spans[k % len]``."""
        times = [[] for _ in spans]
        n_windows = 0
        start = timed_from = time.perf_counter()
        k = 0
        while len(losses) < ref_step or time.perf_counter() - start < seconds:
            sel = next(batches)
            i = k % len(spans)
            span = spans[i]
            t0 = time.perf_counter()
            with span("train.step"):
                losses.append(ctx.ledger.run(step, sel, span))
            t1 = time.perf_counter()
            k += 1
            if k > WARMUP_STEPS:
                times[i].append(t1 - t0)
                n_windows += sel.size
            elif k == WARMUP_STEPS:
                timed_from = t1
        return {"times": times, "wps": n_windows / (time.perf_counter() - timed_from)}

    if not ctx.traced:
        u = loop(ctx.seconds, (_NO_SPAN,))
        times = u["times"][0]
        ctx.metrics["windows_per_s"] = (
            u["wps"], "1/s", f"forward+backward+Adam, batch {bsz}, {len(times)} timed steps"
        )
        latency_metrics(ctx, times, "optimizer step")
        ctx.metrics["peak_rss_mb"] = (rss_mb(), "MB", "this process")
    else:
        # traced and untraced steps alternate, so drift of the machine's
        # speed hits both halves of the overhead estimate alike
        both = loop(LOOP_SHARE * ctx.seconds, (_NO_SPAN, ctx.tracer.span))
        overhead(ctx, ms_median(both["times"][1]), ms_median(both["times"][0]))
        tr = ctx.tracer
        for name, span in (
            ("model.forecast.fwd_ms", "model.forecast_batch"),
            ("train.loss.fwd_ms", "train.mse_loss"),
            ("train.backward_ms", "train.backward"),
            ("train.adam_ms", "train.adam_step"),
        ):
            ctx.layers[name] = (ms_median(tr.durations(span)), "ms", f"median {span} span")
        times, reps = layer_times.measure(
            params, windows[schedule[0][:bsz]], True, LAYER_SHARE * ctx.seconds
        )
        for name, value in times.items():
            ctx.layers[name] = (value, "ms", f"median of {reps} calls, batch {bsz}")

    ctx.compare(f"loss_at_step_{ref_step}", losses[ref_step - 1])
    sels = [schedule[0][i * bsz : (i + 1) * bsz] for i in range(3)]
    counts_per_batch(ctx, params, [windows[s] for s in sels], [targets[s] for s in sels])

    def gradient_check():
        report = grad_check(
            params,
            windows[:GRAD_CHECK_WINDOWS],
            targets[:GRAD_CHECK_WINDOWS],
            tolerance=GRAD_CHECK_TOL,
            samples_per_tensor=GRAD_CHECK_SAMPLES,
            seed=ctx.seed,
        )
        detail = f"max relative error {report.max_rel_err:.3e} (tolerance {GRAD_CHECK_TOL:g})"
        return report.passed, detail

    ctx.ledger.check("grad_check on the final parameters", gradient_check)


def counts_per_batch(ctx: Context, params, batches, targets=None) -> None:
    """Tape nodes and attention scores on several batches: each must repeat
    exactly, and the block's scores must match 2*B*P*heads*routers*N.

    With ``targets`` the tape is that of a training loss; without, that of
    a ``no_grad`` forecast, which records none."""
    nodes = []
    for i, w in enumerate(batches):
        if targets is None:
            with no_grad():
                nodes.append(layer_times.tape_nodes(forecast_batch(w, params)))
        else:
            nodes.append(layer_times.tape_nodes(mse_loss(forecast_batch(w, params), targets[i])))
    counts = [layer_times.score_counts(params, w) for w in batches]
    ctx.ledger.check(
        "autodiff.tape_nodes repeats exactly", lambda: (len(set(nodes)) == 1, f"{nodes}")
    )
    ctx.ledger.check(
        "embedding scores repeat exactly", lambda: (len(set(counts)) == 1, f"{counts}")
    )
    total, block, analytic = counts[0]
    ctx.ledger.check(
        "block scores = 2*B*P*heads*routers*N",
        lambda: (block == analytic, f"counted {block}, analytic {analytic}"),
    )
    ctx.layers["autodiff.tape_nodes"] = (
        nodes[0], "count", "tensors one backward walks" if targets else "no_grad: no tape recorded"
    )
    ctx.layers["embedding.scores_per_batch"] = (total, "count", "ScoreCounter over forecast_batch")
    ctx.layers["embedding.cvpe_scores_per_batch"] = (block, "count", f"analytic {analytic}")


# -- infer_wide ------------------------------------------------------------------


def run_infer(ctx: Context) -> None:
    cfg = parse_config(specs.raw_config(ctx.workload, ctx.seed, ctx.size))
    horizon, bsz = cfg.horizons[0], cfg.batch_size
    _, _, test_s = prepare_segments(cfg)
    windows, targets = make_windows(test_s.values, cfg.context, horizon)
    models = {v: specs.build_model(cfg, v, horizon, ctx.seed) for v in cfg.variants}
    fns = {v: model_forecast_fn(p) for v, p in models.items()}
    for fn in fns.values():
        fn(windows[:bsz])  # let caches fill before timing
    results: dict[str, list[tuple[float, float]]] = {v: [] for v in models}

    def forecaster(variant, span, sink):
        fn = fns[variant]

        def call(w):
            ctx.ledger.attempted += 1
            t0 = time.perf_counter()
            with span(f"model.forecast_batch[{variant}]"):
                pred = fn(w)
            sink.append(time.perf_counter() - t0)
            if not np.isfinite(pred).all():
                raise NonFinite(f"{variant} forecast")
            return pred

        return call

    def loop(seconds: float, spans) -> dict:
        """Evaluate passes for ``seconds``, at least one per entry of
        ``spans``; pass k records spans with ``spans[k % len]``."""
        paired = [[] for _ in spans]
        passes = [[] for _ in spans]
        start = time.perf_counter()
        k = 0
        while k < len(spans) or time.perf_counter() - start < seconds:
            i, k = k % len(spans), k + 1
            span = spans[i]
            t0 = time.perf_counter()
            per_variant = {}
            for v in models:
                sink = per_variant[v] = []
                try:
                    with span("evaluation.evaluate"):
                        m = evaluate(forecaster(v, span, sink), windows, targets, bsz)
                    results[v].append((m.mse, m.mae))
                except Exception as exc:  # a failing batch must not end the run
                    ctx.ledger.fail(exc)
            passes[i].append(time.perf_counter() - t0)
            paired[i] += [sum(ts) for ts in zip(*per_variant.values())]
        return {"paired": paired, "passes": passes}

    if not ctx.traced:
        u = loop(ctx.seconds, (_NO_SPAN,))
        passes = u["passes"][0]
        n = windows.shape[0]
        ctx.metrics["windows_per_s"] = (
            n * len(passes) / sum(passes), "1/s",
            f"no_grad forecast by both variants, batch {bsz}, {len(passes)} passes of {n}",
        )
        latency_metrics(ctx, u["paired"][0], f"batch of {bsz} through both variants")
        ctx.metrics["peak_rss_mb"] = (rss_mb(), "MB", "this process")
    else:
        both = loop(LOOP_SHARE * ctx.seconds, (_NO_SPAN, ctx.tracer.span))
        overhead(ctx, ms_median(both["paired"][1]), ms_median(both["paired"][0]))
        ctx.layers["model.forecast.fwd_ms"] = (
            ms_median(ctx.tracer.durations("model.forecast_batch[cvpe]")), "ms",
            "median model.forecast_batch[cvpe] span, no_grad",
        )
        ctx.layers["evaluation.evaluate_s"] = (
            float(np.median(both["passes"][1])), "s", "traced evaluate pass, both variants"
        )
        times, reps = layer_times.measure(
            models["cvpe"], windows[:bsz], False, LAYER_SHARE * ctx.seconds
        )
        for name, value in times.items():
            ctx.layers[name] = (value, "ms", f"median of {reps} calls, cvpe model, batch {bsz}, no_grad")
        measure_grid(ctx)

    for v, runs in results.items():
        ctx.ledger.check(
            f"{v} metrics repeat exactly across passes",
            lambda runs=runs: (len(set(runs)) == 1, f"{len(runs)} passes, {len(set(runs))} distinct"),
        )
        if runs:
            ctx.compare(f"{v}.mse", runs[0][0])
            ctx.compare(f"{v}.mae", runs[0][1])

    def batch_invariance(v):
        whole = fns[v](windows[:bsz])
        alone = fns[v](windows[:1])
        gap = float(np.max(np.abs(whole[:1] - alone)))
        return bool(np.allclose(whole[:1], alone, rtol=1e-9, atol=1e-12)), f"max gap {gap:.3e}"

    for v in models:
        ctx.ledger.check(f"{v} window forecast does not depend on its batch",
                         lambda v=v: batch_invariance(v))
    counts_per_batch(ctx, models["cvpe"], [windows[:bsz], windows[-bsz:]])


# -- the paired grid, timed in infer_wide's traced run ---------------------------


def measure_grid(ctx: Context) -> None:
    """Time the evaluation layers on a short paired grid.

    One ``cvpe experiment --jobs 2`` through ``cli.main``, the same grid
    through ``run_experiment`` and ``write_experiment``, and each cell once
    more through ``run_cell`` alone.  Pool efficiency is the serial cell time
    over jobs times the grid's wall time.  The cells must be ok, paired cells
    must share their batch order, and each serial cell must match the pool.
    """
    work = ctx.out_dir / f"grid_seed{ctx.seed}_{ctx.size}"
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(specs.grid_config(ctx.seed, ctx.size), indent=2))
    cfg = load_config(cfg_path)
    horizon = cfg.horizons[0]
    cells = [(v, s) for s in cfg.seeds for v in cfg.variants]
    tr = ctx.tracer
    argv = ["experiment", "--config", str(cfg_path), "--jobs", str(JOBS),
            "--out", str(work / "report"), "--overwrite"]

    def pooled():
        with tr.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cvpe experiment exited with {code}")
        rows = json.loads((work / "report" / "report.json").read_text())["cells"]
        return {(r["variant"], r["seed"]): r for r in rows}

    def direct():
        with tr.span("evaluation.run_experiment"):
            report = run_experiment(cfg, jobs=JOBS)
        with tr.span("evaluation.write_experiment"):
            write_experiment(report, work / "report_direct", overwrite=True)

    by_cell = ctx.ledger.run(pooled) or {}
    ctx.ledger.run(direct)
    segments = prepare_segments(cfg)
    serial = {}
    for v, s in cells:
        with tr.span(f"evaluation.run_cell[{v}]"):
            serial[(v, s)] = ctx.ledger.run(run_cell, segments, cfg, v, horizon, s)

    def paired_ok():
        rows = [by_cell.get(c) for c in cells]
        bad = [c for c, r in zip(cells, rows) if r is None or r["status"] != "ok"]
        unpaired = [s for s in cfg.seeds
                    if len({by_cell.get((v, s), {}).get("window_order_digest") for v in cfg.variants}) != 1]
        return not bad and not unpaired, f"failed cells {bad}, seeds with unpaired batches {unpaired}"

    ctx.ledger.check("grid cells ok, paired cells share their batch order", paired_ok)
    for (v, s), cell in serial.items():
        pooled_mse = by_cell.get((v, s), {}).get("mse")
        if pooled_mse is not None:
            ctx.compare(f"grid.{v}/seed{s}.mse", pooled_mse)

        def same(cell=cell, pooled_mse=pooled_mse):
            if cell is None or cell.status != "ok" or pooled_mse is None:
                return False, f"serial {cell and cell.status}, pooled {pooled_mse}"
            ok = abs(cell.mse - pooled_mse) <= specs.REFERENCE_RTOL * abs(pooled_mse)
            return ok, f"serial {cell.mse!r} vs --jobs {JOBS} {pooled_mse!r}"

        ctx.ledger.check(f"grid {v}/seed{s}: serial run_cell matches the pool", same)

    grid_s = sum(tr.durations("cli.main"))
    serial_s = sum(sum(tr.durations(f"evaluation.run_cell[{v}]")) for v in cfg.variants)
    ctx.layers["evaluation.grid_s"] = (
        grid_s, "s", f"one cvpe experiment --jobs {JOBS}: {len(cells)} cells x {cfg.epochs} epochs"
    )
    for v in cfg.variants:
        ctx.layers[f"evaluation.run_cell_s.{v}"] = (
            float(np.mean(tr.durations(f"evaluation.run_cell[{v}]"))), "s", "serial, mean over seeds"
        )
    ctx.layers["evaluation.write_experiment_ms"] = (
        ms_median(tr.durations("evaluation.write_experiment")), "ms", "span"
    )
    ctx.layers["evaluation.pool_serial_s"] = (serial_s, "s", f"{len(cells)} cells run one by one")
    ctx.layers["evaluation.pool_jobs_x_grid_s"] = (JOBS * grid_s, "s", f"{JOBS} x evaluation.grid_s")
    if grid_s:
        ctx.layers["evaluation.pool_efficiency"] = (
            serial_s / (JOBS * grid_s), "ratio", f"{serial_s:.3f} s / ({JOBS} x {grid_s:.3f} s)"
        )


RUNNERS = {"train": run_train, "infer": run_infer}
