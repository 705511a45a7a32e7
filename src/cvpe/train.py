"""Loss, gradients, finite-difference verification, Adam, the evaluator and
the train loop.

Everything runs in float64.  The loop is fully deterministic given the seed:
the complete shuffled window schedule is drawn up front, and its digest is
exposed so paired runs can prove they saw identical batches.

The no-grad forecaster (:func:`model_forecast_fn`) uses both cores: windows
never interact, so a batch splits into two parts, and one persistent helper
thread forecasts the second while the caller forecasts the first (numpy
releases the GIL in BLAS and ufunc loops).  The first part is a whole number
of ``autodiff.ROW_TILE`` windows, so every row keeps its BLAS row tile and
the parts give the whole batch's bits wherever the row blocks do (see "Row
blocks" in the ``autodiff`` module docstring).  The helper's thread starts
on first use, and a forked child makes a new helper, since its copy has no
thread behind it.  Training stays on one thread: summing the gradients of
two halves would change their rounding.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .autodiff import ROW_TILE, NumericError, Tensor, add, as_tensor, no_grad, tmean
from .data import window_count
from .layers import rng_from
from .model import ModelParams, forecast_batch

if TYPE_CHECKING:
    from .config import RunConfig

EVAL_BATCH = 64
GRAD_CHECK_STEP = 1e-5
GRAD_CHECK_SAMPLES = 16
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_SHUFFLE_STREAM = 100


class TrainingDiverged(ArithmeticError):
    """Raised when a training loss, or an epoch's validation loss, stops
    being finite; the message names the epoch and batch."""


def mse_loss(pred, target) -> Tensor:
    """Mean squared error over every element, as a scalar graph node."""
    pred = as_tensor(pred)
    target = np.asarray(target, dtype=np.float64)
    if tuple(pred.shape) != tuple(target.shape):
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    # IEEE negation is exact, so this is pred - target to the bit, in one node
    diff = add(pred, -target)
    return tmean(diff * diff)


def backward(loss: Tensor, params: list[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar loss for each parameter, in parameter order.

    Parameters the loss never touched get zero gradients.  Non-finite
    gradients abort with the offending parameter named.
    """
    for p in params:
        p.grad = None
    loss.backward()
    grads = []
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite value in stage 'backward': non-finite gradient for {p.name}")
        grads.append(g)
    return grads


def make_windows(values: np.ndarray, context: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut a (channels, T) segment into supervised pairs.

    Returns windows (W, channels, context) and targets (W, channels,
    horizon) where window i starts at time ``i``.  Both are read-only strided
    views into one C-ordered copy of ``values``: the segment is copied once,
    at O(channels * T) cost, instead of once per overlapping window, and no
    later write to ``values`` reaches them.  Consumers that need C order copy
    a batch (``forecast_batch``) or index one out (which copies).
    """
    values = np.array(values, dtype=np.float64, order="C")
    if values.ndim != 2:
        raise ValueError(f"expected (channels, time) values, got {values.shape}")
    if context < 1 or horizon < 1:
        raise ValueError("context and horizon must be positive")
    if window_count(values.shape[1], context, horizon) == 0:
        raise ValueError(
            f"segment of {values.shape[1]} steps too short for context {context} "
            f"plus horizon {horizon}"
        )
    # (channels, starts, context + horizon), read-only
    spans = np.lib.stride_tricks.sliding_window_view(values, context + horizon, axis=1)
    return spans[:, :, :context].transpose(1, 0, 2), spans[:, :, context:].transpose(1, 0, 2)


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    n_checked: int


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def max_rel_err(self) -> float:
        return max(e.max_rel_err for e in self.entries)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def grad_check(
    params: ModelParams,
    windows: np.ndarray,
    targets: np.ndarray,
    tolerance: float,
    samples_per_tensor: int = GRAD_CHECK_SAMPLES,
    seed: int = 0,
) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    For each parameter tensor a random sample of coordinates (all of them
    for small tensors) is perturbed by ``GRAD_CHECK_STEP`` in both directions
    and the quotient is compared to the recorded gradient via
    ``|g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|)``.
    """
    leaves = params.parameters()
    loss = mse_loss(forecast_batch(windows, params), targets)
    grads = backward(loss, leaves)

    def loss_at() -> float:
        with no_grad():
            return mse_loss(forecast_batch(windows, params), targets).item()

    rng = np.random.default_rng(seed)
    entries = []
    for p, g in zip(leaves, grads):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        if flat.size <= samples_per_tensor:
            coords = np.arange(flat.size)
        else:
            coords = rng.choice(flat.size, size=samples_per_tensor, replace=False)
        worst = 0.0
        for c in coords:
            original = flat[c]
            flat[c] = original + GRAD_CHECK_STEP
            hi = loss_at()
            flat[c] = original - GRAD_CHECK_STEP
            lo = loss_at()
            flat[c] = original
            fd = (hi - lo) / (2.0 * GRAD_CHECK_STEP)
            ad = gflat[c]
            rel = abs(ad - fd) / max(1e-8, abs(ad) + abs(fd))
            worst = max(worst, rel)
        entries.append(GradCheckEntry(p.name, worst, len(coords)))
    return GradCheckReport(entries, tolerance)


@dataclass
class AdamState:
    """First/second moment accumulators over the parameters laid end to end:
    parameter ``i`` owns ``m[bounds[i]:bounds[i + 1]]`` and the same slice of
    ``v``.  The decay rates and epsilon are ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS``."""

    lr: float
    step_count: int
    m: np.ndarray
    v: np.ndarray
    bounds: np.ndarray

    @classmethod
    def init(cls, params: list[Tensor], lr: float) -> "AdamState":
        bounds = np.cumsum([0] + [p.data.size for p in params])
        return cls(
            lr=lr,
            step_count=0,
            m=np.zeros(bounds[-1]),
            v=np.zeros(bounds[-1]),
            bounds=bounds,
        )


def adam_step(state: AdamState, params: list[Tensor], grads: list[np.ndarray]):
    """One bias-corrected Adam update.

    The gradients and parameters are concatenated, so the update runs once
    over one flat vector; each ``p.data`` is then rebound to its slice of the
    result.  The moments are updated in place.
    """
    if not (len(params) == len(grads) == len(state.bounds) - 1):
        raise ValueError("parameter, gradient and accumulator counts must match")
    for p, g in zip(params, grads):
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} mismatches {p.name} {p.data.shape}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    g = np.concatenate([g.reshape(-1) for g in grads])
    data = np.concatenate([p.data.reshape(-1) for p in params])
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    data = data - state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    for p, lo, hi in zip(params, state.bounds, state.bounds[1:]):
        p.data = data[lo:hi].reshape(p.data.shape)


@dataclass
class EpochRecord:
    epoch: int
    train_mse: float
    val_mse: float


@dataclass
class TrainResult:
    """Outcome of a run: history, best epoch, and the schedule digest."""

    history: list[EpochRecord]
    best_epoch: int
    window_order_digest: str


def plan_schedule(n_windows: int, epochs: int, seed: int) -> np.ndarray:
    """Shuffled window indices for every epoch, drawn up front: (epochs, W),
    allocated before the first draw, so too many epochs fail at once."""
    rng = rng_from(seed, _SHUFFLE_STREAM)
    schedule = np.empty((epochs, n_windows), dtype=np.int64)
    for row in schedule:
        row[:] = rng.permutation(n_windows)
    return schedule


def schedule_digest(schedule: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(schedule, dtype=np.int64).tobytes()).hexdigest()


@dataclass(frozen=True)
class MetricPair:
    mse: float
    mae: float


def evaluate(
    forecast_fn: Callable[[np.ndarray], np.ndarray],
    windows: np.ndarray,
    targets: np.ndarray,
    batch_size: int = EVAL_BATCH,
) -> MetricPair:
    """Run a forecaster over a window set and average the errors.

    ``forecast_fn`` maps a (batch, channels, context) array to a (batch,
    channels, horizon) array; errors are averaged uniformly over windows,
    channels and horizon steps.  This is the one scorer: the train loop's
    validation MSE and every test score come from here.
    """
    windows = np.asarray(windows, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if windows.shape[0] != targets.shape[0]:
        raise ValueError("window and target counts differ")
    if windows.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty window set")
    sq_sum = 0.0
    abs_sum = 0.0
    for lo in range(0, windows.shape[0], batch_size):
        chunk = slice(lo, lo + batch_size)
        pred = np.asarray(forecast_fn(windows[chunk]), dtype=np.float64)
        if pred.shape != targets[chunk].shape:
            raise ValueError(
                f"forecaster returned {pred.shape}, expected {targets[chunk].shape}"
            )
        err = pred - targets[chunk]
        sq_sum += float(np.sum(err * err))
        abs_sum += float(np.sum(np.abs(err)))
    count = float(np.prod(targets.shape))
    return MetricPair(mse=sq_sum / count, mae=abs_sum / count)


# The one helper thread of this process.  One persistent thread rather than
# one per call: a new thread can land in a new malloc arena, and per-call
# threads raised the peak RSS of a long evaluation by up to 18%.  The
# executor starts its thread on the first split forecast's submit, which is
# thread-safe.
_helper: ThreadPoolExecutor


def _new_helper() -> None:
    # at import, and in a forked child, which inherits the executor but not
    # its thread, so work submitted to it would never run
    global _helper
    _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="cvpe-forecast")


_new_helper()
os.register_at_fork(after_in_child=_new_helper)


def model_forecast_fn(params: ModelParams) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap trained parameters as a plain array-to-array forecaster.

    A batch of ``2 * ROW_TILE`` windows or more is forecast in two parts of
    about half the batch, the first a whole number of ``ROW_TILE`` windows
    and the second on the helper thread, and the parts are joined.  An
    error in either part is raised unchanged once both parts are done, the
    first part's if both fail.
    """

    def forecast(windows: np.ndarray) -> np.ndarray:
        with no_grad():
            return forecast_batch(windows, params).data

    def fn(windows: np.ndarray) -> np.ndarray:
        windows = np.asarray(windows, dtype=np.float64)
        # the second part starts on a row tile of every GEMM (see "Row
        # blocks" in the autodiff module docstring)
        mid = ROW_TILE * (len(windows) // (2 * ROW_TILE)) if windows.ndim == 3 else 0
        if mid == 0:
            return forecast(windows)
        second = _helper.submit(forecast, windows[mid:])
        try:
            first = forecast(windows[:mid])
        finally:
            wait((second,))
        return np.concatenate((first, second.result()))

    return fn


def train_loop(
    params: ModelParams,
    train_windows: np.ndarray,
    train_targets: np.ndarray,
    val_windows: np.ndarray,
    val_targets: np.ndarray,
    config: RunConfig,
    seed: int,
) -> TrainResult:
    """Mini-batch Adam with early stopping on validation MSE.

    ``config`` gives the epochs, batch size, learning rate and patience, and
    ``seed`` the batch schedule.  The best-validation parameters are
    restored before returning, so the caller always ends up with the
    selected model, not the last one.  The full shuffled schedule is planned
    ahead of training; its digest is independent of where early stopping
    lands.
    """
    if train_windows.shape[0] < 1 or val_windows.shape[0] < 1:
        raise ValueError("training and validation window sets must be non-empty")
    leaves = params.parameters()
    state = AdamState.init(leaves, lr=config.lr)
    schedule = plan_schedule(train_windows.shape[0], config.epochs, seed)
    digest = schedule_digest(schedule)

    history: list[EpochRecord] = []
    best_val = np.inf
    best_epoch = -1
    best_snapshot: list[np.ndarray] | None = None
    since_best = 0
    for epoch in range(config.epochs):
        order = schedule[epoch]
        sq_sum = 0.0
        for b, lo in enumerate(range(0, order.size, config.batch_size)):
            sel = order[lo : lo + config.batch_size]
            loss = mse_loss(forecast_batch(train_windows[sel], params), train_targets[sel])
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite training loss at epoch {epoch}, batch {b}")
            grads = backward(loss, leaves)
            adam_step(state, leaves, grads)
            sq_sum += value * sel.size * np.prod(train_targets.shape[1:])
        train_mse = float(sq_sum / np.prod(train_targets.shape))
        val_mse = evaluate(model_forecast_fn(params), val_windows, val_targets).mse
        if not np.isfinite(val_mse):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        history.append(EpochRecord(epoch, train_mse, val_mse))
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best_snapshot = [p.data.copy() for p in leaves]
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    if best_snapshot is not None:
        for p, data in zip(leaves, best_snapshot):
            p.data = data
    return TrainResult(history=history, best_epoch=best_epoch, window_order_digest=digest)
