"""Window-level preprocessing: instance normalisation and patching.

Normalisation is reversible per window and per channel; patching cuts each
channel into fixed-length, possibly overlapping segments.  Both operate on
plain arrays; only the patch projection enters the autodiff graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, affine

REVIN_EPS = 1e-5


@dataclass
class RevinState:
    """Per-channel statistics captured at normalisation time.

    ``mean`` and ``std`` keep the reduced time axis (length-1 trailing dim)
    so they broadcast against both the window and the forecast.  ``std`` is
    already guarded: every entry is at least ``REVIN_EPS``.
    """

    mean: np.ndarray
    std: np.ndarray


def revin_normalize(window: np.ndarray) -> tuple[np.ndarray, RevinState]:
    """Standardise each channel of a window to zero mean, unit spread.

    The time axis is the last one, so (channels, time) windows and batched
    (batch, channels, time) stacks both work.  The spread is the population
    standard deviation clamped from below by ``REVIN_EPS``; the clamp (rather
    than adding eps under the square root) keeps the transform exactly
    equivariant under scaling of non-degenerate inputs.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.shape[-1] < 1:
        raise ValueError("window must contain at least one time step")
    if not np.all(np.isfinite(window)):
        raise ValueError("window must be finite")
    mean = window.mean(axis=-1, keepdims=True)
    # the variance is a row dot of the one centred array
    centred = window - mean
    var = np.einsum("...t,...t->...", centred, centred)[..., None]
    var /= window.shape[-1]
    std = np.maximum(np.sqrt(var), REVIN_EPS)
    centred /= std
    return centred, RevinState(mean=mean, std=std)


def revin_denormalize(values: np.ndarray | Tensor, state: RevinState) -> Tensor:
    """Map normalised values (window or forecast) back to the original scale.

    Takes an array or a Tensor; the model's forecasts pass through here, so
    the result is a Tensor and gradients flow through it.
    """
    return add(values * state.std, state.mean)


@dataclass(frozen=True)
class PatchConfig:
    """Patch geometry: segment length and stride along the time axis."""

    length: int
    stride: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("patch length must be positive")
        if self.stride < 1:
            raise ValueError("patch stride must be positive")

    def n_patches(self, n_steps: int) -> int:
        """Patch count for a window of ``n_steps`` steps: floor((T - L) / S)."""
        if n_steps < self.length + self.stride:
            raise ValueError(
                f"window of {n_steps} steps too short for patches of length "
                f"{self.length} with stride {self.stride}"
            )
        return (n_steps - self.length) // self.stride


def patch(values: np.ndarray, cfg: PatchConfig) -> np.ndarray:
    """Slice the time axis into patches: (..., T) -> (..., P, length).

    Patch j covers steps [j * stride, j * stride + length).  With the floor
    patch count a short tail of the window may stay uncovered.  The result is
    a read-only strided view of ``values``; the patch projection flattens it
    into rows once.
    """
    values = np.asarray(values, dtype=np.float64)
    n = cfg.n_patches(values.shape[-1])
    spans = np.lib.stride_tricks.sliding_window_view(values, cfg.length, axis=-1)
    return spans[..., : n * cfg.stride : cfg.stride, :]


def project_patches(patches: np.ndarray, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine-map raw patches into model space: (..., P, length) -> (..., P, d)."""
    return affine(np.asarray(patches, dtype=np.float64), weight, bias)
