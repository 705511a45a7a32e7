"""Dataset ingestion, chronological splitting, channel selection, synthesis.

Series are stored channel-major as float64 arrays of shape (n_channels,
length); the last channel of ETT-style files is the target "OT".
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

AR_COEF = 0.9
SEASON_PERIOD = 24.0
SEASON_AMPLITUDE = 0.5
TARGET_CHANNEL = "OT"


class CsvFormatError(ValueError):
    """Malformed CSV input; carries the offending row/column when known."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.row = row
        self.column = column


class UndefinedCorrelationError(ValueError):
    """Pearson correlation requested against a zero-variance sequence."""


@dataclass
class MultivariateSeries:
    """A multivariate series: ``values[i, t]`` is channel i at time t."""

    values: np.ndarray
    channel_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"series values must be 2-D (channels, time), got {self.values.shape}")
        if self.values.shape[1] < 1:
            raise ValueError("series must contain at least one time step")
        if len(self.channel_names) != self.values.shape[0]:
            raise ValueError(
                f"{len(self.channel_names)} channel names for {self.values.shape[0]} channels"
            )
        if len(set(self.channel_names)) != len(self.channel_names):
            raise ValueError("channel names must be unique")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split boundaries, explicit or by named protocol.

    ``resolve`` returns (train_end, val_end, test_end): train is
    ``[0, train_end)``, validation ``[train_end, val_end)``, test
    ``[val_end, test_end)``.  Fixed-calendar protocols cap ``test_end`` and
    discard any remainder, matching the usual ETT evaluation windows.
    """

    protocol: str | None = None
    boundaries: tuple[int, int] | tuple[int, int, int] | None = None

    _PROTOCOLS = {
        # 12 / 4 / 4 months of 30 days
        "ett_hourly": (12 * 30 * 24, 16 * 30 * 24, 20 * 30 * 24),
        "ett_minute": (12 * 30 * 24 * 4, 16 * 30 * 24 * 4, 20 * 30 * 24 * 4),
        "ratio_70_10_20": None,
    }

    def __post_init__(self):
        if (self.protocol is None) == (self.boundaries is None):
            raise ValueError("exactly one of protocol or boundaries must be given")
        # a list or an object cannot be looked up, so the type is checked first
        if self.protocol is not None and (
            not isinstance(self.protocol, str) or self.protocol not in self._PROTOCOLS
        ):
            raise ValueError(
                f"unknown split protocol {self.protocol!r}; "
                f"known: {sorted(self._PROTOCOLS)}"
            )

    def resolve(self, length: int) -> tuple[int, int, int]:
        if self.protocol == "ratio_70_10_20":
            bounds = (math.floor(0.7 * length), math.floor(0.8 * length), length)
        elif self.protocol is not None:
            bounds = self._PROTOCOLS[self.protocol]
        elif len(self.boundaries) == 2:
            bounds = (*self.boundaries, length)
        else:
            bounds = self.boundaries
        a, b, c = (int(v) for v in bounds)
        if not (0 < a < b < c):
            raise ValueError(f"split boundaries must be strictly increasing and positive, got {bounds}")
        if c > length:
            raise ValueError(
                f"split needs {c} time steps but the series has only {length}"
            )
        return a, b, c


def chronological_split(
    series: MultivariateSeries, spec: SplitSpec
) -> tuple[MultivariateSeries, MultivariateSeries, MultivariateSeries]:
    """Cut a series into ordered, disjoint train / validation / test segments."""
    a, b, c = spec.resolve(series.length)
    make = lambda lo, hi: MultivariateSeries(
        series.values[:, lo:hi].copy(), list(series.channel_names)
    )
    return make(0, a), make(a, b), make(b, c)


def load_csv(path: str | Path, date_column: str = "date") -> MultivariateSeries:
    """Load an ETT-style CSV: timestamp column first, one column per channel."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file", row=0) from None
        if len(header) < 2:
            raise CsvFormatError("need a timestamp column plus at least one channel", row=0)
        if header[0] != date_column:
            raise CsvFormatError(
                f"first column must be the timestamp column {date_column!r}, got {header[0]!r}",
                row=0,
                column=header[0],
            )
        names = [h.strip() for h in header[1:]]
        rows: list[list[float]] = []
        for lineno, record in enumerate(reader, start=1):
            if not record:
                continue
            if len(record) != len(header):
                raise CsvFormatError(
                    f"expected {len(header)} fields, got {len(record)}", row=lineno
                )
            parsed = []
            for name, cell in zip(names, record[1:]):
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"non-numeric value {cell!r}", row=lineno, column=name
                    ) from None
                if not math.isfinite(value):
                    raise CsvFormatError(
                        f"non-finite value {cell!r}", row=lineno, column=name
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise CsvFormatError("no data rows", row=1)
    values = np.asarray(rows, dtype=np.float64).T
    return MultivariateSeries(values, names)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation between two equal-length 1-D sequences."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("pearson expects 1-D sequences")
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ValueError("need at least two points")
    # a constant is told by its range: a zero centred sum of squares would
    # depend on whether the mean came out exact
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise UndefinedCorrelationError("correlation undefined for a constant sequence")
    xc = x - x.mean()
    yc = y - y.mean()
    return float(np.dot(xc, yc) / np.sqrt(np.dot(xc, xc) * np.dot(yc, yc)))


def rank_channels(
    series: MultivariateSeries, target: str, train_len: int | None = None
) -> list[tuple[str, float]]:
    """Rank non-target channels by |correlation| with the target.

    Correlations are computed on the first ``train_len`` steps only (full
    series when None) so selection never peeks past the training segment.
    Constant candidates are left out; a constant target is an error.
    """
    if target not in series.channel_names:
        raise ValueError(f"no channel named {target!r}")
    sl = slice(None) if train_len is None else slice(0, int(train_len))
    values = series.values[:, sl]
    if values.shape[1] < 2:
        raise ValueError("need at least two training steps to correlate")
    t_idx = series.channel_names.index(target)
    t_vals = values[t_idx]
    if np.ptp(t_vals) == 0.0:
        raise UndefinedCorrelationError(f"target channel {target!r} is constant")
    ranked = [
        (i, name, pearson(values[i], t_vals))
        for i, name in enumerate(series.channel_names)
        if i != t_idx and np.ptp(values[i]) != 0.0
    ]
    # strongest first; ties broken by original channel order
    ranked.sort(key=lambda item: (-abs(item[2]), item[0]))
    return [(name, r) for _, name, r in ranked]


def select_top_k(
    series: MultivariateSeries, target: str, k: int, train_len: int | None = None
) -> MultivariateSeries:
    """Keep the k channels most correlated with the target, plus the target.

    Channel order of the original series is preserved; the target always
    survives selection.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    ranked = rank_channels(series, target, train_len)
    keep = {name for name, _ in ranked[:k]}
    keep.add(target)
    idx = [i for i, name in enumerate(series.channel_names) if name in keep]
    return MultivariateSeries(series.values[idx].copy(), [series.channel_names[i] for i in idx])


@dataclass(frozen=True)
class SyntheticSpec:
    """Controls for the coupled synthetic generator.

    ``coupling`` interpolates the target between its own latent process
    (coupling 0) and the lagged mean of the driver channels (coupling 1).
    """

    n_channels: int
    length: int
    coupling: float
    lag: int
    noise_std: float
    seed: int

    def __post_init__(self):
        if self.n_channels < 2:
            raise ValueError("need at least one driver channel plus the target")
        if self.length < 1:
            raise ValueError("length must be positive")
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("coupling must lie in [0, 1]")
        if not 1 <= self.lag < self.length:
            raise ValueError("lag must satisfy 1 <= lag < length")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def lagged_driver_mean(driver_values: np.ndarray, lag: int) -> np.ndarray:
    """Mean over driver channels, shifted back by ``lag`` steps.

    Indices before the lag clamp to time zero, so the output has the same
    length as the input.
    """
    mean = np.mean(np.asarray(driver_values, dtype=np.float64), axis=0)
    t = np.arange(mean.shape[0])
    return mean[np.maximum(t - lag, 0)]


def generate_synthetic(spec: SyntheticSpec) -> MultivariateSeries:
    """Drivers follow AR(1) plus a daily sinusoid; the target mixes its own
    such process with the lagged driver mean according to ``coupling``."""
    rng = np.random.default_rng(spec.seed)
    n, length = spec.n_channels, spec.length
    # draw order is part of the contract: phases, innovations, target noise
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    innovations = rng.standard_normal((n, length))
    noise = rng.standard_normal(length)

    latent = np.empty((n, length))
    latent[:, 0] = innovations[:, 0]
    for t in range(1, length):
        latent[:, t] = AR_COEF * latent[:, t - 1] + innovations[:, t]
    t_grid = np.arange(length)
    latent += SEASON_AMPLITUDE * np.sin(
        2.0 * np.pi * t_grid[None, :] / SEASON_PERIOD + phases[:, None]
    )

    values = latent.copy()
    driven = lagged_driver_mean(latent[: n - 1], spec.lag)
    values[n - 1] = (
        spec.coupling * driven
        + (1.0 - spec.coupling) * latent[n - 1]
        + spec.noise_std * noise
    )
    names = [f"ch{i}" for i in range(n - 1)] + [TARGET_CHANNEL]
    return MultivariateSeries(values, names)
