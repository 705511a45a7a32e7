"""Write a deterministic, ETTh1-shaped CSV of synthetic data.

    python3 tools/ett_like.py OUT.csv

The file has the layout of the ETTh1 benchmark file: a ``date`` column of
hourly timestamps from 2016-07-01 00:00:00, then the six load channels
``HUFL``, ``HULL``, ``MUFL``, ``MULL``, ``LUFL`` and ``LULL`` and the oil
temperature ``OT`` last, with 3 decimals, 17,420 rows.  The values are
synthetic: each load is a level plus daily and weekly cycles and an AR(1)
disturbance, and ``OT`` follows a smoothed, lagged mix of the loads plus a
yearly cycle.  The values come from seed 0, so the file is the same bytes
every time.

It lets ``configs/etth1_smoke.json``'s shapes (context 256, 7 channels, the
``ett_hourly`` split) be run and measured without the real data.  It refuses
to write a file named ``ETTh1.csv``, so that nothing it writes can stand in
for the real file that acceptance criterion 9 reads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROWS = 17_420
START = np.datetime64("2016-07-01T00:00:00")
LOADS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL")
NAMES = (*LOADS, "OT")
REFUSED_NAME = "ETTh1.csv"
AR_COEF = 0.95
OT_LAG = 6  # hours by which the oil temperature follows the loads


def generate() -> np.ndarray:
    """The (ROWS, 7) values, loads first and ``OT`` last."""
    rows = ROWS
    rng = np.random.default_rng(0)
    n = len(LOADS)
    hours = np.arange(rows, dtype=np.float64)
    level = rng.uniform(-2.0, 12.0, n)
    daily = rng.uniform(0.5, 3.0, n)
    weekly = rng.uniform(0.2, 1.5, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, (2, n))
    shocks = rng.normal(0.0, 0.5, (rows, n))
    noise = np.empty((rows, n))
    noise[0] = shocks[0]
    for t in range(1, rows):
        noise[t] = AR_COEF * noise[t - 1] + shocks[t]
    loads = (
        level
        + daily * np.sin(2.0 * np.pi * hours[:, None] / 24.0 + phase[0])
        + weekly * np.sin(2.0 * np.pi * hours[:, None] / 168.0 + phase[1])
        + noise
    )
    # OT: a day-long moving average of the loads' mean, OT_LAG hours late,
    # plus a yearly cycle and its own noise
    mix = loads @ rng.dirichlet(np.ones(n))
    smooth = np.convolve(mix, np.ones(24) / 24.0)[:rows]
    lagged = smooth[np.maximum(np.arange(rows) - OT_LAG, 0)]
    yearly = 8.0 * np.sin(2.0 * np.pi * hours / (365.25 * 24.0))
    ot = 15.0 + 1.5 * lagged + yearly + rng.normal(0.0, 0.3, rows)
    return np.column_stack([loads, ot])


def write_csv(path: str | Path) -> Path:
    """Write the file to ``path``; ``ValueError`` for a file named
    ``ETTh1.csv``."""
    path = Path(path)
    if path.name == REFUSED_NAME:
        raise ValueError(f"refusing to write {path}: a synthetic file must not take the name of the real {REFUSED_NAME}")
    values = generate()
    stamps = START + np.arange(ROWS) * np.timedelta64(1, "h")
    lines = [",".join(("date", *NAMES))]
    for stamp, row in zip(np.datetime_as_string(stamps, unit="s"), values):
        lines.append(stamp.replace("T", " ") + "," + ",".join(f"{v:.3f}" for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="the CSV file to write")
    args = parser.parse_args(argv)
    try:
        write_csv(args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
