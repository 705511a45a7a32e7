"""Page faults of a training step in a fresh process.

Importing ``cvpe`` pins glibc's malloc thresholds, so the activation and
gradient blocks one step frees are reused by the next instead of being
unmapped and faulted in again.  The step runs in a new interpreter because
the test process's own heap history (a large block freed earlier) would
hide a regression.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MAX_FAULTS_PER_STEP = 50


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# The benchmark's train_cvpe workload at full size and seed 0: the bundled
# synthetic_ab data, the cvpe model, and batches drawn in order from a
# 100-epoch schedule; three warm-up steps, then ten counted ones.
_STEPS = """
import itertools, resource, sys
from cvpe.config import load_config
from cvpe.evaluation import prepare_segments
from cvpe.model import build_model, forecast_batch
from cvpe.train import AdamState, adam_step, backward, make_windows, mse_loss, plan_schedule

cfg = load_config(sys.argv[1])
horizon, bsz = cfg.horizons[0], cfg.batch_size
train_s, _, _ = prepare_segments(cfg)
windows, targets = make_windows(train_s.values, cfg.context, horizon)
params = build_model(cfg, "cvpe", horizon, 0)
leaves = params.parameters()
state = AdamState.init(leaves, lr=cfg.lr)
schedule = plan_schedule(windows.shape[0], 100, 0)
batches = (order[lo:lo + bsz] for order in itertools.cycle(schedule)
           for lo in range(0, order.size, bsz))

def step():
    sel = next(batches)
    loss = mse_loss(forecast_batch(windows[sel], params), targets[sel])
    adam_step(state, leaves, backward(loss, leaves))

for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or not _has_mallopt(), reason="needs glibc's mallopt"
)
def test_a_fresh_training_process_reuses_its_pages():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # the thresholds must come from the import, not from glibc's variables
    for name in [k for k in env if k.startswith("MALLOC_")]:
        del env[name]
    done = subprocess.run(
        [sys.executable, "-c", _STEPS, str(ROOT / "configs" / "synthetic_ab.json")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    faults = float(done.stdout.strip().splitlines()[-1])
    assert faults < MAX_FAULTS_PER_STEP
