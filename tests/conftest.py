"""Shared test plumbing: the acceptance verdict summary, the tiny run
config, the identity configuration of the cross-variate block and a
gradient with its sign flipped.

Acceptance tests record one verdict line each; the terminal-summary hook
replays them after the run so every criterion's PASS/FAIL/SKIP line is
visible even though pytest captures per-test output.
"""

import numpy as np

from cvpe import train
from cvpe.autodiff import parameter
from cvpe.embedding import MLP_RATIO, CvpeParams, RouterBank
from cvpe.layers import Affine, Mlp

ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(line: str):
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line)


def tiny_raw_config(**overrides) -> dict:
    """The tiny run config, unparsed: 3 synthetic channels of 400 steps,
    context 24, one horizon, one seed and a 4-wide model.  Each of
    ``overrides`` replaces a whole top-level section."""
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
    }
    raw.update(overrides)
    return raw


def flip_gradient(monkeypatch, name: str):
    """Make ``train.backward``, which ``train.grad_check`` calls, return the
    gradient of the parameter called ``name`` with its sign flipped, so the
    check's failure path can be driven."""
    real = train.backward

    def flipped(loss, params):
        return [-g if p.name == name else g for p, g in zip(params, real(loss, params))]

    monkeypatch.setattr(train, "backward", flipped)


class PassThrough:
    """Stands in for a layer norm: returns its input unchanged.  No affine map
    after a normalisation can reproduce arbitrary inputs, so the identity
    block needs this in place of ``ln1`` and ``ln2``."""

    def apply(self, x):
        return x


def zero_affine(fan_in: int, fan_out: int, name: str) -> Affine:
    return Affine(
        w=parameter(np.zeros((fan_in, fan_out)), f"{name}.w"),
        b=parameter(np.zeros(fan_out), f"{name}.b"),
    )


def zero_mlp(dim: int, hidden: int, name: str) -> Mlp:
    return Mlp(fc1=zero_affine(dim, hidden, f"{name}.fc1"), fc2=zero_affine(hidden, dim, f"{name}.fc2"))


def identity_block(n_positions: int, model_dim: int, n_routers: int) -> CvpeParams:
    """A cross-variate block whose forward pass is exactly the identity map.

    Zero positional table, zero output projections (so the dispatch branch
    contributes nothing), a zero MLP, and pass-through norms; the routers
    are drawn as ``RouterBank.init`` draws them.  The vanilla-equivalence
    control of acceptance criterion 4.
    """
    rng = np.random.default_rng(0)
    return CvpeParams(
        positional=parameter(np.zeros((n_positions, model_dim)), "cvpe.positional"),
        routers=RouterBank.init(n_positions, n_routers, model_dim, rng, "cvpe.routers"),
        collect_out=zero_affine(model_dim, model_dim, "cvpe.collect_out"),
        dispatch_out=zero_affine(model_dim, model_dim, "cvpe.dispatch_out"),
        mlp=zero_mlp(model_dim, MLP_RATIO * model_dim, "cvpe.mlp"),
        ln1=PassThrough(),
        ln2=PassThrough(),
    )
