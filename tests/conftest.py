"""Shared test plumbing: the acceptance verdict summary and the identity
configuration of the cross-variate block.

Acceptance tests record one verdict line each; the terminal-summary hook
replays them after the run so every criterion's PASS/FAIL/SKIP line is
visible even though pytest captures per-test output.
"""

import numpy as np

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
