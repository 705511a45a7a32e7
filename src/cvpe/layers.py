"""Learnable building blocks shared by the embedding block and the model.

Everything here is a thin container of :class:`~cvpe.autodiff.Tensor` leaves
plus a functional ``apply``; no module owns hidden state, so forwards stay
pure and parameters are enumerable in a stable order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, affine, layer_norm, matmul, mlp, parameter


def rng_from(seed: int, stream: int) -> np.random.Generator:
    """Independent deterministic stream; streams never overlap across ids."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


@dataclass
class Affine:
    """``x @ w + b`` with ``w`` of shape (fan_in, fan_out)."""

    w: Tensor
    b: Tensor

    @classmethod
    def init(cls, fan_in: int, fan_out: int, rng: np.random.Generator, name: str) -> "Affine":
        # uniform fan-in scaling, the usual linear-layer default
        bound = 1.0 / np.sqrt(fan_in)
        return cls(
            w=parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)), f"{name}.w"),
            b=parameter(rng.uniform(-bound, bound, size=fan_out), f"{name}.b"),
        )

    @classmethod
    def zeros(cls, fan_in: int, fan_out: int, name: str) -> "Affine":
        return cls(
            w=parameter(np.zeros((fan_in, fan_out)), f"{name}.w"),
            b=parameter(np.zeros(fan_out), f"{name}.b"),
        )

    def apply(self, x) -> Tensor:
        return affine(x, self.w, self.b)

    def parameters(self) -> list[Tensor]:
        return [self.w, self.b]


@dataclass
class Linear:
    """Bias-free ``x @ w``.

    Used for attention query/key projections: a key-side bias shifts every
    score of a query by the same constant, which softmax ignores exactly, so
    such a bias would be untrainable dead weight.
    """

    w: Tensor

    @classmethod
    def init(cls, fan_in: int, fan_out: int, rng: np.random.Generator, name: str) -> "Linear":
        bound = 1.0 / np.sqrt(fan_in)
        return cls(w=parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)), f"{name}.w"))

    def apply(self, x) -> Tensor:
        return matmul(x, self.w)

    def parameters(self) -> list[Tensor]:
        return [self.w]


@dataclass
class LayerNorm:
    """Feature-axis layer normalisation with learnable gain/bias.

    ``active=False`` turns the whole op into a pass-through; this is what the
    identity configuration of the embedding block uses, since normalisation
    followed by a fixed affine map cannot reproduce arbitrary inputs.
    """

    gain: Tensor
    bias: Tensor
    eps: float = 1e-5
    active: bool = True

    @classmethod
    def init(cls, dim: int, name: str, active: bool = True) -> "LayerNorm":
        return cls(
            gain=parameter(np.ones(dim), f"{name}.gain"),
            bias=parameter(np.zeros(dim), f"{name}.bias"),
            active=active,
        )

    def apply(self, x) -> Tensor:
        if not self.active:
            return x
        return layer_norm(x, self.gain, self.bias, self.eps)

    def parameters(self) -> list[Tensor]:
        return [self.gain, self.bias]


@dataclass
class Mlp:
    """Two affine maps around a GELU, applied as one fused node."""

    fc1: Affine
    fc2: Affine

    @classmethod
    def init(cls, dim: int, hidden: int, rng: np.random.Generator, name: str) -> "Mlp":
        return cls(
            fc1=Affine.init(dim, hidden, rng, f"{name}.fc1"),
            fc2=Affine.init(hidden, dim, rng, f"{name}.fc2"),
        )

    @classmethod
    def zeros(cls, dim: int, hidden: int, name: str) -> "Mlp":
        return cls(
            fc1=Affine.zeros(dim, hidden, f"{name}.fc1"),
            fc2=Affine.zeros(hidden, dim, f"{name}.fc2"),
        )

    def apply(self, x) -> Tensor:
        return mlp(x, self.fc1.w, self.fc1.b, self.fc2.w, self.fc2.b)

    def parameters(self) -> list[Tensor]:
        return self.fc1.parameters() + self.fc2.parameters()
