"""Cross-variate patch embedding.

The block runs per patch position: a small bank of learned routers attends
over the variates' embeddings at that position, then the variates attend
back over the routers.  Cost is linear in the number of variates because
scores only ever pair variates with the fixed router slots, never with each
other.  A residual + feed-forward + layer-norm wrapper finishes the block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, as_tensor, attention, check_finite, parameter, swapaxes
from .layers import Affine, LayerNorm, Mlp, rng_from

TABLE_INIT_STD = 0.02


class ScoreCounter:
    """Tallies attention score entries (one per query-key pair per head)."""

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += int(n)


@dataclass(frozen=True)
class AttentionConfig:
    """Head count for every attention in the package."""

    heads: int

    def __post_init__(self):
        if self.heads < 1:
            raise ValueError("attention needs at least one head")

    def head_dim(self, model_dim: int) -> int:
        if model_dim % self.heads != 0:
            raise ValueError(
                f"model dim {model_dim} not divisible by {self.heads} heads"
            )
        return model_dim // self.heads


def multi_head_attention(
    query,
    key,
    value,
    cfg: AttentionConfig,
    out_proj: Affine,
    counter: ScoreCounter | None = None,
) -> Tensor:
    """Scaled dot-product attention over the last two axes.

    Queries, keys and values are used as given (no input projections); heads
    are contiguous slices of the feature axis, and only the merged output
    passes through a learned affine map.  Leading axes broadcast, so a
    (n_q, d) query bank can attend into (batch, n_k, d) keys and vice versa.
    """
    query, key, value = as_tensor(query), as_tensor(key), as_tensor(value)
    d = query.shape[-1]
    if key.shape[-1] != d or value.shape[-1] != d:
        raise ValueError("query, key and value must share the feature dim")
    if key.shape[-2] != value.shape[-2]:
        raise ValueError("key and value must agree on sequence length")
    cfg.head_dim(d)
    if counter is not None:
        # one score per head and query-key pair over the broadcast batch
        lead = np.broadcast_shapes(query.shape[:-2], key.shape[:-2])
        counter.add(cfg.heads * int(np.prod(lead)) * query.shape[-2] * key.shape[-2])
    return out_proj.apply(attention(query, key, value, cfg.heads))


@dataclass
class RouterBank:
    """Per-patch-position router slots: shape (n_positions, n_routers, d)."""

    table: Tensor

    @classmethod
    def init(cls, n_positions: int, n_routers: int, dim: int, rng, name: str) -> "RouterBank":
        if n_routers < 1:
            raise ValueError("need at least one router slot")
        return cls(parameter(rng.normal(0.0, TABLE_INIT_STD, (n_positions, n_routers, dim)), name))

    @property
    def n_routers(self) -> int:
        return self.table.shape[1]


@dataclass
class CvpeParams:
    """Learnable state of the cross-variate embedding block."""

    positional: Tensor
    routers: RouterBank
    collect_out: Affine
    dispatch_out: Affine
    mlp: Mlp
    ln1: LayerNorm
    ln2: LayerNorm

    @classmethod
    def init(
        cls,
        n_positions: int,
        model_dim: int,
        n_routers: int,
        seed_stream: np.random.Generator,
        hidden: int | None = None,
        name: str = "cvpe",
    ) -> "CvpeParams":
        hidden = 4 * model_dim if hidden is None else hidden
        rng = seed_stream
        return cls(
            positional=parameter(
                rng.normal(0.0, TABLE_INIT_STD, (n_positions, model_dim)), f"{name}.positional"
            ),
            routers=RouterBank.init(n_positions, n_routers, model_dim, rng, f"{name}.routers"),
            collect_out=Affine.init(model_dim, model_dim, rng, f"{name}.collect_out"),
            dispatch_out=Affine.init(model_dim, model_dim, rng, f"{name}.dispatch_out"),
            mlp=Mlp.init(model_dim, hidden, rng, f"{name}.mlp"),
            ln1=LayerNorm.init(model_dim, f"{name}.ln1"),
            ln2=LayerNorm.init(model_dim, f"{name}.ln2"),
        )

    @classmethod
    def identity(cls, n_positions: int, model_dim: int, n_routers: int, name: str = "cvpe") -> "CvpeParams":
        """A configuration whose forward pass is exactly the identity map.

        Zero positional table, zero output projections (so the dispatch
        branch contributes nothing), zero second MLP layer, and inactive
        layer norms.  Useful as the vanilla-equivalence control.
        """
        rng = np.random.default_rng(0)
        routers = RouterBank.init(n_positions, n_routers, model_dim, rng, f"{name}.routers")
        return cls(
            positional=parameter(np.zeros((n_positions, model_dim)), f"{name}.positional"),
            routers=routers,
            collect_out=Affine.zeros(model_dim, model_dim, f"{name}.collect_out"),
            dispatch_out=Affine.zeros(model_dim, model_dim, f"{name}.dispatch_out"),
            mlp=Mlp.zeros(model_dim, 4 * model_dim, f"{name}.mlp"),
            ln1=LayerNorm.init(model_dim, f"{name}.ln1", active=False),
            ln2=LayerNorm.init(model_dim, f"{name}.ln2", active=False),
        )

    def parameters(self) -> list[Tensor]:
        return [
            self.positional,
            self.routers.table,
            *self.collect_out.parameters(),
            *self.dispatch_out.parameters(),
            *self.mlp.parameters(),
            *self.ln1.parameters(),
            *self.ln2.parameters(),
        ]


def add_positional(x, positional: Tensor) -> Tensor:
    """Add the per-position encoding: (..., N, P, d) + (P, d)."""
    x = as_tensor(x)
    if x.shape[-2:] != positional.shape[-2:]:
        raise ValueError(
            f"positional table {positional.shape} does not match embeddings {x.shape}"
        )
    return add(x, positional)


def router_attention(
    x: Tensor,
    params: CvpeParams,
    cfg: AttentionConfig,
    counter: ScoreCounter | None = None,
) -> Tensor:
    """Mix information across variates at each patch position.

    Input is (..., N, P, d): N variates, P patch positions.  Per position,
    the routers collect from the N variate embeddings, then each variate
    reads back from the routers; both hops are multi-head attention without
    input projections.  Residual connections and layer norms wrap the
    attention and the feed-forward stage.
    """
    check_finite(x, "cross-variate input")
    *lead, n, p, d = x.shape
    if p != params.positional.shape[0]:
        raise ValueError(
            f"block built for {params.positional.shape[0]} patch positions, got {p}"
        )
    if d != params.positional.shape[1]:
        raise ValueError(f"block built for dim {params.positional.shape[1]}, got {d}")
    # per-position attention runs over the variate axis, so make the patch
    # position a leading (batch-like) axis: (..., P, N, d)
    by_pos = swapaxes(x, -3, -2)
    routers = params.routers.table  # (P, c, d) broadcasts against (..., P, N, d)
    collected = multi_head_attention(
        routers, by_pos, by_pos, cfg, params.collect_out, counter
    )
    check_finite(collected, "router collect attention")
    dispatched = multi_head_attention(
        by_pos, collected, collected, cfg, params.dispatch_out, counter
    )
    check_finite(dispatched, "router dispatch attention")
    mixed = params.ln1.apply(add(by_pos, dispatched))
    out = params.ln2.apply(add(mixed, params.mlp.apply(mixed)))
    check_finite(out, "cross-variate output")
    return swapaxes(out, -3, -2)


def cvpe_forward(
    x,
    params: CvpeParams,
    cfg: AttentionConfig,
    counter: ScoreCounter | None = None,
) -> Tensor:
    """Positional encoding followed by the cross-variate mixing block."""
    return router_attention(add_positional(x, params.positional), params, cfg, counter)
