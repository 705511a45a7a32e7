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
from .layers import Affine, LayerNorm, Mlp

TABLE_INIT_STD = 0.02
# the block's feed-forward is this many times wider than the model
MLP_RATIO = 4


class ScoreCounter:
    """Tallies attention score entries (one per query-key pair per head).

    Kept for its readers: ``perfbench/layer_times.py`` counts scores per
    batch with it, and acceptance criterion 5 checks the count's linearity.
    """

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += int(n)


@dataclass(frozen=True)
class AttentionConfig:
    """Head count for every attention in the package; ``perfbench`` passes
    ``params.attn_cfg`` to the attention functions it times."""

    heads: int

    def __post_init__(self):
        if self.heads < 1:
            raise ValueError("attention needs at least one head")


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
    Shapes are checked by ``autodiff.attention``, which raises ``ValueError``
    before the counter sees the call.
    """
    attended = attention(query, key, value, cfg.heads)
    if counter is not None:
        # one score per head and query-key pair over the broadcast batch
        lead = np.broadcast_shapes(query.shape[:-2], key.shape[:-2])
        counter.add(cfg.heads * int(np.prod(lead)) * query.shape[-2] * key.shape[-2])
    return out_proj.apply(attended)


@dataclass
class RouterBank:
    """Per-patch-position router slots, (n_positions, n_routers, d).  The
    wrapper stays because ``perfbench/layer_times.py`` reads ``.table``."""

    table: Tensor

    @classmethod
    def init(cls, n_positions: int, n_routers: int, dim: int, rng, name: str) -> "RouterBank":
        if n_routers < 1:
            raise ValueError("need at least one router slot")
        return cls(parameter(rng.normal(0.0, TABLE_INIT_STD, (n_positions, n_routers, dim)), name))


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
    ) -> "CvpeParams":
        rng = seed_stream
        return cls(
            positional=parameter(
                rng.normal(0.0, TABLE_INIT_STD, (n_positions, model_dim)), "cvpe.positional"
            ),
            routers=RouterBank.init(n_positions, n_routers, model_dim, rng, "cvpe.routers"),
            collect_out=Affine.init(model_dim, model_dim, rng, "cvpe.collect_out"),
            dispatch_out=Affine.init(model_dim, model_dim, rng, "cvpe.dispatch_out"),
            mlp=Mlp.init(model_dim, MLP_RATIO * model_dim, rng, "cvpe.mlp"),
            ln1=LayerNorm.init(model_dim, "cvpe.ln1"),
            ln2=LayerNorm.init(model_dim, "cvpe.ln2"),
        )


def cvpe_forward(
    x,
    params: CvpeParams,
    cfg: AttentionConfig,
    counter: ScoreCounter | None = None,
) -> Tensor:
    """Mix information across variates at each patch position.

    Input is (..., N, P, d): N variates, P patch positions.  The per-position
    encoding (P, d) is added first.  Per position, the routers then collect
    from the N variate embeddings, and each variate reads back from the
    routers; both hops are multi-head attention without input projections.
    Residual connections and layer norms wrap the attention and the
    feed-forward stage.
    """
    x = as_tensor(x)
    if x.shape[-2:] != params.positional.shape:
        raise ValueError(
            f"positional table {params.positional.shape} does not match embeddings {x.shape}"
        )
    x = add(x, params.positional)
    check_finite(x, "cross-variate input")
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
