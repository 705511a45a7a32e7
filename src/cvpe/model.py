"""End-to-end forecaster: patching, embedding, reprogramming, backbone, head.

Channels are processed independently everywhere except the optional
cross-variate embedding block; with the block disabled ("vanilla") each
channel's forecast depends on that channel's history alone.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Tensor, add, check_finite, parameter, reshape
from .embedding import (
    AttentionConfig,
    CvpeParams,
    ScoreCounter,
    cvpe_forward,
    multi_head_attention,
)
from .layers import Affine, LayerNorm, Linear, Mlp, rng_from
from .preprocess import (
    PatchConfig,
    RevinState,
    denormalize_tensor,
    patch,
    project_patches,
    revin_normalize,
)

if TYPE_CHECKING:
    from .config import RunConfig

VARIANTS = ("vanilla", "cvpe")

# fixed per-component seed streams so that variants share every non-block draw
_STREAM_PATCH_PROJ = 0
_STREAM_CVPE = 1
_STREAM_REPROGRAM = 2
_STREAM_BACKBONE = 3
_STREAM_HEAD = 4


@dataclass
class PrototypeBank:
    """Learned text-free prototype vectors the patches attend into."""

    table: Tensor

    @classmethod
    def init(cls, n_prototypes: int, dim: int, rng, name: str) -> "PrototypeBank":
        if n_prototypes < 1:
            raise ValueError("need at least one prototype")
        # unit scale, like the word embeddings these stand in for; keeps the
        # cross-attention scores informative from the first step
        return cls(parameter(rng.standard_normal((n_prototypes, dim)), name))

    @property
    def n_prototypes(self) -> int:
        return self.table.shape[0]


@dataclass
class ReprogramParams:
    """Cross-attention from patch embeddings into the prototype bank."""

    bank: PrototypeBank
    query: Linear
    key: Linear
    value: Affine
    out: Affine

    @classmethod
    def init(
        cls, model_dim: int, out_dim: int, n_prototypes: int, rng, name: str = "reprogram"
    ) -> "ReprogramParams":
        return cls(
            bank=PrototypeBank.init(n_prototypes, out_dim, rng, f"{name}.prototypes"),
            query=Linear.init(model_dim, model_dim, rng, f"{name}.query"),
            key=Linear.init(out_dim, model_dim, rng, f"{name}.key"),
            value=Affine.init(out_dim, model_dim, rng, f"{name}.value"),
            out=Affine.init(model_dim, out_dim, rng, f"{name}.out"),
        )

    def parameters(self) -> list[Tensor]:
        return [
            self.bank.table,
            *self.query.parameters(),
            *self.key.parameters(),
            *self.value.parameters(),
            *self.out.parameters(),
        ]


def reprogram(
    x,
    params: ReprogramParams,
    cfg: AttentionConfig,
    counter: ScoreCounter | None = None,
) -> Tensor:
    """Map patch embeddings into backbone space via prototype attention.

    (..., P, d_model) queries attend over the whole prototype bank; the
    merged heads are projected to the backbone width.  With a single
    prototype every patch receives that prototype's projected value.
    """
    q = params.query.apply(x)
    k = params.key.apply(params.bank.table)
    v = params.value.apply(params.bank.table)
    return multi_head_attention(q, k, v, cfg, params.out, counter)


@dataclass(frozen=True)
class BackboneConfig:
    """Width and depth of the channel-independent encoder."""

    n_layers: int = 2
    width: int = 32
    heads: int = 4
    hidden: int | None = None

    def __post_init__(self):
        if self.n_layers < 1:
            raise ValueError("layer count must be positive")
        if self.width < 1:
            raise ValueError("width must be positive")
        if self.width % self.heads != 0:
            raise ValueError(f"width {self.width} not divisible by {self.heads} heads")

    @property
    def mlp_hidden(self) -> int:
        return 2 * self.width if self.hidden is None else self.hidden


@dataclass
class BackboneLayer:
    """One pre-norm encoder layer: self-attention then feed-forward."""

    ln1: LayerNorm
    q: Linear
    k: Linear
    v: Affine
    out: Affine
    ln2: LayerNorm
    mlp: Mlp

    @classmethod
    def init(cls, cfg: BackboneConfig, rng, name: str) -> "BackboneLayer":
        w = cfg.width
        return cls(
            ln1=LayerNorm.init(w, f"{name}.ln1"),
            q=Linear.init(w, w, rng, f"{name}.q"),
            k=Linear.init(w, w, rng, f"{name}.k"),
            v=Affine.init(w, w, rng, f"{name}.v"),
            out=Affine.init(w, w, rng, f"{name}.out"),
            ln2=LayerNorm.init(w, f"{name}.ln2"),
            mlp=Mlp.init(w, cfg.mlp_hidden, rng, f"{name}.mlp"),
        )

    def parameters(self) -> list[Tensor]:
        return [
            *self.ln1.parameters(),
            *self.q.parameters(),
            *self.k.parameters(),
            *self.v.parameters(),
            *self.out.parameters(),
            *self.ln2.parameters(),
            *self.mlp.parameters(),
        ]


def backbone_forward(x, layers: list[BackboneLayer], cfg: BackboneConfig) -> Tensor:
    """Pre-norm transformer encoder over the patch axis, per channel."""
    attn_cfg = AttentionConfig(cfg.heads)
    for layer in layers:
        h = layer.ln1.apply(x)
        attended = multi_head_attention(
            layer.q.apply(h), layer.k.apply(h), layer.v.apply(h), attn_cfg, layer.out
        )
        x = add(x, attended)
        h = layer.ln2.apply(x)
        x = add(x, layer.mlp.apply(h))
    return x


@dataclass
class ModelParams:
    """Full parameter set plus the structural configuration it was built for."""

    variant: str
    patch_cfg: PatchConfig
    attn_cfg: AttentionConfig
    backbone_cfg: BackboneConfig
    context: int
    horizon: int
    model_dim: int
    n_prototypes: int
    n_routers: int
    patch_proj: Affine
    cvpe: CvpeParams | None
    reprogram: ReprogramParams
    backbone: list[BackboneLayer]
    head: Affine

    @classmethod
    def build(
        cls,
        variant: str,
        context: int,
        horizon: int,
        patch_cfg: PatchConfig,
        model_dim: int = 32,
        heads: int = 8,
        n_prototypes: int = 100,
        n_routers: int = 4,
        backbone_cfg: BackboneConfig | None = None,
        seed: int = 0,
    ) -> "ModelParams":
        """Initialise a model; every component draws from its own seed stream.

        Stream separation is what makes A/B runs paired: the vanilla and
        cross-variate variants built from the same seed share bit-identical
        patch projection, reprogramming, backbone and head initialisations.
        """
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if context < 1 or horizon < 1:
            raise ValueError("context and horizon must be positive")
        backbone_cfg = backbone_cfg or BackboneConfig()
        attn_cfg = AttentionConfig(heads)
        attn_cfg.head_dim(model_dim)  # validate divisibility up front
        n_positions = patch_cfg.n_patches(context)
        backbone_rng = rng_from(seed, _STREAM_BACKBONE)
        cvpe = None
        if variant == "cvpe":
            cvpe = CvpeParams.init(
                n_positions, model_dim, n_routers, rng_from(seed, _STREAM_CVPE)
            )
        return cls(
            variant=variant,
            patch_cfg=patch_cfg,
            attn_cfg=attn_cfg,
            backbone_cfg=backbone_cfg,
            context=context,
            horizon=horizon,
            model_dim=model_dim,
            n_prototypes=n_prototypes,
            n_routers=n_routers,
            patch_proj=Affine.init(
                patch_cfg.length, model_dim, rng_from(seed, _STREAM_PATCH_PROJ), "patch_proj"
            ),
            cvpe=cvpe,
            reprogram=ReprogramParams.init(
                model_dim,
                backbone_cfg.width,
                n_prototypes,
                rng_from(seed, _STREAM_REPROGRAM),
            ),
            backbone=[
                BackboneLayer.init(backbone_cfg, backbone_rng, f"backbone.{i}")
                for i in range(backbone_cfg.n_layers)
            ],
            head=Affine.init(
                n_positions * backbone_cfg.width,
                horizon,
                rng_from(seed, _STREAM_HEAD),
                "head",
            ),
        )

    @property
    def n_positions(self) -> int:
        return self.patch_cfg.n_patches(self.context)

    def parameters(self) -> list[Tensor]:
        """All leaves in a stable order with unique names."""
        params: list[Tensor] = self.patch_proj.parameters()
        if self.cvpe is not None:
            params += self.cvpe.parameters()
        params += self.reprogram.parameters()
        for layer in self.backbone:
            params += layer.parameters()
        params += self.head.parameters()
        names = [p.name for p in params]
        assert len(set(names)) == len(names), "parameter names must be unique"
        return params

    def structure(self) -> dict:
        """JSON-serialisable description sufficient to rebuild the skeleton."""
        return {
            "variant": self.variant,
            "context": self.context,
            "horizon": self.horizon,
            "patch_length": self.patch_cfg.length,
            "patch_stride": self.patch_cfg.stride,
            "model_dim": self.model_dim,
            "heads": self.attn_cfg.heads,
            "n_prototypes": self.n_prototypes,
            "n_routers": self.n_routers,
            "backbone_layers": self.backbone_cfg.n_layers,
            "backbone_width": self.backbone_cfg.width,
            "backbone_heads": self.backbone_cfg.heads,
            "backbone_hidden": self.backbone_cfg.mlp_hidden,
        }

    @classmethod
    def from_structure(cls, struct: dict) -> "ModelParams":
        return cls.build(
            variant=struct["variant"],
            context=struct["context"],
            horizon=struct["horizon"],
            patch_cfg=PatchConfig(struct["patch_length"], struct["patch_stride"]),
            model_dim=struct["model_dim"],
            heads=struct["heads"],
            n_prototypes=struct["n_prototypes"],
            n_routers=struct["n_routers"],
            backbone_cfg=BackboneConfig(
                n_layers=struct["backbone_layers"],
                width=struct["backbone_width"],
                heads=struct["backbone_heads"],
                hidden=struct["backbone_hidden"],
            ),
        )


def build_model(config: RunConfig, variant: str, horizon: int, seed: int) -> ModelParams:
    """The model a run config describes, for one variant, horizon and seed."""
    return ModelParams.build(
        variant=variant,
        context=config.context,
        horizon=horizon,
        patch_cfg=config.patch,
        model_dim=config.model_dim,
        heads=config.heads,
        n_prototypes=config.n_prototypes,
        n_routers=config.n_routers,
        backbone_cfg=config.backbone,
        seed=seed,
    )


def forecast_batch(
    windows: np.ndarray,
    params: ModelParams,
    counter: ScoreCounter | None = None,
) -> Tensor:
    """Forecast a batch: (batch, channels, context) -> (batch, channels, horizon).

    Each window is normalised per channel, patched, embedded (with the
    cross-variate block when the variant asks for it), reprogrammed into the
    backbone, encoded, and mapped to the horizon; forecasts come back on the
    original scale of the inputs.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError(f"expected (batch, channels, context) windows, got {windows.shape}")
    if windows.shape[-1] != params.context:
        raise ValueError(
            f"model built for context {params.context}, got windows of {windows.shape[-1]}"
        )
    normalized, state = revin_normalize(windows)
    patches = patch(normalized, params.patch_cfg)
    emb = project_patches(patches, params.patch_proj.w, params.patch_proj.b)
    check_finite(emb, "patch projection")
    if params.cvpe is not None:
        emb = cvpe_forward(emb, params.cvpe, params.attn_cfg, counter)
    rep = reprogram(emb, params.reprogram, params.attn_cfg, counter)
    check_finite(rep, "reprogramming")
    encoded = backbone_forward(rep, params.backbone, params.backbone_cfg)
    check_finite(encoded, "backbone")
    b, n = windows.shape[0], windows.shape[1]
    flat = reshape(encoded, (b, n, params.n_positions * params.backbone_cfg.width))
    pred = params.head.apply(flat)
    check_finite(pred, "forecast head")
    out = denormalize_tensor(pred, state)
    check_finite(out, "denormalisation")
    return out


def save_checkpoint(path: str | Path, params: ModelParams):
    """Persist structure plus every parameter array, bit-exactly."""
    path = Path(path)
    arrays = {p.name: p.data for p in params.parameters()}
    arrays["__structure__"] = np.frombuffer(
        json.dumps(params.structure(), sort_keys=True).encode(), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path) -> ModelParams:
    """Rebuild a saved model; a checkpoint that cannot be one raises ``ValueError``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such checkpoint: {path}")
    if path.is_dir():
        raise ValueError(f"checkpoint {path} is a directory, not a saved .npz file")
    try:
        bundle = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):
        # empty, a broken zip, or no numpy format (numpy refuses it as a pickle)
        bundle = None
    if not isinstance(bundle, np.lib.npyio.NpzFile):
        raise ValueError(f"checkpoint {path} is not a saved .npz archive")
    with bundle:
        if "__structure__" not in bundle:
            raise ValueError(f"checkpoint {path} has no __structure__ entry")
        struct = json.loads(bundle["__structure__"].tobytes().decode())
        try:
            params = ModelParams.from_structure(struct)
        except KeyError as exc:
            raise ValueError(f"checkpoint {path} structure lacks field {exc.args[0]!r}") from None
        for p in params.parameters():
            if p.name not in bundle:
                raise ValueError(f"checkpoint missing parameter {p.name!r}")
            stored = bundle[p.name]
            if stored.shape != p.data.shape:
                raise ValueError(
                    f"checkpoint parameter {p.name!r} has shape {stored.shape}, "
                    f"expected {p.data.shape}"
                )
            p.data = stored.astype(np.float64)
    return params
