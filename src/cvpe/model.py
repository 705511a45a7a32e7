"""End-to-end forecaster: patching, embedding, reprogramming, backbone, head.

Channels are processed independently everywhere except the optional
cross-variate embedding block; with the block disabled ("vanilla") each
channel's forecast depends on that channel's history alone.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from operator import attrgetter
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
from .layers import Affine, LayerNorm, Linear, Mlp, parameters_of, rng_from
from .preprocess import (
    PatchConfig,
    patch,
    project_patches,
    revin_denormalize,
    revin_normalize,
)

if TYPE_CHECKING:
    from .config import RunConfig

VARIANTS = ("vanilla", "cvpe")

# One row per key of ``ModelParams.structure()``: the key, its JSON type and
# the attribute path that reads it.  The path also names the argument of
# ``ModelParams.build`` the value goes back to: the whole argument, or one
# field of its ``patch_cfg`` or ``backbone_cfg``.
_STRUCTURE = (
    ("variant", str, "variant"),
    ("context", int, "context"),
    ("horizon", int, "horizon"),
    ("patch_length", int, "patch_cfg.length"),
    ("patch_stride", int, "patch_cfg.stride"),
    ("model_dim", int, "model_dim"),
    ("heads", int, "heads"),
    ("n_prototypes", int, "n_prototypes"),
    ("n_routers", int, "n_routers"),
    ("backbone_layers", int, "backbone_cfg.n_layers"),
    ("backbone_width", int, "backbone_cfg.width"),
    ("backbone_heads", int, "backbone_cfg.heads"),
    ("backbone_hidden", int, "backbone_cfg.hidden"),
)

# fixed per-component seed streams so that variants share every non-block draw
_STREAM_PATCH_PROJ = 0
_STREAM_CVPE = 1
_STREAM_REPROGRAM = 2
_STREAM_BACKBONE = 3
_STREAM_HEAD = 4


@dataclass
class PrototypeBank:
    """Learned text-free prototype vectors the patches attend into.  The
    wrapper stays because ``perfbench/layer_times.py`` reads ``.table``."""

    table: Tensor

    @classmethod
    def init(cls, n_prototypes: int, dim: int, rng, name: str) -> "PrototypeBank":
        if n_prototypes < 1:
            raise ValueError("need at least one prototype")
        # unit scale, like the word embeddings these stand in for; keeps the
        # cross-attention scores informative from the first step
        return cls(parameter(rng.standard_normal((n_prototypes, dim)), name))


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
    """Width and depth of the channel-independent encoder; ``hidden`` is
    the width of each layer's feed-forward."""

    n_layers: int
    width: int
    heads: int
    hidden: int

    def __post_init__(self):
        for name in ("n_layers", "width", "heads", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.width % self.heads != 0:
            raise ValueError(f"width {self.width} not divisible by {self.heads} heads")


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
            mlp=Mlp.init(w, cfg.hidden, rng, f"{name}.mlp"),
        )


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
        model_dim: int,
        heads: int,
        n_prototypes: int,
        n_routers: int,
        backbone_cfg: BackboneConfig,
        seed: int,
    ) -> "ModelParams":
        """Initialise a model; every component draws from its own seed stream.

        Stream separation is what makes A/B runs paired: the vanilla and
        cross-variate variants built from the same seed share bit-identical
        patch projection, reprogramming, backbone and head initialisations.
        The default sizes live in the config schema (``config.py``).
        """
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if context < 1 or horizon < 1:
            raise ValueError("context and horizon must be positive")
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

    @property
    def heads(self) -> int:
        return self.attn_cfg.heads

    def parameters(self) -> list[Tensor]:
        """All leaves in field order, each with a unique name."""
        params = parameters_of(self)
        names = [p.name for p in params]
        assert len(set(names)) == len(names), "parameter names must be unique"
        return params

    def structure(self) -> dict:
        """JSON-serialisable description sufficient to rebuild the skeleton."""
        return {key: attrgetter(path)(self) for key, _, path in _STRUCTURE}

    @classmethod
    def from_structure(cls, struct) -> "ModelParams":
        """Rebuild the skeleton ``structure()`` describes; a description that
        cannot be one raises ``ValueError`` naming the field."""
        if not isinstance(struct, dict):
            raise ValueError(f"structure is not a JSON object but a {type(struct).__name__}")
        # the saved arrays replace every initial draw
        args = {"seed": 0}
        for key, want, path in _STRUCTURE:
            if key not in struct:
                raise ValueError(f"structure lacks field {key!r}")
            if not isinstance(struct[key], want) or isinstance(struct[key], bool):
                raise ValueError(
                    f"structure field {key!r} must be {want.__name__}, got {struct[key]!r}"
                )
            arg, _, field = path.partition(".")
            if field:
                args.setdefault(arg, {})[field] = struct[key]
            else:
                args[arg] = struct[key]
        args["patch_cfg"] = PatchConfig(**args["patch_cfg"])
        args["backbone_cfg"] = BackboneConfig(**args["backbone_cfg"])
        return cls.build(**args)


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
    out = revin_denormalize(pred, state)
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
        try:
            struct = json.loads(bundle["__structure__"].tobytes().decode())
        except ValueError as exc:
            # UnicodeDecodeError and JSONDecodeError are both ValueErrors
            raise ValueError(f"checkpoint {path}: unreadable __structure__ entry: {exc}") from None
        try:
            params = ModelParams.from_structure(struct)
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}: {exc}") from None
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
