"""Per-layer forward and backward times, measured by calling public functions.

Each layer is called at the workload's shapes on activations produced by
the workload's own model.  Forward is timed around the call; backward is
timed around ``tsum(out * g).backward()`` for a fixed cotangent ``g``, on a
freshly built graph each repetition.  Items run interleaved, one
repetition at a time, so drift on a shared machine hits them alike.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from cvpe.autodiff import Tensor, gelu, matmul, no_grad, softmax, tsum
from cvpe.embedding import ScoreCounter, cvpe_forward, multi_head_attention
from cvpe.model import backbone_forward, forecast_batch, reprogram
from cvpe.preprocess import patch, project_patches, revin_normalize


def _activations(params, windows: np.ndarray) -> dict:
    with no_grad():
        normalized, _ = revin_normalize(windows)
        patches = patch(normalized, params.patch_cfg)
        emb = project_patches(patches, params.patch_proj.w, params.patch_proj.b).data
        mixed = emb
        if params.cvpe is not None:
            mixed = cvpe_forward(emb, params.cvpe, params.attn_cfg).data
        rep = reprogram(mixed, params.reprogram, params.attn_cfg).data
        enc = backbone_forward(rep, params.backbone, params.backbone_cfg).data
    b, n = windows.shape[:2]
    act = {
        "patches": patches,
        "emb": emb,
        "mixed": mixed,
        "rep": rep,
        "flat": enc.reshape(b, n, -1),
    }
    # the block attends per patch position over the variates: (B, P, N, d)
    if params.cvpe is not None:
        act["by_pos"] = np.swapaxes(emb + params.cvpe.positional.data, -3, -2)
    # reprogramming scores: (B, N, heads, P, prototypes)
    rp, heads = params.reprogram, params.attn_cfg.heads
    q = mixed @ rp.query.w.data
    k = rp.bank.table.data @ rp.key.w.data
    hd = q.shape[-1] // heads
    qh = np.swapaxes(q.reshape(*q.shape[:-1], heads, hd), -3, -2)
    kh = np.swapaxes(k.reshape(k.shape[0], heads, hd), 0, 1)
    act["scores"] = qh @ np.swapaxes(kh, -1, -2) / np.sqrt(hd)
    return act


def _mlps_and_norms(params, act):
    """Every Mlp and LayerNorm the forward pass applies, with an input of
    the shape it sees."""
    mlps, norms = [], []
    if params.cvpe is not None:
        mlps.append((params.cvpe.mlp, act["by_pos"]))
        norms += [(params.cvpe.ln1, act["by_pos"]), (params.cvpe.ln2, act["by_pos"])]
    for layer in params.backbone:
        mlps.append((layer.mlp, act["rep"]))
        norms += [(layer.ln1, act["rep"]), (layer.ln2, act["rep"])]
    return mlps, norms


def _items(params, windows, grad: bool) -> dict:
    """name -> callable returning the output tensors (None: numpy only)."""
    act = _activations(params, windows)

    def leaf(a):
        return Tensor(a, requires_grad=grad)

    mlps, norms = _mlps_and_norms(params, act)
    # the widest MLP carries the model's largest matmul and GELU
    widest, widest_in = max(mlps, key=lambda m: m[0].fc1.w.shape[1])
    hidden = widest_in @ widest.fc1.w.data + widest.fc1.b.data
    attn = params.attn_cfg

    def revin_patch():
        patch(revin_normalize(windows)[0], params.patch_cfg)

    items = {
        "preprocess.revin_patch": revin_patch,
        "preprocess.project": lambda: [
            project_patches(act["patches"], params.patch_proj.w, params.patch_proj.b)
        ],
        "layers.mlp": lambda: [m.apply(leaf(x)) for m, x in mlps],
        "layers.layernorm": lambda: [ln.apply(leaf(x)) for ln, x in norms],
        "model.reprogram": lambda: [reprogram(leaf(act["mixed"]), params.reprogram, attn)],
        "model.backbone": lambda: [
            backbone_forward(leaf(act["rep"]), params.backbone, params.backbone_cfg)
        ],
        "model.head": lambda: [params.head.apply(leaf(act["flat"]))],
        "autodiff.matmul": lambda: [matmul(leaf(widest_in), widest.fc1.w)],
        "autodiff.gelu": lambda: [gelu(leaf(hidden))],
        "autodiff.softmax": lambda: [softmax(leaf(act["scores"]))],
    }
    if params.cvpe is not None:
        block = params.cvpe

        def collect_hop():
            by_pos = leaf(act["by_pos"])
            return [multi_head_attention(block.routers.table, by_pos, by_pos, attn, block.collect_out)]

        items["embedding.cvpe"] = lambda: [cvpe_forward(leaf(act["emb"]), block, attn)]
        items["embedding.mha"] = collect_hop
    return items


def measure(params, windows: np.ndarray, grad: bool, budget_s: float,
            min_reps: int = 3, max_reps: int = 25) -> tuple[dict, int]:
    """Median milliseconds per ``<layer>.fwd_ms`` / ``<layer>.bwd_ms``.

    Layers the model does not have (the block on ``vanilla``), and backward
    passes when ``grad`` is off, are left out.  Returns the times and the
    number of repetitions.
    """
    items = _items(params, windows, grad)
    leaves = params.parameters()
    rng = np.random.default_rng(1234)
    cotangents: dict[str, list[np.ndarray]] = {}
    fwd = {name: [] for name in items}
    bwd = {name: [] for name in items}
    start = time.perf_counter()
    reps = 0
    while reps < max_reps and (reps < min_reps or time.perf_counter() - start < budget_s):
        reps += 1
        for name, fn in items.items():
            with contextlib.nullcontext() if grad else no_grad():
                t0 = time.perf_counter()
                outs = fn()
                fwd[name].append(time.perf_counter() - t0)
            if not grad or outs is None:
                continue
            gs = cotangents.setdefault(name, [rng.standard_normal(o.shape) for o in outs])
            loss = tsum(outs[0] * gs[0])
            for o, g in zip(outs[1:], gs[1:]):
                loss = loss + tsum(o * g)
            for p in leaves:
                p.grad = None
            t0 = time.perf_counter()
            loss.backward()
            bwd[name].append(time.perf_counter() - t0)
    out = {f"{name}.fwd_ms": 1000.0 * float(np.median(ts)) for name, ts in fwd.items()}
    out.update({f"{name}.bwd_ms": 1000.0 * float(np.median(ts)) for name, ts in bwd.items() if ts})
    return out, reps


def tape_nodes(root: Tensor) -> int:
    """Tensors reachable from ``root`` through the recorded graph, leaves
    included: the size of the tape one backward pass walks."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def score_counts(params, windows: np.ndarray) -> tuple[int, int, int]:
    """(all scores of one forecast batch, the block's share, the block's
    analytic count 2*B*P*heads*routers*N; 0 and 0 without the block)."""
    total = ScoreCounter()
    with no_grad():
        forecast_batch(windows, params, total)
    if params.cvpe is None:
        return total.count, 0, 0
    block = ScoreCounter()
    act = _activations(params, windows)
    with no_grad():
        cvpe_forward(act["emb"], params.cvpe, params.attn_cfg, block)
    b, n = windows.shape[:2]
    analytic = 2 * b * params.n_positions * params.attn_cfg.heads * params.n_routers * n
    return total.count, block.count, analytic
