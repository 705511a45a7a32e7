"""Naive reference implementations used to cross-check the vectorised code.

Everything here trades speed for obviousness: explicit Python loops, one
element at a time, and no helpers imported from the package under test.
"""

import math

import numpy as np


def softmax_row(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def mha_oracle(query, key, value, heads, out_w, out_b):
    """Multi-head attention on 2-D inputs: (nq, d) x (nk, d) -> (nq, d_out).

    Heads are contiguous feature slices; no input projections; merged heads
    go through the affine output map.
    """
    query = np.asarray(query, dtype=float)
    key = np.asarray(key, dtype=float)
    value = np.asarray(value, dtype=float)
    nq, d = query.shape
    nk = key.shape[0]
    hd = d // heads
    merged = np.zeros((nq, d))
    for h in range(heads):
        lo, hi = h * hd, (h + 1) * hd
        for i in range(nq):
            scores = []
            for j in range(nk):
                dot = 0.0
                for f in range(lo, hi):
                    dot += query[i, f] * key[j, f]
                scores.append(dot / math.sqrt(hd))
            weights = softmax_row(scores)
            for f in range(lo, hi):
                acc = 0.0
                for j in range(nk):
                    acc += weights[j] * value[j, f]
                merged[i, f] = acc
    out_w = np.asarray(out_w, dtype=float)
    out_b = np.asarray(out_b, dtype=float)
    out = np.zeros((nq, out_w.shape[1]))
    for i in range(nq):
        for o in range(out_w.shape[1]):
            acc = out_b[o]
            for f in range(d):
                acc += merged[i, f] * out_w[f, o]
            out[i, o] = acc
    return out


def cross_attention_oracle(x, bank, wq, wk, wv_w, wv_b, out_w, out_b, heads):
    """Patch-to-prototype cross-attention for one channel: (P, d) -> (P, width)."""
    x = np.asarray(x, dtype=float)
    bank = np.asarray(bank, dtype=float)
    q = x @ np.asarray(wq, dtype=float)
    k = bank @ np.asarray(wk, dtype=float)
    v = bank @ np.asarray(wv_w, dtype=float) + np.asarray(wv_b, dtype=float)
    return mha_oracle(q, k, v, heads, out_w, out_b)


def patch_oracle(vector, length, stride):
    """Sliding patches of a 1-D series, floor-count convention."""
    vector = list(vector)
    count = (len(vector) - length) // stride
    rows = []
    for p in range(count):
        rows.append(vector[p * stride : p * stride + length])
    return np.asarray(rows, dtype=float)


def pearson_oracle(x, y):
    """Two-pass correlation computed with scalar loops."""
    x = list(map(float, x))
    y = list(map(float, y))
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = 0.0
    dx2 = 0.0
    dy2 = 0.0
    for a, b in zip(x, y):
        num += (a - mx) * (b - my)
        dx2 += (a - mx) ** 2
        dy2 += (b - my) ** 2
    return num / math.sqrt(dx2 * dy2)


def mse_oracle(pred, target):
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    total = 0.0
    count = 0
    for idx in np.ndindex(pred.shape):
        total += (pred[idx] - target[idx]) ** 2
        count += 1
    return total / count


def mae_oracle(pred, target):
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    total = 0.0
    count = 0
    for idx in np.ndindex(pred.shape):
        total += abs(pred[idx] - target[idx])
        count += 1
    return total / count


def gelu_oracle(v):
    """Tanh-form GELU 0.5 v (1 + tanh(u)) written as v * sigmoid(2u), with the
    sigmoid split on the sign of u so neither branch cancels."""
    c = math.sqrt(2.0 / math.pi)
    u = c * (v + 0.044715 * (v * v * v))
    if u >= 0.0:
        return v / (1.0 + math.exp(-2.0 * u))
    e = math.exp(2.0 * u)
    return v * e / (1.0 + e)


def layer_norm_oracle(row, gain, bias, eps):
    row = list(map(float, row))
    d = len(row)
    mu = sum(row) / d
    var = sum((v - mu) ** 2 for v in row) / d
    inv = 1.0 / math.sqrt(var + eps)
    return [
        (row[f] - mu) * inv * float(gain[f]) + float(bias[f]) for f in range(d)
    ]


def mlp_oracle(row, w1, b1, w2, b2):
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    hidden = []
    for h in range(w1.shape[1]):
        acc = float(b1[h])
        for f in range(w1.shape[0]):
            acc += float(row[f]) * w1[f, h]
        hidden.append(gelu_oracle(acc))
    out = []
    for o in range(w2.shape[1]):
        acc = float(b2[o])
        for h in range(w2.shape[0]):
            acc += hidden[h] * w2[h, o]
        out.append(acc)
    return out


def router_block_oracle(
    x,
    positional,
    routers,
    collect_w,
    collect_b,
    dispatch_w,
    dispatch_b,
    mlp_w1,
    mlp_b1,
    mlp_w2,
    mlp_b2,
    ln1_gain,
    ln1_bias,
    ln2_gain,
    ln2_bias,
    heads,
    eps=1e-5,
):
    """Whole cross-variate block, one patch position at a time.

    x: (N, P, d).  Returns (N, P, d).  Mirrors the block exactly: positional
    add, router collect, variate dispatch, residual + LN, MLP + LN.
    """
    x = np.asarray(x, dtype=float)
    n, p, d = x.shape
    out = np.zeros_like(x)
    for j in range(p):
        embedded = np.asarray(
            [[x[i, j, f] + float(positional[j][f]) for f in range(d)] for i in range(n)]
        )
        collected = mha_oracle(
            np.asarray(routers[j], dtype=float), embedded, embedded, heads, collect_w, collect_b
        )
        dispatched = mha_oracle(embedded, collected, collected, heads, dispatch_w, dispatch_b)
        for i in range(n):
            residual = [embedded[i, f] + dispatched[i, f] for f in range(d)]
            mixed = layer_norm_oracle(residual, ln1_gain, ln1_bias, eps)
            ff = mlp_oracle(mixed, mlp_w1, mlp_b1, mlp_w2, mlp_b2)
            final = layer_norm_oracle(
                [mixed[f] + ff[f] for f in range(d)], ln2_gain, ln2_bias, eps
            )
            for f in range(d):
                out[i, j, f] = final[f]
    return out


def backbone_layer_oracle(
    x,
    ln1_gain,
    ln1_bias,
    qw,
    kw,
    vw,
    vb,
    ow,
    ob,
    ln2_gain,
    ln2_bias,
    mlp_w1,
    mlp_b1,
    mlp_w2,
    mlp_b2,
    heads,
    eps=1e-5,
):
    """One pre-norm encoder layer for a single channel: (P, d) -> (P, d)."""
    x = np.asarray(x, dtype=float)
    p, d = x.shape
    normed = np.asarray([layer_norm_oracle(x[i], ln1_gain, ln1_bias, eps) for i in range(p)])
    q = normed @ np.asarray(qw, dtype=float)
    k = normed @ np.asarray(kw, dtype=float)
    v = normed @ np.asarray(vw, dtype=float) + np.asarray(vb, dtype=float)
    attended = mha_oracle(q, k, v, heads, ow, ob)
    mid = x + attended
    normed2 = np.asarray([layer_norm_oracle(mid[i], ln2_gain, ln2_bias, eps) for i in range(p)])
    ff = np.asarray([mlp_oracle(normed2[i], mlp_w1, mlp_b1, mlp_w2, mlp_b2) for i in range(p)])
    return mid + ff


def forecast_oracle(windows, params, eps=1e-5):
    """The whole forecaster, one window and one channel at a time:
    (B, N, context) -> (B, N, horizon).

    RevIN (population standard deviation clamped from below at 1e-5),
    patching, the patch projection, the cross-variate block when the model
    has one, reprogramming, every backbone layer, the head over the
    flattened (P, width) encoding, and denormalisation.  ``params`` is a
    ``ModelParams``; only its arrays and sizes are read.
    """

    def a(t):
        return np.asarray(t.data, dtype=float)

    windows = np.asarray(windows, dtype=float)
    n_windows, n_channels, _ = windows.shape
    proj_w, proj_b = a(params.patch_proj.w), a(params.patch_proj.b)
    head_w, head_b = a(params.head.w), a(params.head.b)
    rp, heads = params.reprogram, params.attn_cfg.heads
    out = np.zeros((n_windows, n_channels, head_w.shape[1]))
    for w in range(n_windows):
        emb, stats = [], []
        for c in range(n_channels):
            series = [float(v) for v in windows[w, c]]
            mean = sum(series) / len(series)
            std = max(math.sqrt(sum((v - mean) ** 2 for v in series) / len(series)), 1e-5)
            stats.append((mean, std))
            patches = patch_oracle(
                [(v - mean) / std for v in series], params.patch_cfg.length, params.patch_cfg.stride
            )
            rows = []
            for row in patches:
                rows.append([
                    float(proj_b[o]) + sum(row[f] * proj_w[f, o] for f in range(len(row)))
                    for o in range(proj_w.shape[1])
                ])
            emb.append(rows)
        emb = np.asarray(emb)
        if params.cvpe is not None:
            blk = params.cvpe
            emb = router_block_oracle(
                emb, a(blk.positional), a(blk.routers.table),
                a(blk.collect_out.w), a(blk.collect_out.b),
                a(blk.dispatch_out.w), a(blk.dispatch_out.b),
                a(blk.mlp.fc1.w), a(blk.mlp.fc1.b), a(blk.mlp.fc2.w), a(blk.mlp.fc2.b),
                a(blk.ln1.gain), a(blk.ln1.bias), a(blk.ln2.gain), a(blk.ln2.bias),
                heads, eps,
            )
        for c in range(n_channels):
            x = cross_attention_oracle(
                emb[c], a(rp.bank.table), a(rp.query.w), a(rp.key.w),
                a(rp.value.w), a(rp.value.b), a(rp.out.w), a(rp.out.b), heads,
            )
            for layer in params.backbone:
                x = backbone_layer_oracle(
                    x, a(layer.ln1.gain), a(layer.ln1.bias), a(layer.q.w), a(layer.k.w),
                    a(layer.v.w), a(layer.v.b), a(layer.out.w), a(layer.out.b),
                    a(layer.ln2.gain), a(layer.ln2.bias),
                    a(layer.mlp.fc1.w), a(layer.mlp.fc1.b), a(layer.mlp.fc2.w), a(layer.mlp.fc2.b),
                    params.backbone_cfg.heads, eps,
                )
            flat = [float(v) for row in x for v in row]
            mean, std = stats[c]
            for h in range(head_w.shape[1]):
                acc = float(head_b[h])
                for f in range(len(flat)):
                    acc += flat[f] * head_w[f, h]
                out[w, c, h] = acc * std + mean
    return out
