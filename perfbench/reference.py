"""Independent float64 forward pass of the restoration network.

Written from the model's definition (README "Model shape in brief",
windowed attention as in Swin/SwinIR) on plain numpy, sharing no code with
``swinir.tensor``, ``swinir.windows``, ``swinir.attention`` or
``swinir.model``. It reads the weights by their ``ModelParams.named()``
names, so the check compares the program against a second implementation
of the same network, not against itself in another precision.

Covers the heads the workloads use: sr with the "direct" pixel-shuffle
head, and the residual head of denoise/car.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

MASK_VALUE = -100.0
LN_EPS = 1e-5


def conv3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 cross-correlation; x [N, C, H, W], w [O, C, 3, 3]."""
    n, _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((w.shape[0], n, h, wd))
    for i in range(3):
        for j in range(3):
            out += np.tensordot(w[:, :, i, j], xp[:, :, i:i + h, j:j + wd], axes=([1], [1]))
    return out.transpose(1, 0, 2, 3) + b[None, :, None, None]


def layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma + beta


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def to_windows(x, m):
    """[N, H, W, C] -> [N, H/m * W/m, m*m, C], windows and tokens row-major."""
    n, h, w, c = x.shape
    return (x.reshape(n, h // m, m, w // m, m, c).transpose(0, 1, 3, 2, 4, 5)
            .reshape(n, (h // m) * (w // m), m * m, c))


def from_windows(wins, m, h, w):
    n, _, _, c = wins.shape
    return (wins.reshape(n, h // m, w // m, m, m, c).transpose(0, 1, 3, 2, 4, 5)
            .reshape(n, h, w, c))


def relative_bias(table, m):
    """[heads, m*m, m*m] bias for every token pair of a window."""
    rows, cols = np.divmod(np.arange(m * m), m)
    dh = rows[:, None] - rows[None, :] + m - 1
    dw = cols[:, None] - cols[None, :] + m - 1
    return table[dh * (2 * m - 1) + dw].transpose(2, 0, 1)


def shift_mask(h, w, m, s):
    """[nW, m*m, m*m] additive mask: token pairs that came from different
    regions of the unshifted image are pushed to MASK_VALUE."""
    label = np.zeros((h, w))
    k = 0
    for rs in (slice(0, h - m), slice(h - m, h - s), slice(h - s, h)):
        for cs in (slice(0, w - m), slice(w - m, w - s), slice(w - s, w)):
            label[rs, cs] = k
            k += 1
    tokens = to_windows(label[None, :, :, None], m)[0, :, :, 0]
    return np.where(tokens[:, :, None] != tokens[:, None, :], MASK_VALUE, 0.0)


def transformer_layer(x, p, m, s, heads):
    """One layer on [N, H, W, C]; p maps short names to weights."""
    n, h, w, c = x.shape
    d = c // heads
    y = layer_norm(x, p["norm1.gamma"], p["norm1.beta"])
    if s:
        y = np.roll(y, (-s, -s), axis=(1, 2))
    wins = to_windows(y, m)                                   # [N, nW, T, C]

    def heads_of(t):
        return t.reshape(n, -1, m * m, heads, d).transpose(0, 1, 3, 2, 4)

    q = heads_of(wins @ p["attn.wq"] + p["attn.bq"])
    k = heads_of(wins @ p["attn.wk"] + p["attn.bk"])
    v = heads_of(wins @ p["attn.wv"] + p["attn.bv"])
    logits = q @ k.swapaxes(-1, -2) / math.sqrt(d)            # [N, nW, heads, T, T]
    logits = logits + relative_bias(p["attn.bias_table"], m)
    if s:
        logits = logits + shift_mask(h, w, m, s)[None, :, None]
    logits = logits - logits.max(axis=-1, keepdims=True)
    attn = np.exp(logits)
    attn /= attn.sum(axis=-1, keepdims=True)
    out = (attn @ v).transpose(0, 1, 3, 2, 4).reshape(n, -1, m * m, c)
    out = out @ p["attn.proj_w"] + p["attn.proj_b"]
    out = from_windows(out, m, h, w)
    if s:
        out = np.roll(out, (s, s), axis=(1, 2))
    x = x + out
    y = layer_norm(x, p["norm2.gamma"], p["norm2.beta"])
    y = gelu(y @ p["mlp.fc1_w"] + p["mlp.fc1_b"]) @ p["mlp.fc2_w"] + p["mlp.fc2_b"]
    return x + y


def forward(cfg, weights: dict, x: np.ndarray) -> np.ndarray:
    """Restore [N, Cin, H, W] in float64; ``weights`` maps every
    ``ModelParams.named()`` name to its array."""
    if cfg.task == "sr" and cfg.head_style != "direct":
        raise NotImplementedError("reference covers the direct sr head only")
    wt = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
    x = np.asarray(x, dtype=np.float64)
    m = cfg.window

    f0 = conv3x3(x, wt["shallow.w"], wt["shallow.b"])
    f = f0
    for i in range(cfg.rstb_count):
        t = f.transpose(0, 2, 3, 1)
        h, w = t.shape[1], t.shape[2]
        t = np.pad(t, ((0, 0), (0, -h % m), (0, -w % m), (0, 0)), mode="reflect")
        for j in range(cfg.stl_per_rstb):
            prefix = f"rstb.{i}.stl.{j}."
            p = {k[len(prefix):]: v for k, v in wt.items() if k.startswith(prefix)}
            t = transformer_layer(t, p, m, m // 2 if j % 2 else 0, cfg.heads)
        t = t[:, :h, :w].transpose(0, 3, 1, 2)
        t = conv3x3(t, wt[f"rstb.{i}.conv.w"], wt[f"rstb.{i}.conv.b"])
        f = t + f if cfg.rstb_residual else t
    fdf = conv3x3(f, wt["trunk.w"], wt["trunk.b"])

    if cfg.task != "sr":
        return conv3x3(f0 + fdf, wt["head.conv.w"], wt["head.conv.b"]) + x
    y = conv3x3(f0 + fdf, wt["head.up.w"], wt["head.up.b"])
    n, crr, h, w = y.shape
    r = cfg.scale
    c = crr // (r * r)
    return (y.reshape(n, c, r, r, h, w).transpose(0, 1, 4, 2, 5, 3)
            .reshape(n, c, h * r, w * r))


def restore(cfg, weights: dict, image: np.ndarray) -> np.ndarray:
    """[H, W, C] in [0, 1] -> restored [H', W', C], clipped to [0, 1]."""
    y = forward(cfg, weights, np.moveaxis(image, 2, 0)[None])
    return np.clip(np.moveaxis(y[0], 0, 2), 0.0, 1.0)
