"""Windowed multi-head self-attention, MLP, and the full transformer layer.

Per window of M^2 tokens: project to Q/K/V with shared C x C matrices,
split heads by contiguous channel chunks, form softmax(Q K^T / sqrt(d)
+ B + mask) V per head (``tensor.window_attention``), concatenate heads,
and output-project. B is a learnable table with one entry per relative
(dh, dw) offset, gathered through a precomputed index. A layer is two
pre-LayerNorm residual sublayers (attention, then a two-layer GELU MLP),
with window shift alternating 0 and M//2 across consecutive layers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import (Tensor, concat, gelu, layer_norm, linear, permute,
                     reshape, take, window_attention)
from .windows import (AttnMask, WindowGrid, build_attn_mask, cyclic_shift,
                      unshift, window_partition, window_reverse)


def relative_position_index(m: int) -> np.ndarray:
    """[m^2, m^2] table of bias indices for token pairs inside a window.

    For positions p=(ph,pw), q=(qh,qw):
    index = (ph-qh+m-1)*(2m-1) + (pw-qw+m-1), in [0, (2m-1)^2).
    """
    coords = np.stack(np.meshgrid(np.arange(m), np.arange(m), indexing="ij"))
    flat = coords.reshape(2, -1)
    delta = flat[:, :, None] - flat[:, None, :]
    return (delta[0] + m - 1) * (2 * m - 1) + (delta[1] + m - 1)


@dataclass
class WindowAttentionParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    proj_w: Tensor
    proj_b: Tensor
    bias_table: Tensor          # [(2m-1)^2, heads]
    rel_index: np.ndarray       # [m^2, m^2] int, not learned
    heads: int


@dataclass
class MlpParams:
    fc1_w: Tensor
    fc1_b: Tensor
    fc2_w: Tensor
    fc2_b: Tensor


@dataclass
class StlParams:
    norm1_gamma: Tensor
    norm1_beta: Tensor
    attn: WindowAttentionParams
    norm2_gamma: Tensor
    norm2_beta: Tensor
    mlp: MlpParams
    shift: int


def window_msa(x: Tensor, params: WindowAttentionParams,
               mask: Optional[AttnMask] = None) -> Tensor:
    """Biased multi-head attention over [nW, m^2, C] windows.

    Q, K and V come from one C x 3C product whose weights are concatenated
    from wq, wk and wv on each call, with 1/sqrt(d) folded into wq and bq.
    """
    nw, mm, c = x.shape
    h = params.heads
    if c % h:
        raise ValueError(f"{h} heads do not divide {c} channels")
    scale = 1.0 / math.sqrt(c // h)
    w = concat([params.wq * scale, params.wk, params.wv], axis=1)
    b = concat([params.bq * scale, params.bk, params.bv], axis=0)
    # key-major bias: entry (key j, query i) is table[rel_index[i, j]]
    bias = take(params.bias_table, params.rel_index.T.reshape(-1), axis=0)
    bias = permute(reshape(bias, mm, mm, h), 2, 0, 1)
    out = window_attention(linear(x, w, b), bias, mask)
    return linear(out, params.proj_w, params.proj_b)


def mlp_forward(x: Tensor, params: MlpParams) -> Tensor:
    return linear(gelu(linear(x, params.fc1_w, params.fc1_b)),
                  params.fc2_w, params.fc2_b)


def stl_forward(x: Tensor, params: StlParams, grid: WindowGrid) -> Tensor:
    """One transformer layer on [N, H, W, C]; H, W already window-aligned."""
    m, s = grid.window, params.shift

    y = layer_norm(x, params.norm1_gamma, params.norm1_beta)
    y = cyclic_shift(y, s)
    wins = window_partition(y, m)
    mask = build_attn_mask(grid.height, grid.width, m, s) if s else None
    wins = window_msa(wins, params.attn, mask)
    y = window_reverse(wins, m, grid.height, grid.width)
    y = unshift(y, s)
    x = x + y

    y = layer_norm(x, params.norm2_gamma, params.norm2_beta)
    return x + mlp_forward(y, params.mlp)
