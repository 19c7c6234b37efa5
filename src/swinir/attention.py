"""Windowed multi-head self-attention, MLP, and the full transformer layer.

Per window of M^2 tokens: project to Q/K/V with shared C x C matrices,
split heads by contiguous channel chunks, form softmax(Q K^T / sqrt(d)
+ B + mask) V per head (``tensor.window_attention``), concatenate heads,
and output-project. B is a learnable table with one entry per relative
(dh, dw) offset, gathered through a precomputed index. A layer is two
pre-LayerNorm residual sublayers (attention, then a two-layer GELU MLP),
with window shift alternating 0 and M//2 across consecutive layers. A
layer takes its tokens as rows in the window order of its own shift
(``windows.reorder``), so every row-wise step runs on them in place, and
each LayerNorm's gain and shift are folded into the product that follows
it (``fold_norm``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .tensor import (Tensor, concat, gelu, layer_norm, linear, mul, permute,
                     reshape, take, window_attention)
from .windows import AttnMask, WindowGrid, build_attn_mask

# a LayerNorm's gain and shift, (gamma, beta)
Norm = Tuple[Tensor, Tensor]


def relative_position_index(m: int) -> np.ndarray:
    """[m^2, m^2] table of bias indices for token pairs inside a window.

    For positions p=(ph,pw), q=(qh,qw):
    index = (ph-qh+m-1)*(2m-1) + (pw-qw+m-1), in [0, (2m-1)^2).

    The index splits into a term of p minus a term of q, so it is one
    outer difference of two [m^2] int32 vectors, with no temporary as
    large as the result.
    """
    span = 2 * m - 1
    rows, cols = np.divmod(np.arange(m * m, dtype=np.int32), np.int32(m))
    q_term = rows * span + cols
    return np.subtract.outer(q_term + (m - 1) * (span + 1), q_term)


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


def fold_norm(norm: Optional[Norm], w: Tensor, b: Tensor) -> Tuple[Tensor, Tensor]:
    """Weights of (x_hat gamma + beta) W + b as a product of x_hat, the
    normalized rows: W' = diag(gamma) W and b' = beta W + b, built with tape
    ops, so gradients reach gamma and beta. ``norm`` None leaves W and b."""
    if norm is None:
        return w, b
    gamma, beta = norm
    return mul(reshape(gamma, gamma.shape[0], 1), w), linear(beta, w, b)


def window_msa(x: Tensor, params: WindowAttentionParams,
               mask: Optional[AttnMask] = None,
               norm: Optional[Norm] = None) -> Tensor:
    """Biased multi-head attention over window-ordered rows [..., C], m^2
    consecutive rows per window ([nW, m^2, C] or any leading shape).

    Q, K and V come from one C x 3C product whose weights are concatenated
    from wq, wk and wv on each call, with 1/sqrt(d) folded into wq and bq
    and, when x left a LayerNorm without its affine step, that step's
    ``norm`` (``fold_norm``).
    """
    c = x.shape[-1]
    h = params.heads
    if c % h:
        raise ValueError(f"{h} heads do not divide {c} channels")
    mm = params.rel_index.shape[0]
    scale = 1.0 / math.sqrt(c // h)
    w = concat([params.wq * scale, params.wk, params.wv], axis=1)
    b = concat([params.bq * scale, params.bk, params.bv], axis=0)
    w, b = fold_norm(norm, w, b)
    # key-major bias: entry (key j, query i) is table[rel_index[i, j]]
    bias = take(params.bias_table, params.rel_index.T.reshape(-1), axis=0)
    bias = permute(reshape(bias, mm, mm, h), 2, 0, 1)
    out = window_attention(linear(x, w, b), bias, mask)
    return linear(out, params.proj_w, params.proj_b)


def mlp_forward(x: Tensor, params: MlpParams, norm: Optional[Norm] = None) -> Tensor:
    """fc2(GELU(fc1(x))), with ``norm`` folded into fc1 (``fold_norm``)."""
    w, b = fold_norm(norm, params.fc1_w, params.fc1_b)
    return linear(gelu(linear(x, w, b)), params.fc2_w, params.fc2_b)


def stl_forward(x: Tensor, params: StlParams, grid: WindowGrid) -> Tensor:
    """One transformer layer on the N*H*W tokens of a window-aligned grid,
    given as rows [..., C] in the window order of the layer's shift
    (``windows.reorder``); returns them in the same order.

    Both LayerNorms run without their affine step; gamma and beta enter the
    QKV and fc1 products instead. The None arguments stay positional: the
    benchmark's tracer reads the second argument of ``layer_norm``."""
    s = params.shift
    mask = build_attn_mask(grid.height, grid.width, grid.window, s) if s else None
    x = x + window_msa(layer_norm(x, None, None), params.attn, mask,
                       (params.norm1_gamma, params.norm1_beta))
    return x + mlp_forward(layer_norm(x, None, None), params.mlp,
                           (params.norm2_gamma, params.norm2_beta))
