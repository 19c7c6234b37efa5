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
it (``fold_norm``), once per layer call (``layer_weights``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .tensor import (Tensor, concat, grad_enabled, layer_norm, linear, mlp, mul,
                     parallel_for, permute, reshape, take, window_attention)
from .windows import AttnMask, WindowGrid, build_attn_mask

# a LayerNorm's gain and shift, (gamma, beta)
Norm = Tuple[Tensor, Tensor]
# the QKV weight, its bias and the position bias [heads, key, query]
AttnWeights = Tuple[Tensor, Tensor, Tensor]
# a layer's products with its norms folded in: (AttnWeights, fc1 (W, b))
LayerWeights = Tuple[AttnWeights, Tuple[Tensor, Tensor]]

# rows per chunk of an untaped layer, rounded down to whole windows: the
# one bound on a thread's working set, since LayerNorm, GELU and the
# attention core each run over a whole chunk at once
_CHUNK_ROWS = 2048


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


def fold_norm(norm: Norm, w: Tensor, b: Tensor) -> Tuple[Tensor, Tensor]:
    """Weights of (x_hat gamma + beta) W + b as a product of x_hat, the
    normalized rows: W' = diag(gamma) W and b' = beta W + b, built with tape
    ops, so gradients reach gamma and beta."""
    gamma, beta = norm
    return mul(reshape(gamma, gamma.shape[0], 1), w), linear(beta, w, b)


def attn_weights(params: WindowAttentionParams, norm: Norm) -> AttnWeights:
    """(W, b, B) of ``window_msa``: the C x 3C QKV weight and its bias,
    concatenated from wq, wk and wv with 1/sqrt(d) folded into wq and bq
    and ``norm`` folded in as well (``fold_norm``), and the relative
    position bias gathered into [heads, key, query]."""
    c, h = params.wq.shape[1], params.heads
    if c % h:
        raise ValueError(f"{h} heads do not divide {c} channels")
    mm = params.rel_index.shape[0]
    scale = 1.0 / math.sqrt(c // h)
    w = concat([params.wq * scale, params.wk, params.wv], axis=1)
    b = concat([params.bq * scale, params.bk, params.bv], axis=0)
    w, b = fold_norm(norm, w, b)
    # key-major bias: entry (key j, query i) is table[rel_index[i, j]]
    bias = take(params.bias_table, params.rel_index.T.reshape(-1), axis=0)
    return w, b, permute(reshape(bias, mm, mm, h), 2, 0, 1)


def window_msa(x: Tensor, params: WindowAttentionParams,
               mask: Optional[AttnMask], weights: AttnWeights) -> Tensor:
    """Biased multi-head attention over window-ordered rows [..., C], m^2
    consecutive rows per window ([nW, m^2, C] or any leading shape), with
    ``mask`` None on an unshifted layer.

    Q, K and V come from one C x 3C product. ``weights`` is its weight,
    its bias and the gathered position bias, ``attn_weights(params,
    norm)``, which a layer builds once for all of its chunks."""
    w, b, bias = weights
    out = window_attention(linear(x, w, b), bias, mask)
    return linear(out, params.proj_w, params.proj_b)


def mlp_forward(x: Tensor, params: MlpParams, fc1: Tuple[Tensor, Tensor]) -> Tensor:
    """fc2(GELU(fc1(x))), one ``tensor.mlp`` op: the tape keeps x and fc1's
    output, and backward rebuilds GELU from them. ``fc1`` is fc1's weight
    and bias with a norm folded in (``fold_norm``), built once per layer;
    fc2 comes from ``params``."""
    w, b = fc1
    return mlp(x, w, b, params.fc2_w, params.fc2_b)


def layer_weights(params: StlParams) -> LayerWeights:
    """The products of one layer with both LayerNorms' gain and shift
    folded in: (``attn_weights``, fc1's weight and bias). Built with tape
    ops, so gradients reach every parameter."""
    return (attn_weights(params.attn, (params.norm1_gamma, params.norm1_beta)),
            fold_norm((params.norm2_gamma, params.norm2_beta),
                      params.mlp.fc1_w, params.mlp.fc1_b))


def _layer(x: Tensor, params: StlParams, weights: LayerWeights,
           mask: Optional[AttnMask]) -> Tensor:
    """The layer's two residual sublayers on rows of whole windows, with
    its ``layer_weights``."""
    attn, fc1 = weights
    x = x + window_msa(layer_norm(x, None, None), params.attn, mask, attn)
    return x + mlp_forward(layer_norm(x, None, None), params.mlp, fc1)


def stl_forward(x: Tensor, params: StlParams, grid: WindowGrid) -> Tensor:
    """One transformer layer on the N*H*W tokens of a window-aligned grid,
    given as rows [..., C] in the window order of the layer's shift
    (``windows.reorder``); returns them in the same order.

    Both LayerNorms run without their affine step; gamma and beta enter the
    QKV and fc1 products instead. The None arguments stay positional: the
    benchmark's tracer reads the second argument of ``layer_norm``.

    The layer's constants, ``layer_weights`` (the QKV and fc1 products
    with the norms folded in, and the gathered position bias), are built
    once per call and shared by every chunk. Every step acts on rows or on
    single windows, so inside ``no_grad`` the layer runs as chunks of
    ``_CHUNK_ROWS // m^2`` whole windows over ``tensor.parallel_for``, each
    chunk with the mask placed at its first window and temporaries that the
    allocator reuses. LayerNorm, GELU and the attention core each make
    their passes once over a whole chunk, so a chunk makes a few dozen
    numpy calls and hands the GIL over about as often, and the chunk is
    the only bound on a thread's working set: at most ``_CHUNK_ROWS``
    rows, whose attention scores take heads * m^2 floats each (3 MB at 6
    heads and window 8). Configs with heads * m^2 above 1,024 (window 14
    or more at 6 heads; none of the paper's) hold more than 8 MB of
    scores per thread, 48 MB at 6 heads and the largest window, 32. The
    chunks depend only on the grid and the batch, never on the thread
    count, so the output does not either. With a tape the layer is one
    chunk, with the same ops."""
    s = params.shift
    mask = build_attn_mask(grid.height, grid.width, grid.window, s) if s else None
    weights = layer_weights(params)
    if grad_enabled():
        return _layer(x, params, weights, mask)
    mm = grid.window ** 2
    rows = x.data.reshape(-1, x.shape[-1])
    nw = len(rows) // mm
    step = max(1, _CHUNK_ROWS // mm)
    out = np.empty_like(rows)

    def chunk(lo):
        hi = min(lo + step, nw)
        part = None if mask is None else mask._replace(first=lo)
        out[lo * mm:hi * mm] = _layer(Tensor(rows[lo * mm:hi * mm]), params,
                                      weights, part).data

    parallel_for(chunk, range(0, nw, step))
    return Tensor(out.reshape(x.shape))
