"""End-to-end restoration network.

A 3x3 convolution lifts the input image to C feature channels; K residual
transformer blocks plus one trailing 3x3 convolution extract deep
features; the reconstruction head is task-specific. Super-resolution
aggregates shallow and deep features and upsamples with pixel shuffle;
denoising and compression-artifact reduction predict a residual that is
added back onto the input.

Parameters live in a nested structure addressable by hierarchical dotted
names (``rstb.3.stl.1.attn.wq``), which is also the checkpoint order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .attention import (MlpParams, StlParams, WindowAttentionParams,
                        relative_position_index, stl_forward)
from .rng import SplitMix64
from .tensor import Tensor, conv2d, gelu, permute, pixel_shuffle, reshape
from .windows import WindowGrid, crop_to, pad_to_multiple, reorder

TASKS = ("sr", "denoise", "car")
HEAD_STYLES = ("staged", "direct")
# checkpoints store mlp_ratio as a whole number of these steps
MLP_RATIO_STEPS = 1000
# largest window side: a model builds a window^4 relative-position index
# (4 MB at 32, 400 MB at 100) before a loader can check a file's records;
# the paper's configurations use 7 and 8
MAX_WINDOW = 32


@dataclass(frozen=True)
class SwinIRConfig:
    """Architecture hyper-parameters.

    ``mlp_ratio`` is calibrated so that parameter and mult-add counts of
    the reference configurations land on their published anchors; the MLP
    hidden width is round(mlp_ratio * channels).
    """
    task: str = "sr"
    scale: int = 2
    in_channels: int = 3
    out_channels: int = 3
    channels: int = 60
    rstb_count: int = 4
    stl_per_rstb: int = 6
    window: int = 8
    heads: int = 6
    mlp_ratio: float = 1.4
    head_style: str = "direct"
    head_channels: int = 96      # pre-head width, staged head only
    rstb_residual: bool = True   # block-level residual; off reproduces the ablation

    def validate(self) -> "SwinIRConfig":
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.head_style not in HEAD_STYLES:
            raise ValueError(f"unknown head style {self.head_style!r}")
        if self.task == "sr" and self.scale not in (2, 3, 4):
            raise ValueError(f"sr scale must be 2, 3 or 4, got {self.scale}")
        if self.task in ("denoise", "car") and self.scale != 1:
            raise ValueError(f"{self.task} requires scale 1, got {self.scale}")
        if self.task in ("denoise", "car") and self.in_channels != self.out_channels:
            raise ValueError("residual reconstruction needs matching in/out channels")
        if self.channels <= 0:
            raise ValueError("channel count must be positive")
        if self.heads <= 0 or self.channels % self.heads:
            raise ValueError(f"{self.heads} heads do not divide {self.channels} channels")
        if not 0 <= self.mlp_ratio < math.inf:
            raise ValueError(f"mlp_ratio {self.mlp_ratio} is not finite and >= 0")
        if round(self.mlp_ratio * MLP_RATIO_STEPS) / MLP_RATIO_STEPS != self.mlp_ratio:
            raise ValueError(f"mlp_ratio {self.mlp_ratio} is not a whole number of "
                             f"1/{MLP_RATIO_STEPS}ths, which is how checkpoints store it")
        if min(self.rstb_count, self.stl_per_rstb, self.window, self.in_channels,
               self.out_channels, self.head_channels) < 0:
            raise ValueError("negative structural field")
        if self.rstb_count * self.stl_per_rstb and self.window < 1:
            raise ValueError(f"window {self.window} must be >= 1 in a model with layers")
        if self.window > MAX_WINDOW:
            raise ValueError(f"window {self.window} exceeds the maximum of {MAX_WINDOW}")
        return self

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.channels))

    @property
    def upsample_stages(self) -> Tuple[int, ...]:
        if self.task != "sr":
            return ()
        return (2, 2) if self.scale == 4 else (self.scale,)


def classical_sr_config(scale: int = 4, channels_in: int = 3) -> SwinIRConfig:
    return SwinIRConfig(task="sr", scale=scale, in_channels=channels_in,
                        out_channels=channels_in, channels=180, rstb_count=6,
                        stl_per_rstb=6, window=8, heads=6,
                        head_style="staged").validate()


def lightweight_sr_config(scale: int = 4, channels_in: int = 3) -> SwinIRConfig:
    return SwinIRConfig(task="sr", scale=scale, in_channels=channels_in,
                        out_channels=channels_in, channels=60, rstb_count=4,
                        stl_per_rstb=6, window=8, heads=6,
                        head_style="direct").validate()


def denoise_config(channels_in: int = 1) -> SwinIRConfig:
    return SwinIRConfig(task="denoise", scale=1, in_channels=channels_in,
                        out_channels=channels_in, channels=180, rstb_count=6,
                        stl_per_rstb=6, window=8, heads=6).validate()


def car_config(channels_in: int = 1) -> SwinIRConfig:
    # window 7, not 8: quality drops at 8, likely because the compression
    # operates on 8x8 blocks
    return SwinIRConfig(task="car", scale=1, in_channels=channels_in,
                        out_channels=channels_in, channels=180, rstb_count=6,
                        stl_per_rstb=6, window=7, heads=6).validate()


def tiny_config(task: str = "denoise", scale: int = 1, channels_in: int = 1,
                channels: int = 8, rstb_count: int = 1, stl_per_rstb: int = 1,
                window: int = 4, heads: int = 2) -> SwinIRConfig:
    """Desk-scale configuration for gradient checks and toy training."""
    return SwinIRConfig(task=task, scale=scale, in_channels=channels_in,
                        out_channels=channels_in, channels=channels,
                        rstb_count=rstb_count, stl_per_rstb=stl_per_rstb,
                        window=window, heads=heads).validate()


# -- parameter containers ------------------------------------------------


@dataclass
class ConvParams:
    w: Tensor
    b: Tensor


@dataclass
class RstbParams:
    stls: List[StlParams]
    conv: ConvParams


@dataclass
class ModelParams:
    config: SwinIRConfig
    shallow: ConvParams
    rstbs: List[RstbParams]
    trunk: ConvParams
    head: Dict[str, ConvParams] = field(default_factory=dict)

    def named(self) -> Iterator[Tuple[str, Tensor]]:
        """Every learnable tensor with its hierarchical name, in the
        canonical (checkpoint) order."""
        yield "shallow.w", self.shallow.w
        yield "shallow.b", self.shallow.b
        for i, block in enumerate(self.rstbs):
            for j, stl in enumerate(block.stls):
                p = f"rstb.{i}.stl.{j}"
                yield f"{p}.norm1.gamma", stl.norm1_gamma
                yield f"{p}.norm1.beta", stl.norm1_beta
                for nm in ("wq", "bq", "wk", "bk", "wv", "bv",
                           "proj_w", "proj_b", "bias_table"):
                    yield f"{p}.attn.{nm}", getattr(stl.attn, nm)
                yield f"{p}.norm2.gamma", stl.norm2_gamma
                yield f"{p}.norm2.beta", stl.norm2_beta
                for nm in ("fc1_w", "fc1_b", "fc2_w", "fc2_b"):
                    yield f"{p}.mlp.{nm}", getattr(stl.mlp, nm)
            yield f"rstb.{i}.conv.w", block.conv.w
            yield f"rstb.{i}.conv.b", block.conv.b
        yield "trunk.w", self.trunk.w
        yield "trunk.b", self.trunk.b
        for name in sorted(self.head):
            yield f"head.{name}.w", self.head[name].w
            yield f"head.{name}.b", self.head[name].b

    def tensors(self) -> List[Tensor]:
        return [t for _, t in self.named()]

    def zero_grad(self) -> None:
        for t in self.tensors():
            t.zero_grad()


def _head_layout(cfg: SwinIRConfig) -> List[Tuple[str, int, int]]:
    """(name, in_channels, out_channels) of every 3x3 head convolution."""
    c, cout = cfg.channels, cfg.out_channels
    if cfg.task in ("denoise", "car"):
        return [("conv", c, cout)]
    if cfg.head_style == "direct":
        return [("up", c, cfg.scale * cfg.scale * cout)]
    cp = cfg.head_channels
    layout = [("pre", c, cp)]
    layout += [(f"up{k}", cp, s * s * cp) for k, s in enumerate(cfg.upsample_stages)]
    layout.append(("final", cp, cout))
    return layout


def init_params(cfg: SwinIRConfig, seed: int = 0,
                dtype=np.float32) -> ModelParams:
    """Build a freshly initialized parameter set.

    Projections and bias tables are truncated normal (sigma 0.02); convs
    are truncated normal with fan-in scaling; norm gains start at one and
    every bias at zero. Build with dtype float64 to run the whole model
    in the gradient-check shadow mode.
    """
    return build_params(cfg.validate(), SplitMix64(seed), dtype)


def build_params(cfg: SwinIRConfig, rng: Optional[SplitMix64],
                 dtype=np.float32) -> ModelParams:
    """Parameters of ``cfg``; without ``rng`` the weights stay uninitialized."""
    c = cfg.channels

    def trunc(shape, std):
        if rng is None:
            return Tensor(np.empty(shape, dtype=dtype), requires_grad=True)
        n = int(np.prod(shape))
        return Tensor(rng.truncated_normal(n, std=std).reshape(shape).astype(dtype),
                      requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    def conv(cin, cout, k=3):
        std = math.sqrt(2.0 / (k * k * cin))
        return ConvParams(w=trunc((cout, cin, k, k), std), b=zeros((cout,)))

    def lin(din, dout):
        return trunc((din, dout), 0.02), zeros((dout,))

    # window^4 indices: none for a model without layers, whatever its window
    rel = relative_position_index(cfg.window) if cfg.rstb_count * cfg.stl_per_rstb else None

    def stl(shift):
        wq, bq = lin(c, c)
        wk, bk = lin(c, c)
        wv, bv = lin(c, c)
        pw, pb = lin(c, c)
        attn = WindowAttentionParams(
            wq=wq, bq=bq, wk=wk, bk=bk, wv=wv, bv=bv, proj_w=pw, proj_b=pb,
            bias_table=trunc(((2 * cfg.window - 1) ** 2, cfg.heads), 0.02),
            rel_index=rel, heads=cfg.heads)
        f1w, f1b = lin(c, cfg.mlp_hidden)
        f2w, f2b = lin(cfg.mlp_hidden, c)
        return StlParams(norm1_gamma=ones((c,)), norm1_beta=zeros((c,)),
                         attn=attn,
                         norm2_gamma=ones((c,)), norm2_beta=zeros((c,)),
                         mlp=MlpParams(fc1_w=f1w, fc1_b=f1b, fc2_w=f2w, fc2_b=f2b),
                         shift=shift)

    shallow = conv(cfg.in_channels, c)
    rstbs = [RstbParams(stls=[stl(0 if j % 2 == 0 else cfg.window // 2)
                              for j in range(cfg.stl_per_rstb)],
                        conv=conv(c, c))
             for _ in range(cfg.rstb_count)]
    trunk = conv(c, c)
    head = {name: conv(cin, cout) for name, cin, cout in _head_layout(cfg)}
    return ModelParams(config=cfg, shallow=shallow, rstbs=rstbs,
                       trunk=trunk, head=head)


# -- forward passes ------------------------------------------------------


def shallow_extract(x: Tensor, params: ModelParams) -> Tensor:
    return conv2d(x, params.shallow.w, params.shallow.b, padding=1)


def rstb_forward(x: Tensor, block: RstbParams, window: int,
                 residual: bool = True) -> Tensor:
    """L transformer layers (padded window pass), 3x3 conv, block residual.

    The layers take the padded tokens as rows of [N, H*W, C], each in the
    window order of its own shift: one row gather before every layer whose
    order differs from the last one's, and one back to image order."""
    t = permute(x, 0, 2, 3, 1)
    t, (h, w) = pad_to_multiple(t, window)
    n, hp, wp, c = t.shape
    grid = WindowGrid(hp, wp, window)
    t = reshape(t, n, hp * wp, c)
    order = None
    for stl in block.stls:
        t = reorder(t, grid, order, stl.shift)
        order = stl.shift
        t = stl_forward(t, stl, grid)
    t = reshape(reorder(t, grid, order, None), n, hp, wp, c)
    t = crop_to(t, h, w)
    t = permute(t, 0, 3, 1, 2)
    t = conv2d(t, block.conv.w, block.conv.b, padding=1)
    return t + x if residual else t


def deep_extract(f0: Tensor, params: ModelParams) -> Tensor:
    cfg = params.config
    f = f0
    for block in params.rstbs:
        f = rstb_forward(f, block, cfg.window, residual=cfg.rstb_residual)
    return conv2d(f, params.trunk.w, params.trunk.b, padding=1)


def reconstruct_sr(f0: Tensor, fdf: Tensor, params: ModelParams) -> Tensor:
    cfg = params.config
    y = f0 + fdf
    if cfg.head_style == "direct":
        up = params.head["up"]
        return pixel_shuffle(conv2d(y, up.w, up.b, padding=1), cfg.scale)
    pre = params.head["pre"]
    y = gelu(conv2d(y, pre.w, pre.b, padding=1))
    for k, s in enumerate(cfg.upsample_stages):
        up = params.head[f"up{k}"]
        y = pixel_shuffle(conv2d(y, up.w, up.b, padding=1), s)
    final = params.head["final"]
    return conv2d(y, final.w, final.b, padding=1)


def reconstruct_residual(x: Tensor, f0: Tensor, fdf: Tensor,
                         params: ModelParams) -> Tensor:
    head = params.head["conv"]
    return conv2d(f0 + fdf, head.w, head.b, padding=1) + x


def forward(params: ModelParams, x: Tensor) -> Tensor:
    """Restore a batch of [N, Cin, H, W] images in [0, 1]."""
    cfg = params.config
    if x.shape[1] != cfg.in_channels:
        raise ValueError(f"expected {cfg.in_channels} input channels, got {x.shape[1]}")
    f0 = shallow_extract(x, params)
    fdf = deep_extract(f0, params)
    if cfg.task == "sr":
        return reconstruct_sr(f0, fdf, params)
    return reconstruct_residual(x, f0, fdf, params)


# -- analytic accounting -------------------------------------------------


def param_count(cfg: SwinIRConfig) -> int:
    """Exact number of learnable scalars implied by the configuration."""
    cfg.validate()
    c = cfg.channels
    hidden = cfg.mlp_hidden
    table = (2 * cfg.window - 1) ** 2 * cfg.heads
    stl = (4 * c * c + 4 * c) + table + 4 * c \
        + (c * hidden + hidden) + (hidden * c + c)
    rstb = cfg.stl_per_rstb * stl + (9 * c * c + c)
    total = cfg.rstb_count * rstb
    total += 9 * cfg.in_channels * c + c            # shallow
    total += 9 * c * c + c                          # trunk
    for _, cin, cout in _head_layout(cfg):
        total += 9 * cin * cout + cout
    return total


def count_mult_adds(cfg: SwinIRConfig, out_height: int, out_width: int) -> int:
    """Multiply-accumulate count for one forward pass at the given output
    resolution: 3x3 convolutions, projections, and the per-window
    attention products Q K^T and A V. Window passes run at the padded
    resolution, convolutions at the original one.
    """
    cfg.validate()
    if out_height <= 0 or out_width <= 0:
        raise ValueError(f"non-positive output resolution {out_height}x{out_width}")
    r = cfg.scale if cfg.task == "sr" else 1
    in_h = -(-out_height // r)
    in_w = -(-out_width // r)
    m = cfg.window
    pad_h = -(-in_h // m) * m
    pad_w = -(-in_w // m) * m
    px = in_h * in_w
    px_pad = pad_h * pad_w
    c = cfg.channels

    per_token = 4 * c * c + 2 * c * cfg.mlp_hidden   # q,k,v,proj + fc1,fc2
    per_token += 2 * m * m * c                       # QK^T and AV, per token
    total = cfg.rstb_count * cfg.stl_per_rstb * per_token * px_pad
    total += cfg.rstb_count * 9 * c * c * px         # per-block conv
    total += 9 * cfg.in_channels * c * px            # shallow
    total += 9 * c * c * px                          # trunk
    # each head conv runs at the resolution the pixel shuffles before it
    # have reached; a staged head shuffles after every up{k}
    shuffle = {f"up{k}": s * s for k, s in enumerate(cfg.upsample_stages)}
    for name, cin, cout in _head_layout(cfg):
        total += 9 * cin * cout * px
        px *= shuffle.get(name, 1)
    return total
