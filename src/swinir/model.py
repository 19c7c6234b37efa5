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
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .attention import (MlpParams, StlParams, WindowAttentionParams,
                        relative_position_index, stl_forward)
from .rng import SplitMix64
from .tensor import (Tensor, conv2d, gelu, grad_enabled, permute, pixel_shuffle,
                     reshape, single_thread_blas)
from .windows import WindowGrid, crop_to, pad_to_multiple, reorder

TASKS = ("sr", "denoise", "car")
HEAD_STYLES = ("staged", "direct")
# checkpoints store mlp_ratio as a whole number of these steps
MLP_RATIO_STEPS = 1000
INT32 = 2 ** 31     # checkpoints store each integer field as an int32
# largest window side: a model builds a window^4 relative-position index
# (4 MB at 32, 400 MB at 100) before a loader can check a file's records;
# the paper's configurations use 7 and 8
MAX_WINDOW = 32
# the fields a checkpoint stores as an index into their choices
_CHOICES = {"task": TASKS, "head_style": HEAD_STYLES, "rstb_residual": (False, True)}


@dataclass(frozen=True)
class SwinIRConfig:
    """Architecture hyper-parameters, checked when built (``__post_init__``).

    ``mlp_ratio`` is calibrated so that parameter and mult-add counts of
    the reference configurations land on their published anchors; the MLP
    hidden width is round(mlp_ratio * channels).
    """
    task: str = "sr"
    scale: int = 2               # output side over input side, 1 unless task is sr
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

    def __post_init__(self):
        """Raise ValueError naming the first field this config cannot
        build, run or store with."""
        for key, value in vars(self).items():
            if isinstance(value, int) and not -INT32 <= value < INT32:
                raise ValueError(f"{key} {value} does not fit a checkpoint's int32")
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise ValueError(f"unknown {key} {getattr(self, key)!r}")
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
        if not 0 <= self.mlp_ratio * MLP_RATIO_STEPS < INT32:
            raise ValueError(f"mlp_ratio {self.mlp_ratio} is not finite, >= 0 and below "
                             f"{INT32 / MLP_RATIO_STEPS:g}, a checkpoint's int32 bound")
        if round(self.mlp_ratio * MLP_RATIO_STEPS) / MLP_RATIO_STEPS != self.mlp_ratio:
            raise ValueError(f"mlp_ratio {self.mlp_ratio} is not a whole number of "
                             f"1/{MLP_RATIO_STEPS}ths, which is how checkpoints store it")
        if min(self.rstb_count, self.stl_per_rstb, self.window, self.head_channels) < 0:
            raise ValueError("negative structural field")
        if min(self.in_channels, self.out_channels) < 1:
            raise ValueError("an image has at least one channel")
        if self.task == "sr" and self.head_style == "staged" and self.head_channels < 1:
            raise ValueError("the staged head needs at least one channel")
        if self.rstb_count * self.stl_per_rstb and self.mlp_hidden < 1:
            raise ValueError(f"mlp_ratio {self.mlp_ratio} gives {self.channels} channels "
                             f"no MLP hidden unit; a model with layers needs one")
        if self.rstb_count and self.window < 1:
            raise ValueError(f"window {self.window} must be >= 1 in a model with blocks")
        if self.window > MAX_WINDOW:
            raise ValueError(f"window {self.window} exceeds the maximum of {MAX_WINDOW}")

    def validate(self) -> "SwinIRConfig":
        """The config itself: it was checked when built."""
        return self

    def to_ints(self) -> Tuple[int, ...]:
        """A checkpoint's config block: one int32 per field, in field order;
        enums and the boolean as indices into their choices, ``mlp_ratio``
        as a whole number of 1/MLP_RATIO_STEPS."""
        ints = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name in _CHOICES:
                v = _CHOICES[f.name].index(v)
            elif f.name == "mlp_ratio":
                v = round(v * MLP_RATIO_STEPS)
            ints.append(v)
        return tuple(ints)

    @classmethod
    def from_ints(cls, ints: Sequence[int]) -> "SwinIRConfig":
        """The config whose ``to_ints`` is ``ints``, else ValueError: an index
        outside its choices is refused, not wrapped, so no two blocks decode alike."""
        kwargs = {}
        for f, v in zip(fields(cls), ints, strict=True):
            if (choices := _CHOICES.get(f.name)) is not None:
                if not 0 <= v < len(choices):
                    raise ValueError(f"{f.name} {v} is not in 0..{len(choices) - 1}")
                v = choices[v]
            elif f.name == "mlp_ratio":
                v = v / MLP_RATIO_STEPS
            kwargs[f.name] = v
        return cls(**kwargs)

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.channels))


def classical_sr_config(scale: int = 4, channels_in: int = 3) -> SwinIRConfig:
    return SwinIRConfig(task="sr", scale=scale, in_channels=channels_in,
                        out_channels=channels_in, channels=180, rstb_count=6,
                        stl_per_rstb=6, window=8, heads=6,
                        head_style="staged")


def lightweight_sr_config(scale: int = 4, channels_in: int = 3) -> SwinIRConfig:
    return SwinIRConfig(task="sr", scale=scale, in_channels=channels_in,
                        out_channels=channels_in, channels=60, rstb_count=4,
                        stl_per_rstb=6, window=8, heads=6,
                        head_style="direct")


def denoise_config(channels_in: int = 1) -> SwinIRConfig:
    return SwinIRConfig(task="denoise", scale=1, in_channels=channels_in,
                        out_channels=channels_in, channels=180, rstb_count=6,
                        stl_per_rstb=6, window=8, heads=6)


def car_config(channels_in: int = 1) -> SwinIRConfig:
    # window 7, not 8: quality drops at 8, likely because the compression
    # operates on 8x8 blocks
    return SwinIRConfig(task="car", scale=1, in_channels=channels_in,
                        out_channels=channels_in, channels=180, rstb_count=6,
                        stl_per_rstb=6, window=7, heads=6)


def tiny_config(task: str = "denoise", scale: int = 1, channels_in: int = 1,
                channels: int = 8, rstb_count: int = 1, stl_per_rstb: int = 1,
                window: int = 4, heads: int = 2) -> SwinIRConfig:
    """Desk-scale configuration for gradient checks and toy training."""
    return SwinIRConfig(task=task, scale=scale, in_channels=channels_in,
                        out_channels=channels_in, channels=channels,
                        rstb_count=rstb_count, stl_per_rstb=stl_per_rstb,
                        window=window, heads=heads)


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

    def views(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        """Each parameter's part of ``flat``, a buffer of one value per
        parameter element in the canonical order (Adam's moments), as a
        view of the parameter's shape."""
        views, at = {}, 0
        for name, t in self.named():
            views[name] = flat[at:at + t.size].reshape(t.shape)
            at += t.size
        return views

    def zero_grad(self) -> None:
        for t in self.tensors():
            t.zero_grad()


def _head_layout(cfg: SwinIRConfig) -> List[Tuple[str, int, int, int]]:
    """(name, in_channels, out_channels, shuffle) of every 3x3 head conv, in
    run order: ``shuffle`` is the factor of the pixel shuffle after the conv,
    1 for none. GELU follows a staged head's ``pre``."""
    c, cout, s = cfg.channels, cfg.out_channels, cfg.scale
    if cfg.task in ("denoise", "car"):
        return [("conv", c, cout, 1)]
    if cfg.head_style == "direct":
        return [("up", c, s * s * cout, s)]
    cp = cfg.head_channels
    stages = (2, 2) if s == 4 else (s,)
    return [("pre", c, cp, 1), *[(f"up{k}", cp, r * r * cp, r) for k, r in enumerate(stages)],
            ("final", cp, cout, 1)]


def init_params(cfg: SwinIRConfig, seed: int = 0,
                dtype=np.float32) -> ModelParams:
    """Build a freshly initialized parameter set.

    Projections and bias tables are truncated normal (sigma 0.02); convs
    are truncated normal with fan-in scaling; norm gains start at one and
    every bias at zero. Build with dtype float64 to run the whole model
    in the gradient-check shadow mode.
    """
    return build_params(cfg, SplitMix64(seed), dtype)


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
    head = {name: conv(cin, cout) for name, cin, cout, _ in _head_layout(cfg)}
    return ModelParams(config=cfg, shallow=shallow, rstbs=rstbs,
                       trunk=trunk, head=head)


# -- forward passes ------------------------------------------------------


def shallow_extract(x: Tensor, params: ModelParams) -> Tensor:
    return conv2d(x, params.shallow.w, params.shallow.b)


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
    t = conv2d(t, block.conv.w, block.conv.b)
    return t + x if residual else t


def deep_extract(f0: Tensor, params: ModelParams) -> Tensor:
    cfg = params.config
    f = f0
    for block in params.rstbs:
        f = rstb_forward(f, block, cfg.window, residual=cfg.rstb_residual)
    return conv2d(f, params.trunk.w, params.trunk.b)


def reconstruct_sr(f0: Tensor, fdf: Tensor, params: ModelParams) -> Tensor:
    y = f0 + fdf
    for name, _, _, r in _head_layout(params.config):
        conv = params.head[name]
        y = conv2d(y, conv.w, conv.b)
        if name == "pre":
            y = gelu(y)
        if r > 1:
            y = pixel_shuffle(y, r)
    return y


def reconstruct_residual(x: Tensor, f0: Tensor, fdf: Tensor,
                         params: ModelParams) -> Tensor:
    head = params.head["conv"]
    return conv2d(f0 + fdf, head.w, head.b) + x


def forward(params: ModelParams, x: Tensor) -> Tensor:
    """Restore a batch of [N, Cin, H, W] images in [0, 1].

    Inside ``no_grad`` the transformer layers and the convolutions split
    their work over the usable CPUs (``tensor.parallel_for``), and BLAS
    runs at one thread for the whole call, so that no idle BLAS thread
    spins on a core a worker needs; its thread count is restored on
    return. With a tape, the call runs on one thread at the BLAS thread
    count it finds."""
    cfg = params.config
    if x.shape[1] != cfg.in_channels:
        raise ValueError(f"expected {cfg.in_channels} input channels, got {x.shape[1]}")
    with nullcontext() if grad_enabled() else single_thread_blas():
        f0 = shallow_extract(x, params)
        fdf = deep_extract(f0, params)
        if cfg.task == "sr":
            return reconstruct_sr(f0, fdf, params)
        return reconstruct_residual(x, f0, fdf, params)


# -- analytic accounting -------------------------------------------------


def param_count(cfg: SwinIRConfig) -> int:
    """Exact number of learnable scalars implied by the configuration."""
    c = cfg.channels
    hidden = cfg.mlp_hidden
    table = (2 * cfg.window - 1) ** 2 * cfg.heads
    stl = (4 * c * c + 4 * c) + table + 4 * c \
        + (c * hidden + hidden) + (hidden * c + c)
    rstb = cfg.stl_per_rstb * stl + (9 * c * c + c)
    total = cfg.rstb_count * rstb
    total += 9 * cfg.in_channels * c + c            # shallow
    total += 9 * c * c + c                          # trunk
    for _, cin, cout, _ in _head_layout(cfg):
        total += 9 * cin * cout + cout
    return total


def count_mult_adds(cfg: SwinIRConfig, out_height: int, out_width: int) -> int:
    """Multiply-accumulate count for one forward pass at the given output
    resolution: 3x3 convolutions, projections, and the per-window
    attention products Q K^T and A V. Window passes run at the padded
    resolution, convolutions at the original one.
    """
    if out_height <= 0 or out_width <= 0:
        raise ValueError(f"non-positive output resolution {out_height}x{out_width}")
    in_h = -(-out_height // cfg.scale)
    in_w = -(-out_width // cfg.scale)
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
    # each head conv runs at the resolution its preceding shuffles reached
    for _, cin, cout, r in _head_layout(cfg):
        total += 9 * cin * cout * px
        px *= r * r
    return total
