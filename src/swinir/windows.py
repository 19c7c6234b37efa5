"""Window partition/reverse, cyclic shift, padding, and attention masks.

Features move through the attention layers as [N, H, W, C] tensors. A
window pass reshapes that into HW/M^2 groups of M^2 tokens; both the
window order over the tile grid and the token order inside a window are
row-major, and the relative-position bias tables depend on that choice.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import Tensor, getitem, permute, reshape, roll, take

MASK_VALUE = -100.0


@dataclass(frozen=True)
class WindowGrid:
    """Geometry of one padded window pass."""
    height: int
    width: int
    window: int

    def __post_init__(self):
        if self.height % self.window or self.width % self.window:
            raise ValueError(
                f"grid {self.height}x{self.width} not a multiple of window {self.window}")

    @property
    def windows_per_col(self) -> int:
        return self.height // self.window

    @property
    def windows_per_row(self) -> int:
        return self.width // self.window

    @property
    def num_windows(self) -> int:
        return self.windows_per_col * self.windows_per_row


def _reflect_indices(n: int, pad: int) -> np.ndarray:
    """Source rows for reflect-101 padding of an n-row axis by ``pad``."""
    if n == 1:
        return np.zeros(n + pad, dtype=np.int64)
    period = 2 * n - 2
    k = np.arange(n + pad, dtype=np.int64) % period
    return np.minimum(k, period - k)


def pad_to_multiple(x: Tensor, m: int) -> tuple[Tensor, tuple[int, int]]:
    """Reflect-pad bottom/right of [N, H, W, C] so H and W divide by m.

    Returns the padded tensor and the original (H, W) for cropping after
    the window pass.
    """
    if m < 1:
        raise ValueError(f"window size must be >= 1, got {m}")
    _, h, w, _ = x.shape
    if h < 1 or w < 1:
        raise ValueError(f"image too small to pad: {h}x{w}")
    pad_h = (m - h % m) % m
    pad_w = (m - w % m) % m
    if pad_h:
        x = take(x, _reflect_indices(h, pad_h), axis=1)
    if pad_w:
        x = take(x, _reflect_indices(w, pad_w), axis=2)
    return x, (h, w)


def crop_to(x: Tensor, h: int, w: int) -> Tensor:
    if x.shape[1] == h and x.shape[2] == w:
        return x
    return getitem(x, (slice(None), slice(0, h), slice(0, w), slice(None)))


def window_partition(x: Tensor, m: int) -> Tensor:
    """[N, H, W, C] -> [N * HW/m^2, m^2, C] of non-overlapping m x m tiles."""
    n, h, w, c = x.shape
    if h % m or w % m:
        raise ValueError(f"cannot partition {h}x{w} into {m}x{m} windows")
    x = reshape(x, n, h // m, m, w // m, m, c)
    x = permute(x, 0, 1, 3, 2, 4, 5)
    return reshape(x, n * (h // m) * (w // m), m * m, c)


def window_reverse(wins: Tensor, m: int, h: int, w: int) -> Tensor:
    """Exact inverse of ``window_partition``."""
    total, mm, c = wins.shape
    per_image = (h // m) * (w // m)
    if h % m or w % m or mm != m * m or total % per_image:
        raise ValueError(
            f"window count {total} inconsistent with {h}x{w} at window {m}")
    n = total // per_image
    x = reshape(wins, n, h // m, w // m, m, m, c)
    x = permute(x, 0, 1, 3, 2, 4, 5)
    return reshape(x, n, h, w, c)


def cyclic_shift(x: Tensor, s: int) -> Tensor:
    """Toroidal roll of [N, H, W, C] by (-s, -s); the forward half of the
    shifted-window pass. ``unshift`` restores bit-exactly."""
    if s == 0:
        return x
    return roll(x, (-s, -s), axes=(1, 2))


def unshift(x: Tensor, s: int) -> Tensor:
    if s == 0:
        return x
    return roll(x, (s, s), axes=(1, 2))


def _partition_np(x: np.ndarray, m: int) -> np.ndarray:
    h, w = x.shape
    return (x.reshape(h // m, m, w // m, m)
             .transpose(0, 2, 1, 3)
             .reshape(-1, m * m))


class AttnMask(np.ndarray):
    """Read-only additive mask, [nW, m^2, m^2], plus the parts the fused
    attention core reads: ``windows``, the indices of the windows with
    any nonzero entry; ``blocks``, those windows' masks key-major, shaped
    [len(windows), 1, m^2, m^2] to broadcast over heads; and ``slots``,
    for every window its row in ``blocks`` or -1 if it is unmasked, so a
    block of windows finds its masked ones by lookup.

    ``blocks`` holds -inf where the mask is nonzero, so masked pairs get
    weight exactly 0. With MASK_VALUE they would get about e^-100, which
    float32 stores only as a subnormal; subnormals make the exp and every
    product that reads them, forward and backward, an order of magnitude
    slower, for no visible change in the output."""
    windows = None
    blocks = None
    slots = None


@lru_cache(maxsize=64)
def build_attn_mask(h: int, w: int, m: int, s: int) -> AttnMask:
    """Additive per-window mask for a shifted pass, [HW/m^2, m^2, m^2].

    Pixels are labelled by which pre-shift region they came from; the
    bands split each axis at {0, H-m, H-s}. Token pairs from different
    regions get MASK_VALUE so softmax drives their weight below 1e-8
    while staying finite and differentiable; the attention core adds the
    -inf ``blocks`` instead and gives them weight 0. Shift 0 gives an
    all-zero mask. Cached, together with ``windows``, ``blocks`` and
    ``slots``.
    """
    if s not in (0, m // 2):
        raise ValueError(f"shift must be 0 or {m // 2}, got {s}")
    region = np.zeros((h, w), dtype=np.int64)
    if s:
        bands = (slice(0, h - m), slice(h - m, h - s), slice(h - s, h))
        bands_w = (slice(0, w - m), slice(w - m, w - s), slice(w - s, w))
        rid = 0
        for bh in bands:
            for bw in bands_w:
                region[bh, bw] = rid
                rid += 1
    tokens = _partition_np(region, m)
    diff = tokens[:, :, None] - tokens[:, None, :]
    mask = np.where(diff != 0, np.float32(MASK_VALUE), np.float32(0.0)).view(AttnMask)
    mask.windows = np.flatnonzero(mask.any(axis=(1, 2)))
    masked = np.asarray(mask)[mask.windows, None].swapaxes(-1, -2) != 0
    mask.blocks = np.where(masked, np.float32(-np.inf), np.float32(0.0))
    mask.slots = np.full(len(mask), -1, dtype=np.int64)
    mask.slots[mask.windows] = np.arange(len(mask.windows))
    for part in (mask, mask.blocks, mask.slots):
        part.setflags(write=False)
    return mask
