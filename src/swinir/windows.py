"""Window partition/reverse, cyclic shift, padding, and attention masks.

Features move through the attention layers as [N, H, W, C] tensors. A
window pass reshapes that into HW/M^2 groups of M^2 tokens; both the
window order over the tile grid and the token order inside a window are
row-major, and the relative-position bias tables depend on that choice.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .tensor import Tensor, getitem, permute, reshape, roll, take


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


class AttnMask(NamedTuple):
    """Shifted-window mask in the form the attention core adds it.

    Only the last row and the last column of windows straddle a pre-shift
    region boundary. ``blocks``, read-only [3, 1, m^2, m^2] float32 (the 1
    broadcasts over heads), holds -inf for token pairs from different
    regions and 0 elsewhere, so masked pairs get weight exactly 0; its
    patterns cut a window's rows (0, the last window row), its columns
    (1, the last window column) or both (2, the corner), each at local
    index m - s. Every pattern is symmetric. ``slots``, read-only [nW],
    gives each row-major window its pattern, or -1 if it is unmasked."""
    slots: np.ndarray
    blocks: np.ndarray


@lru_cache(maxsize=64)
def build_attn_mask(h: int, w: int, m: int, s: int) -> AttnMask:
    """Mask for a pass of m x m windows over an h x w grid shifted by s.

    Shift 0 masks nothing: every slot is -1. Cached.
    """
    if s not in (0, m // 2):
        raise ValueError(f"shift must be 0 or {m // 2}, got {s}")
    grid = WindowGrid(h, w, m)
    late = np.arange(m) >= m - s            # local rows/cols of the last band
    rows, cols = np.repeat(late, m), np.tile(late, m)
    row_cut = rows[:, None] != rows[None, :]
    col_cut = cols[:, None] != cols[None, :]
    cuts = np.stack([row_cut, col_cut, row_cut | col_cut])[:, None]
    blocks = np.where(cuts, np.float32(-np.inf), np.float32(0.0))
    slots = np.full((grid.windows_per_col, grid.windows_per_row), -1, dtype=np.int64)
    if s:
        slots[-1, :] = 0
        slots[:, -1] = 1
        slots[-1, -1] = 2
    slots = slots.reshape(-1)
    for part in (slots, blocks):
        part.setflags(write=False)
    return AttnMask(slots, blocks)
