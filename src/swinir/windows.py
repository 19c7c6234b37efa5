"""Window order, padding, and attention masks.

A window pass groups the H x W tokens of a (cyclically shifted) image
into HW/M^2 windows of M^2 tokens; both the window order over the tile
grid and the token order inside a window are row-major, and the
relative-position bias tables depend on that choice. Inside a residual
block the tokens stay rows of [N, H*W, C] in the window order of the
current layer's shift, and ``reorder`` moves them to the next layer's
order with one row gather. ``cyclic_shift``, ``window_partition``,
``window_reverse`` and ``unshift`` spell out the same order on
[N, H, W, C] images. ``AttnMask`` alone knows which windows a shift masks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .tensor import Tensor, gather_rows, getitem, permute, reshape, roll, take


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
    def num_windows(self) -> int:
        return (self.height // self.window) * (self.width // self.window)


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


def _window_rows(grid: WindowGrid, s: Optional[int]) -> np.ndarray:
    """Image-order (row-major) index of each row in the window order of
    shift ``s``, the order of ``window_partition(cyclic_shift(x, s), m)``;
    None stands for image order."""
    h, w, m = grid.height, grid.width, grid.window
    if s is None:
        return np.arange(h * w)
    rows = (np.arange(h) + s) % h
    cols = (np.arange(w) + s) % w
    image = rows[:, None] * w + cols
    return image.reshape(h // m, m, w // m, m).transpose(0, 2, 1, 3).reshape(-1)


@lru_cache(maxsize=64)
def row_gather(grid: WindowGrid, src: Optional[int],
               dst: Optional[int]) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(index, inverse) for ``tensor.gather_rows`` that take the rows of
    ``grid`` from order ``src`` to order ``dst``, each a shift (window
    order) or None (image order); None when the two orders agree. Cached,
    read-only."""
    a, b = _window_rows(grid, src), _window_rows(grid, dst)
    if np.array_equal(a, b):
        return None
    inv_a, inv_b = np.empty_like(a), np.empty_like(b)
    inv_a[a] = inv_b[b] = np.arange(a.size)
    index, inverse = inv_a[b], inv_b[a]
    for part in (index, inverse):
        part.setflags(write=False)
    return index, inverse


def reorder(x: Tensor, grid: WindowGrid, src: Optional[int],
            dst: Optional[int]) -> Tensor:
    """Rows of [N, H*W, C] from order ``src`` to order ``dst`` (see
    ``row_gather``): one gather, or none."""
    perm = row_gather(grid, src, dst)
    return x if perm is None else gather_rows(x, *perm)


class AttnMask(NamedTuple):
    """Shifted-window mask, which the attention core adds with ``add_to``.

    Only the last row and the last column of windows straddle a pre-shift
    region boundary. ``row`` and ``col``, read-only [1, m^2, m^2] float32
    (the 1 broadcasts over heads), hold -inf for token pairs that a cut at
    local row (``row``) or column (``col``) m - s separates and 0
    elsewhere, so masked pairs get weight exactly 0; both are symmetric.
    The corner window gets both. ``per_row`` and ``per_image`` count the
    grid's windows, and ``first`` is the row-major index, over the batch,
    of the first window that a call passes."""
    row: np.ndarray
    col: np.ndarray
    per_row: int
    per_image: int
    first: int = 0

    def add_to(self, e: np.ndarray) -> None:
        """Add the mask in place to scores [windows, heads, m^2, m^2] of
        windows ``first``, ``first`` + 1, ... by basic slices, no copy."""
        r, p, lo = self.per_row, self.per_image, self.first
        e[(r - 1 - lo) % r::r] += self.col
        # an image's last window row starts at local index top, < 0 if lo is in it
        for top in range(p - r - lo % p, len(e), p):
            e[max(top, 0):top + r] += self.row


@lru_cache(maxsize=64)
def build_attn_mask(h: int, w: int, m: int, s: int) -> AttnMask:
    """Mask for a pass of m x m windows over an h x w grid shifted by s.

    Shift 0 masks nothing: both blocks are 0. Cached.
    """
    if s not in (0, m // 2):
        raise ValueError(f"shift must be 0 or {m // 2}, got {s}")
    grid = WindowGrid(h, w, m)
    late = np.arange(m) >= m - s            # local rows/cols of the last band
    blocks = [np.where(band[:, None] != band, np.float32(-np.inf), np.float32(0.0))[None]
              for band in (np.repeat(late, m), np.tile(late, m))]
    for block in blocks:
        block.setflags(write=False)
    return AttnMask(*blocks, w // m, grid.num_windows)
