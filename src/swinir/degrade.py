"""Low-quality image synthesis and training-pair sampling.

Three degradations: bicubic downscaling (Keys kernel a=-0.5, support
widened by the scale factor on downscale so it antialiases), i.i.d.
Gaussian noise on the 0..255 scale, and a codec-free compression
surrogate that quantizes 8x8 DCT blocks with the standard luminance
table. Entropy coding never changes pixel values, so the surrogate
produces the same blocking and ringing artifacts a real encoder does.

Everything here is a deterministic function of (input, spec, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .imageio import ImageBuffer
from .rng import SplitMix64, derive


@dataclass(frozen=True)
class DegradationSpec:
    kind: str                 # "bicubic" | "gaussian_noise" | "dct_quantize"
    scale: int = 1
    sigma: float = 0.0
    quality: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("bicubic", "gaussian_noise", "dct_quantize"):
            raise ValueError(f"unknown degradation {self.kind!r}")
        if self.kind == "bicubic" and self.scale < 2:
            raise ValueError("bicubic degradation needs scale >= 2")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")
        if not 1 <= self.quality <= 100:
            raise ValueError("quality must be in [1, 100]")

    def describe(self) -> str:
        if self.kind == "bicubic":
            return f"bicubic scale={self.scale}"
        if self.kind == "gaussian_noise":
            return f"gaussian_noise sigma={self.sigma:g} seed={self.seed}"
        return f"dct_quantize quality={self.quality}"

    def for_item(self, seed: int, *labels: int) -> "DegradationSpec":
        """The spec for one image or crop of many: Gaussian noise draws from
        ``derive(seed, *labels)``, so each item gets its own noise; the other
        kinds draw nothing and come back unchanged."""
        if self.kind != "gaussian_noise":
            return self
        return replace(self, seed=derive(seed, *labels))

    def check_size(self, height: int, width: int) -> None:
        """Refuse (ValueError) an image too small for this degradation."""
        if self.kind == "bicubic" and min(height, width) < self.scale:
            raise ValueError("image smaller than the downscale factor")


# -- bicubic resampling ---------------------------------------------------

def _keys(x: np.ndarray) -> np.ndarray:
    """Keys cubic kernel, a = -0.5."""
    ax = np.abs(x)
    ax2, ax3 = ax * ax, ax * ax * ax
    near = 1.5 * ax3 - 2.5 * ax2 + 1.0
    far = -0.5 * (ax3 - 5.0 * ax2 + 8.0 * ax - 4.0)
    return np.where(ax <= 1.0, near, np.where(ax < 2.0, far, 0.0))


@lru_cache(maxsize=8)
def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """[n_out, n_in] row-stochastic cubic interpolation weights.

    Downscaling widens the kernel support by in/out (antialiasing);
    out-of-range taps clamp to the edge sample. Read-only and cached for
    the last few sizes only: a matrix is dense, 8·n_in·n_out bytes.
    """
    ratio = n_in / n_out
    width = max(1.0, ratio)
    centers = (np.arange(n_out, dtype=np.float64) + 0.5) * ratio - 0.5
    lo = np.floor(centers - 2.0 * width).astype(np.int64)
    taps = int(np.ceil(4.0 * width)) + 2
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    for t in range(taps):
        j = lo + t
        w = _keys((j - centers) / width) / width
        np.add.at(mat, (np.arange(n_out), np.clip(j, 0, n_in - 1)), w)
    mat /= mat.sum(axis=1, keepdims=True)
    mat.setflags(write=False)
    return mat


def bicubic_resize(img: ImageBuffer, out_h: int, out_w: int) -> ImageBuffer:
    """Separable cubic-convolution resample to (out_h, out_w)."""
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bad target size {out_h}x{out_w}")
    data = img.data.astype(np.float64)
    wh = _resize_matrix(img.height, out_h)
    ww = _resize_matrix(img.width, out_w)
    out = np.einsum("hi,iwc->hwc", wh, data)
    out = np.einsum("wj,hjc->hwc", ww, out)
    return ImageBuffer(np.clip(out, 0.0, 1.0).astype(np.float32), color=img.color)


# -- gaussian noise -------------------------------------------------------

def add_gaussian_noise(img: ImageBuffer, sigma: float, seed: int) -> ImageBuffer:
    """Add N(0, sigma^2) per pixel on the 0..255 scale, clipped to the
    valid range, for stored low-quality images and training pairs alike."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return ImageBuffer(img.data.copy(), color=img.color)
    rng = SplitMix64(seed)
    noise = rng.normal(img.data.size).reshape(img.data.shape)
    out = np.clip(img.data.astype(np.float64) * 255.0 + sigma * noise, 0.0, 255.0)
    return ImageBuffer((out / 255.0).astype(np.float32), color=img.color)


# -- blockwise DCT quantization -------------------------------------------

# Annex-K luminance quantization table
_BASE_QTABLE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99]], dtype=np.float64)


def quant_table(quality: int) -> np.ndarray:
    """Luminance table scaled by the Annex-K quality rule, clamped [1, 255]."""
    if not 1 <= quality <= 100:
        raise ValueError("quality must be in [1, 100]")
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    table = np.floor((_BASE_QTABLE * scale + 50.0) / 100.0)
    return np.clip(table, 1.0, 255.0)


def _dct_matrix() -> np.ndarray:
    k = np.arange(8)[:, None]
    n = np.arange(8)[None, :]
    d = np.cos(np.pi * (2 * n + 1) * k / 16.0) * np.sqrt(2.0 / 8.0)
    d[0, :] = np.sqrt(1.0 / 8.0)
    return d


_DCT = _dct_matrix()


def dct_quantize_degrade(img: ImageBuffer, quality: int) -> ImageBuffer:
    """Per 8x8 block: level shift, 2-d DCT-II, quantize, dequantize, invert.

    No entropy coding; see the module docstring.
    """
    table = quant_table(quality)
    data = img.data.astype(np.float64) * 255.0
    h, w, c = data.shape
    ph = (8 - h % 8) % 8
    pw = (8 - w % 8) % 8
    padded = np.pad(data, ((0, ph), (0, pw), (0, 0)), mode="edge")
    hh, ww = padded.shape[0], padded.shape[1]
    # [H/8, W/8, C, 8, 8] block view
    blocks = padded.reshape(hh // 8, 8, ww // 8, 8, c).transpose(0, 2, 4, 1, 3)
    coef = _DCT @ (blocks - 128.0) @ _DCT.T
    coef = np.round(coef / table) * table
    rec = _DCT.T @ coef @ _DCT + 128.0
    out = rec.transpose(0, 3, 1, 4, 2).reshape(hh, ww, c)[:h, :w]
    return ImageBuffer(np.clip(out / 255.0, 0.0, 1.0).astype(np.float32),
                       color=img.color)


# -- dispatch and pair sampling -------------------------------------------

def degrade_image(img: ImageBuffer, spec: DegradationSpec) -> ImageBuffer:
    spec.check_size(img.height, img.width)
    if spec.kind == "bicubic":
        return bicubic_resize(img, img.height // spec.scale,
                              img.width // spec.scale)
    if spec.kind == "gaussian_noise":
        return add_gaussian_noise(img, spec.sigma, spec.seed)
    return dct_quantize_degrade(img, spec.quality)


def _augment(arr: np.ndarray, flip: bool, rot: int) -> np.ndarray:
    if flip:
        arr = arr[:, ::-1]
    return np.rot90(arr, rot)


def degrade_pair(hq_img: ImageBuffer,
                 spec: DegradationSpec) -> tuple[ImageBuffer, ImageBuffer]:
    """(lq, hq): the image trimmed to a multiple of the downscale factor, so
    the lq and hq grids align exactly, and its degradation."""
    r = spec.scale if spec.kind == "bicubic" else 1
    th = (hq_img.height // r) * r
    tw = (hq_img.width // r) * r
    hq = hq_img if (th, tw) == (hq_img.height, hq_img.width) else \
        ImageBuffer(hq_img.data[:th, :tw], color=hq_img.color)
    return degrade_image(hq, spec), hq


def crop_pair(lq: ImageBuffer, hq: ImageBuffer, patch: int,
              seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Aligned (lq, hq) float32 crops of a ``degrade_pair`` result, with
    identical flip/rotation: an lq crop of size patch and the hq crop of
    size patch*r at the corresponding position, all drawn from ``seed``."""
    r = hq.height // lq.height
    if lq.height < patch or lq.width < patch:
        raise ValueError(
            f"image {hq.height}x{hq.width} smaller than {patch * r} patch")
    rng = SplitMix64(seed)
    max_y = lq.height - patch
    max_x = lq.width - patch
    y = int(rng.integers(1, 0, max_y + 1)[0])
    x = int(rng.integers(1, 0, max_x + 1)[0])
    flip = bool(rng.u64(1)[0] & np.uint64(1))
    rot = int(rng.u64(1)[0] % np.uint64(4))

    lq_patch = lq.data[y:y + patch, x:x + patch]
    hq_patch = hq.data[y * r:(y + patch) * r, x * r:(x + patch) * r]
    return (np.ascontiguousarray(_augment(lq_patch, flip, rot)),
            np.ascontiguousarray(_augment(hq_patch, flip, rot)))


def sample_patch_pair(hq_img: ImageBuffer, spec: DegradationSpec, patch: int,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Aligned (lq, hq) float32 crops: the whole image is degraded first
    (``degrade_pair``), then cropped (``crop_pair``)."""
    return crop_pair(*degrade_pair(hq_img, spec), patch, seed)


# -- procedural textures ----------------------------------------------------

def procedural_texture(seed: int, height: int, width: int,
                       channels: int = 1) -> ImageBuffer:
    """Synthetic training image: a smooth ramp plus random sharp shapes
    (bars, disks, checkers). Edge-heavy on purpose; edges are where a
    learned upsampler separates itself from plain interpolation."""
    rng = SplitMix64(derive(seed, 0x7E47))
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)

    def u(lo=0.0, hi=1.0):
        return lo + (hi - lo) * float(rng.uniform(1)[0])

    img = np.zeros((height, width), dtype=np.float64)
    theta = u(0, np.pi)
    img += u(0.2, 0.8) + u(-0.3, 0.3) * (
        (np.cos(theta) * xs + np.sin(theta) * ys) / max(height, width))

    for _ in range(int(rng.integers(1, 2, 5)[0])):
        kind = int(rng.integers(1, 0, 3)[0])
        level = u(0.05, 0.95)
        if kind == 0:       # oriented hard-edged bars
            th = u(0, np.pi)
            period = u(6, 18)   # stays above Nyquist after a 2x downscale
            phase = u(0, period)
            stripe = np.cos(th) * xs + np.sin(th) * ys
            mask = ((stripe + phase) % period) < period * u(0.3, 0.7)
        elif kind == 1:     # disk
            cy, cx = u(0, height), u(0, width)
            rad = u(min(height, width) * 0.1, min(height, width) * 0.4)
            mask = (ys - cy) ** 2 + (xs - cx) ** 2 < rad * rad
        else:               # axis-aligned checker
            period = max(4, int(u(4, 12)))
            mask = ((ys // period + xs // period) % 2).astype(bool)
        blend = u(0.5, 1.0)
        img = np.where(mask, (1 - blend) * img + blend * level, img)

    img = np.clip(img, 0.0, 1.0).astype(np.float32)
    if channels == 3:
        tint = 0.75 + 0.25 * rng.uniform(3)
        img = np.stack([img * t for t in tint], axis=2).astype(np.float32)
        return ImageBuffer(np.clip(img, 0, 1), color="rgb")
    return ImageBuffer(img, color="gray")
