"""Evaluation metrics: PSNR, SSIM, and the BT.601 luma conversion.

Both metrics follow the benchmark conventions: inputs are quantized to
8 bits (round half away from zero), an optional border is cropped from
all sides, and SR evaluation runs on the luma channel of color images.
"""
from __future__ import annotations

import math

import numpy as np

from .imageio import ImageBuffer, quantize_u8

SSIM_WINDOW = 11
SSIM_MIN_SIDE = (SSIM_WINDOW + 1) // 2     # the symmetric padding's limit
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
DYNAMIC_RANGE = 255.0


def _as255(img: ImageBuffer) -> np.ndarray:
    """[H, W, C] float64 on the 0..255 scale after 8-bit quantization."""
    return quantize_u8(img.data).astype(np.float64)


def _crop(arr: np.ndarray, border: int) -> np.ndarray:
    if border == 0:
        return arr
    if border < 0 or 2 * border >= min(arr.shape[0], arr.shape[1]):
        raise ValueError(f"border {border} leaves no pixels")
    return arr[border:-border, border:-border]


def psnr(pred: ImageBuffer, target: ImageBuffer, border: int = 0) -> float:
    """10 log10(255^2 / MSE) in dB; identical images give +inf."""
    a = _crop(_as255(pred), border)
    b = _crop(_as255(target), border)
    if a.shape != b.shape:
        raise ValueError(f"psnr dimension mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(DYNAMIC_RANGE * DYNAMIC_RANGE / mse)


def _gaussian_kernel() -> np.ndarray:
    half = (SSIM_WINDOW - 1) / 2.0
    x = np.arange(SSIM_WINDOW, dtype=np.float64) - half
    g = np.exp(-0.5 * (x / SSIM_SIGMA) ** 2)
    k = np.outer(g, g)
    return k / k.sum()


def _filter2_same(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """2-d correlation, same size, symmetric (edge-repeating) padding."""
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    padded = np.pad(img, ((ph, ph), (pw, pw)), mode="symmetric")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw))
    return np.einsum("ijkl,kl->ij", windows, kernel)


def ssim(pred: ImageBuffer, target: ImageBuffer, border: int = 0) -> float:
    """Mean local SSIM in [-1, 1] over the cropped region.

    Gaussian 11x11 window (sigma 1.5), K1=0.01, K2=0.03, dynamic range
    255. Color inputs are averaged per channel. The symmetric padding
    needs at least half a window of image on each side.
    """
    a = _crop(_as255(pred), border)
    b = _crop(_as255(target), border)
    if a.shape != b.shape:
        raise ValueError(f"ssim dimension mismatch: {a.shape} vs {b.shape}")
    if min(a.shape[0], a.shape[1]) < SSIM_MIN_SIDE:
        raise ValueError(
            f"image {a.shape[0]}x{a.shape[1]} smaller than the ssim window supports")
    kernel = _gaussian_kernel()
    c1 = (SSIM_K1 * DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * DYNAMIC_RANGE) ** 2
    vals = []
    for ch in range(a.shape[2]):
        x, y = a[:, :, ch], b[:, :, ch]
        mu_x = _filter2_same(x, kernel)
        mu_y = _filter2_same(y, kernel)
        var_x = _filter2_same(x * x, kernel) - mu_x * mu_x
        var_y = _filter2_same(y * y, kernel) - mu_y * mu_y
        cov = _filter2_same(x * y, kernel) - mu_x * mu_y
        num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        vals.append(float(np.mean(num / den)))
    return float(np.mean(vals))


def rgb_to_y(img: ImageBuffer) -> ImageBuffer:
    """BT.601 luma of an rgb image: Y = 65.481 R + 128.553 G + 24.966 B + 16
    for unit-range channels, i.e. the 16..235 range on the 8-bit scale."""
    if img.channels != 3:
        raise ValueError(f"rgb_to_y needs 3 channels, got {img.channels}")
    r, g, b = img.data[:, :, 0], img.data[:, :, 1], img.data[:, :, 2]
    y255 = 65.481 * r + 128.553 * g + 24.966 * b + 16.0
    return ImageBuffer((y255 / 255.0).astype(np.float32), color="ycbcr")


def eval_pair(pred: ImageBuffer, target: ImageBuffer,
              border: int = 0) -> tuple[float, float]:
    """(PSNR, SSIM) with the SR convention: color pairs compare on luma."""
    if pred.channels == 3 and target.channels == 3:
        pred, target = rgb_to_y(pred), rgb_to_y(target)
    return psnr(pred, target, border), ssim(pred, target, border)
