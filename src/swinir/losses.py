"""Training losses.

Super-resolution trains with the plain L1 pixel loss; denoising and
compression-artifact reduction use the Charbonnier loss
sqrt(diff^2 + eps^2), which stays differentiable at zero residual,
applied per element and averaged.
"""
from __future__ import annotations

from .tensor import Tensor, abs_, mean, sqrt

CHARBONNIER_EPS = 1e-3


def _check_shapes(pred: Tensor, target: Tensor) -> None:
    if pred.shape != target.shape:
        raise ValueError(f"loss shape mismatch: {pred.shape} vs {target.shape}")


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference."""
    _check_shapes(pred, target)
    return mean(abs_(pred - target))


def charbonnier_loss(pred: Tensor, target: Tensor) -> Tensor:
    """sqrt(diff^2 + eps^2) with eps = ``CHARBONNIER_EPS``, averaged per
    element."""
    _check_shapes(pred, target)
    diff = pred - target
    return mean(sqrt(diff * diff + CHARBONNIER_EPS * CHARBONNIER_EPS))


def loss_for_task(task: str) -> str:
    """Task binding: L1 for sr, Charbonnier for denoise and car."""
    return "l1" if task == "sr" else "charbonnier"


def compute_loss(kind: str, pred: Tensor, target: Tensor) -> Tensor:
    """The loss ``kind``, "l1" or "charbonnier"."""
    if kind == "l1":
        return l1_loss(pred, target)
    if kind == "charbonnier":
        return charbonnier_loss(pred, target)
    raise ValueError(f"unknown loss {kind!r}")
