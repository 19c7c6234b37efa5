"""Training losses.

Super-resolution trains with the plain L1 pixel loss; denoising and
compression-artifact reduction use the Charbonnier loss
sqrt(diff^2 + eps^2), which stays differentiable at zero residual,
applied per element and averaged.
"""
from __future__ import annotations

from dataclasses import dataclass

from .tensor import Tensor, abs_, mean, sqrt

DEFAULT_CHARBONNIER_EPS = 1e-3


@dataclass(frozen=True)
class LossConfig:
    kind: str = "l1"                        # "l1" or "charbonnier"
    epsilon: float = DEFAULT_CHARBONNIER_EPS

    def __post_init__(self):
        if self.kind not in ("l1", "charbonnier"):
            raise ValueError(f"unknown loss {self.kind!r}")
        if self.epsilon <= 0:
            raise ValueError("charbonnier epsilon must be positive")


def _check_shapes(pred: Tensor, target: Tensor) -> None:
    if pred.shape != target.shape:
        raise ValueError(f"loss shape mismatch: {pred.shape} vs {target.shape}")


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference."""
    _check_shapes(pred, target)
    return mean(abs_(pred - target))


def charbonnier_loss(pred: Tensor, target: Tensor,
                     eps: float = DEFAULT_CHARBONNIER_EPS) -> Tensor:
    """sqrt(diff^2 + eps^2), averaged per element."""
    _check_shapes(pred, target)
    if eps <= 0:
        raise ValueError("eps must be positive")
    diff = pred - target
    return mean(sqrt(diff * diff + eps * eps))


def loss_for_task(task: str) -> LossConfig:
    """Task binding: L1 for sr, Charbonnier for denoise and car."""
    return LossConfig(kind="l1") if task == "sr" else LossConfig(kind="charbonnier")


def compute_loss(cfg: LossConfig, pred: Tensor, target: Tensor) -> Tensor:
    if cfg.kind == "l1":
        return l1_loss(pred, target)
    return charbonnier_loss(pred, target, eps=cfg.epsilon)
