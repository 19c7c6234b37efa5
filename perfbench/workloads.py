"""Workload definitions shared by the timed worker and the checker.

Every input is a pure function of the seed: procedural textures from
``degrade.procedural_texture``, degraded with ``degrade.degrade_image``.
Functions of the program are looked up on their modules at call time, so
that a traced run sees these calls too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from swinir import degrade, train
from swinir.degrade import DegradationSpec
from swinir.model import SwinIRConfig, car_config, lightweight_sr_config
from swinir.rng import derive
from swinir.train import TrainConfig


@dataclass(frozen=True)
class InferWorkload:
    """One op does what ``swinir infer`` does for one image: load_image,
    restore_image, save_image."""
    config: Callable[[], SwinIRConfig]
    hq_side: int
    channels: int
    degradation: DegradationSpec
    inputs: int = 2          # distinct images, used in turn

    @property
    def out_side(self) -> int:
        cfg = self.config()
        lq_side = self.hq_side // self.degradation.scale \
            if self.degradation.kind == "bicubic" else self.hq_side
        return lq_side * (cfg.scale if cfg.task == "sr" else 1)

    @property
    def suffix(self) -> str:
        return ".ppm" if self.channels == 3 else ".pgm"

    def input_image(self, seed: int, index: int):
        hq = degrade.procedural_texture(derive(seed, 0x1A, index),
                                        self.hq_side, self.hq_side,
                                        self.channels)
        return degrade.degrade_image(hq, self.degradation)


@dataclass(frozen=True)
class TrainWorkload:
    """One op is one training step; steps run in fixed-length ``train``
    calls that validate and write checkpoints ``validations`` times."""
    config: Callable[[], SwinIRConfig]
    hq_side: int = 96
    train_images: int = 16
    val_images: int = 4
    steps: int = 64
    validations: int = 4
    batch_size: int = 8
    patch_size: int = 16
    lr: float = 0.0015

    @property
    def degradation(self) -> DegradationSpec:
        return DegradationSpec("bicubic", scale=self.config().scale)

    def train_config(self, seed: int, steps: Optional[int] = None) -> TrainConfig:
        steps = self.steps if steps is None else steps
        return TrainConfig(iterations=steps, batch_size=self.batch_size,
                           patch_size=self.patch_size, lr=self.lr,
                           val_period=max(1, steps // self.validations),
                           seed=seed)

    def train_hq(self, seed: int):
        return [degrade.procedural_texture(derive(seed, 0x2A, i),
                                           self.hq_side, self.hq_side, 1)
                for i in range(self.train_images)]

    def val_pairs(self, seed: int):
        hq = [degrade.procedural_texture(derive(seed, 0x3A, i),
                                         self.hq_side, self.hq_side, 1)
              for i in range(self.val_images)]
        return train.make_validation_pairs(hq, self.degradation)

    @property
    def out_pixels_per_step(self) -> int:
        side = self.patch_size * self.config().scale
        return self.batch_size * side * side


def toy_sr_config() -> SwinIRConfig:
    """The README toy config: sr x2, C=16, 2x2 layers, window 4, 4 heads."""
    return SwinIRConfig(task="sr", scale=2, in_channels=1, out_channels=1,
                        channels=16, rstb_count=2, stl_per_rstb=2, window=4,
                        heads=4).validate()


WORKLOADS = {
    "infer-sr-lightweight": InferWorkload(
        config=lambda: lightweight_sr_config(2, 3), hq_side=256, channels=3,
        degradation=DegradationSpec("bicubic", scale=2)),
    "infer-car-classical": InferWorkload(
        config=lambda: car_config(1), hq_side=64, channels=1,
        degradation=DegradationSpec("dct_quantize", quality=20)),
    "train-sr-toy": TrainWorkload(config=toy_sr_config),
}
