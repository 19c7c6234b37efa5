"""Toy-scale training loop, Adam optimizer, and the gradient-check harness.

Every model trains with one optimizer recipe: Adam with beta 0.9/0.999,
and the learning rate halved at 50/75/90% of the run. Loss binding
follows the task: L1 for super-resolution, Charbonnier for denoising and
artifact reduction.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .checkpoint import CheckpointError, read_checkpoint, save_checkpoint
from .degrade import DegradationSpec, crop_pair, degrade_pair
from .imageio import ImageBuffer, atomic_path
from .losses import compute_loss, loss_for_task
from .metrics import psnr
from .model import ModelParams, SwinIRConfig, forward, init_params
from .rng import SplitMix64, derive
from .tensor import Tensor, no_grad


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_MILESTONES = (0.5, 0.75, 0.9)    # fractions of the run
LR_FACTOR = 0.5


class TrainingDiverged(RuntimeError):
    """Loss or gradients went non-finite; the step was aborted."""


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 8
    patch_size: int = 24          # low-quality patch side
    lr: float = 1e-3
    val_period: int = 250
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.iterations < 0 or self.batch_size < 1 or self.patch_size < 1:
            raise ValueError("bad loop sizing")
        if self.val_period < 1:
            raise ValueError("val_period must be at least 1")


@dataclass
class TrainState:
    """Resume state. Adam's moments m and v are one flat buffer each, one
    value per parameter element in the canonical ``ModelParams.named()``
    order, which is the order a checkpoint stores them in;
    ``ModelParams.views`` gives each parameter's part."""
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    rng_state: int = 0
    best_psnr: float = -math.inf

    @classmethod
    def fresh(cls, params: ModelParams, seed: int) -> "TrainState":
        tensors = params.tensors()
        size, dtype = sum(t.size for t in tensors), tensors[0].dtype
        return cls(m=np.zeros(size, dtype), v=np.zeros(size, dtype), step=0,
                   rng_state=SplitMix64(seed).state)


def lr_at(cfg: TrainConfig, step: int) -> float:
    lr = cfg.lr
    for frac in LR_MILESTONES:
        if step >= frac * cfg.iterations:
            lr *= LR_FACTOR
    return lr


def _runs(params: ModelParams) -> List[Tuple[int, int, List[Tensor]]]:
    """(start, stop, tensors) of each longest run of consecutive parameters
    that have a gradient, as offsets into the flat moment buffers."""
    runs, at = [], 0
    for _, t in params.named():
        if t.grad is not None:
            if runs and runs[-1][1] == at:
                runs[-1][1] += t.size
                runs[-1][2].append(t)
            else:
                runs.append([at, at + t.size, [t]])
        at += t.size
    return runs


def adam_step(params: ModelParams, state: TrainState, lr: float) -> None:
    """One bias-corrected Adam update in place; moments live in ``state``.

    The gradients are concatenated once, in the order of the flat moment
    buffers, and each run of parameters with a gradient (all of them, in
    a training step) takes the update in one pass per elementwise step:
    the bits of a loop over the tensors, in about a tenth of the numpy
    calls. Beside the gradients it holds two temporaries of their size.
    A parameter without a gradient, and its moments, are left as they are.

    Raises TrainingDiverged on any non-finite gradient, naming the first
    such parameter and leaving parameters and moments untouched.
    """
    runs = _runs(params)
    g = np.concatenate([t.grad.reshape(-1) for _, _, tensors in runs for t in tensors]
                       or [state.m[:0]])
    if not np.isfinite(g).all():
        name = next(n for n, t in params.named()
                    if t.grad is not None and not np.isfinite(t.grad).all())
        raise TrainingDiverged(f"non-finite gradient in {name} at step {state.step}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    tmp = np.empty((2, g.size), dtype=g.dtype)
    at = 0
    for start, stop, tensors in runs:
        m, v = state.m[start:stop], state.v[start:stop]
        gr, upd, denom = (a[at:at + stop - start] for a in (g, *tmp))
        at += stop - start
        # the per-tensor sequence, each product in its order: m = b1 m +
        # (1 - b1) g, v = b2 v + ((1 - b2) g) g, and the step
        # lr (m / c1) / (sqrt(v / c2) + eps)
        m *= b1
        m += np.multiply(gr, 1.0 - b1, out=upd)
        v *= b2
        np.multiply(gr, 1.0 - b2, out=upd)
        upd *= gr
        v += upd
        np.divide(m, c1, out=upd)
        upd *= lr
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        upd /= denom
        for t in tensors:
            t.data -= upd[:t.size].reshape(t.shape)
            upd = upd[t.size:]


# -- datasets -------------------------------------------------------------


@dataclass
class PairDataset:
    """High-quality images plus the degradation that synthesizes inputs.

    A deterministic degradation (bicubic, DCT) runs at most once per image:
    the trimmed (lq, hq) pair is kept from the first draw of the image and
    every later crop comes from it. Gaussian noise is drawn afresh for each
    crop, so it degrades per crop.
    """
    hq_images: List[ImageBuffer]
    spec: DegradationSpec
    _pairs: Dict[int, Tuple[ImageBuffer, ImageBuffer]] = field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not self.hq_images:
            raise ValueError("dataset is empty")

    def _pair(self, index: int, crop_seed: int) -> Tuple[ImageBuffer, ImageBuffer]:
        if self.spec.kind == "gaussian_noise":
            # fresh noise per crop, still a pure function of the seeds
            return degrade_pair(self.hq_images[index],
                                self.spec.for_item(crop_seed, 0xA01))
        if index not in self._pairs:
            self._pairs[index] = degrade_pair(self.hq_images[index], self.spec)
        return self._pairs[index]

    def sample_batch(self, cfg: TrainConfig, rng: SplitMix64,
                     step: int) -> Tuple[np.ndarray, np.ndarray]:
        lqs, hqs = [], []
        idx = rng.integers(cfg.batch_size, 0, len(self.hq_images))
        for slot in range(cfg.batch_size):
            crop_seed = derive(int(rng.u64(1)[0]), step, slot)
            lq, hq = crop_pair(*self._pair(int(idx[slot]), crop_seed),
                               cfg.patch_size, crop_seed)
            lqs.append(np.moveaxis(lq, 2, 0))
            hqs.append(np.moveaxis(hq, 2, 0))
        return np.stack(lqs), np.stack(hqs)


def make_validation_pairs(hq_images: Sequence[ImageBuffer],
                          spec: DegradationSpec) -> List[Tuple[ImageBuffer, ImageBuffer]]:
    """(lq, hq) per image; hq is trimmed to a multiple of the scale, as
    training crops are, so the restored image matches it in size."""
    return [degrade_pair(hq, spec.for_item(spec.seed, 0x7A1, i))
            for i, hq in enumerate(hq_images)]


def restore_image(params: ModelParams, lq: ImageBuffer) -> ImageBuffer:
    """Run the network on one image, clamped back to an image buffer.
    Raises FloatingPointError if the output holds NaN or Inf, which the
    clamp would otherwise pass off as black or white pixels; the forward
    runs with numpy's overflow and invalid-value warnings off, since this
    check reports them."""
    x = Tensor(np.moveaxis(lq.data, 2, 0)[None])
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        y = forward(params, x)
    if not np.isfinite(y.data).all():
        raise FloatingPointError("the restored image holds NaN or Inf")
    arr = np.clip(np.moveaxis(y.data[0], 0, 2), 0.0, 1.0)
    return ImageBuffer(arr.astype(np.float32), color=lq.color)


def psnr_border(cfg: SwinIRConfig) -> int:
    """Pixels cropped from each side before validation PSNR: the scale for
    super-resolution, none otherwise."""
    return cfg.scale if cfg.task == "sr" else 0


def validation_psnr(params: ModelParams,
                    pairs: Sequence[Tuple[ImageBuffer, ImageBuffer]],
                    border: int) -> float:
    scores = []
    for lq, hq in pairs:
        restored = restore_image(params, lq)
        scores.append(psnr(restored, hq, border=border))
    return float(np.mean(scores))


# -- the loop -------------------------------------------------------------


@dataclass
class TrainResult:
    params: ModelParams
    state: TrainState
    metrics: List[str] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    best_psnr: float = -math.inf
    diverged: bool = False


def _metrics_line(step: int, loss: float, val: float, lr: float) -> str:
    return f"step {step} loss {loss:.6f} psnr {val:.4f} lr {lr:.6g}"


def _cut_log(path: str, step: int) -> None:
    """Drop the lines of the metrics log at ``path`` that name a step after
    ``step``, if it exists: a run that died after logging a validation and
    before saving it resumes from an earlier step and logs it again."""
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    keep = [line for line in lines
            if (m := re.match(r"step (\d+) ", line)) is None or int(m[1]) <= step]
    if keep != lines:
        with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(keep)


def train(model_cfg: SwinIRConfig, train_cfg: TrainConfig,
          dataset: PairDataset,
          val_pairs: Sequence[Tuple[ImageBuffer, ImageBuffer]],
          out_dir: Optional[str] = None,
          resume: Optional[Tuple[ModelParams, TrainState]] = None,
          log: Optional[Callable[[str], None]] = None) -> TrainResult:
    """Optimize a model on synthesized pairs.

    Writes ``last.ckpt`` (with resume state) and ``best.ckpt`` and appends
    to ``metrics.log`` under ``out_dir`` when given. ``resume`` is what
    ``load_train_state`` reads from a ``last.ckpt`` of a model of
    ``model_cfg``; a resume first drops the log's lines after its step. On
    divergence (a non-finite loss, gradient or validation restore) the most
    recent checkpoints are left in place and the result is flagged.
    """
    loss_kind = loss_for_task(model_cfg.task)
    border = psnr_border(model_cfg)

    if resume:
        params, state = resume
    else:
        params = init_params(model_cfg, seed=derive(train_cfg.seed, 0x1817))
        state = TrainState.fresh(params, derive(train_cfg.seed, 0x5EED))
    rng = SplitMix64(state.rng_state)

    result = TrainResult(params=params, state=state, best_psnr=state.best_psnr)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        if resume:
            _cut_log(os.path.join(out_dir, "metrics.log"), state.step)

    def emit(line: str) -> None:
        result.metrics.append(line)
        if log:
            log(line)
        if out_dir:
            with open(os.path.join(out_dir, "metrics.log"), "a",
                      encoding="utf-8") as fh:
                fh.write(line + "\n")

    def save_all(best: bool) -> None:
        # best.ckpt first: a death between the two saves leaves last.ckpt
        # at the previous validation, so a resume replays this step and
        # writes both again
        if not out_dir:
            return
        if best:
            save_checkpoint(params, os.path.join(out_dir, "best.ckpt"))
        state.rng_state = rng.state
        save_train_state(params, state, os.path.join(out_dir, "last.ckpt"))

    def validate(step: int, loss_val: float, lr: float) -> bool:
        """Score, log and save; False, saving nothing, if a restore
        diverged."""
        try:
            val = validation_psnr(params, val_pairs, border) if val_pairs else float("nan")
        except FloatingPointError as exc:
            result.diverged = True
            emit(f"step {step} validation: {exc} ABORT")
            return False
        best = val > result.best_psnr
        if best:
            result.best_psnr = state.best_psnr = val
        emit(_metrics_line(step, loss_val, val, lr))
        save_all(best)
        return True

    if train_cfg.iterations == 0:
        save_all(best=False)
        return result

    for step in range(state.step, train_cfg.iterations):
        lq, hq = dataset.sample_batch(train_cfg, rng, step)
        pred = forward(params, Tensor(lq))
        loss = compute_loss(loss_kind, pred, Tensor(hq))
        last_loss = loss.item()
        if not math.isfinite(last_loss):
            result.diverged = True
            emit(f"step {step + 1} loss nan ABORT")
            return result
        params.zero_grad()
        loss.backward()
        lr = lr_at(train_cfg, step)
        try:
            adam_step(params, state, lr)
        except TrainingDiverged as exc:
            result.diverged = True
            emit(f"step {step + 1} {exc} ABORT")
            return result
        result.losses.append(last_loss)
        if (step + 1) % train_cfg.val_period == 0 or step + 1 == train_cfg.iterations:
            if not validate(step + 1, last_loss, lr):
                return result

    return result


# -- train-state persistence (a version-2 checkpoint) ----------------------


def save_train_state(params: ModelParams, state: TrainState, path: str) -> None:
    save_checkpoint(params, path, state)


def load_train_state(path: str) -> Tuple[ModelParams, TrainState]:
    params, fields = read_checkpoint(path)
    if fields is None:
        raise CheckpointError(f"{path} holds parameters only, no resume state")
    return params, TrainState(**fields)


# -- gradient checking ------------------------------------------------------


@dataclass
class GradcheckReport:
    tolerance: float
    groups: Dict[str, float]        # parameter name -> max relative error

    @property
    def max_error(self) -> float:
        return max(self.groups.values())

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def lines(self) -> List[str]:
        width = max(len(n) for n in self.groups)
        out = [f"{name:<{width}}  {err:.3e}  "
               f"{'ok' if err < self.tolerance else 'FAIL'}"
               for name, err in self.groups.items()]
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"max relative error {self.max_error:.3e} "
                   f"(tolerance {self.tolerance:g}) {verdict}")
        return out


def _rel_err(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return np.abs(a - n) / scale


def gradcheck(model_cfg: SwinIRConfig, tolerance: float = 1e-4,
              seed: int = 0, image_size: int = 8,
              step: float = 1e-4,
              losses: Tuple[str, ...] = ("l1", "charbonnier")) -> GradcheckReport:
    """Full-model analytic gradients vs central finite differences.

    Runs in the float64 shadow mode, parameter by parameter, and reports
    the max relative error (with unit floor) per named parameter over the
    requested losses. The L1 target is offset away from the prediction so
    no difference sits near the non-differentiable tie.
    """
    if not 0 < tolerance < math.inf:     # errors pass below it, and none is below 0
        raise ValueError(f"gradcheck tolerance must be finite and > 0, got {tolerance}")
    rng = SplitMix64(derive(seed, 0x6C))
    params = init_params(model_cfg, seed=derive(seed, 0x1817), dtype=np.float64)
    h = w = image_size
    x = Tensor(rng.uniform(model_cfg.in_channels * h * w)
               .reshape(1, model_cfg.in_channels, h, w))
    out_h = h * model_cfg.scale
    target_base = rng.uniform(model_cfg.out_channels * out_h * out_h) \
        .reshape(1, model_cfg.out_channels, out_h, out_h)

    groups: Dict[str, float] = {}
    for loss_kind in losses:
        offset = 2.0 if loss_kind == "l1" else 0.0
        target = Tensor(target_base + offset)

        def loss_value() -> float:
            with no_grad():
                return compute_loss(loss_kind, forward(params, x), target).item()

        params.zero_grad()
        compute_loss(loss_kind, forward(params, x), target).backward()

        for name, t in params.named():
            analytic = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
            numeric = np.empty_like(t.data)
            flat = t.data.reshape(-1)
            nflat = numeric.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                hi = loss_value()
                flat[i] = keep - step
                lo = loss_value()
                flat[i] = keep
                nflat[i] = (hi - lo) / (2.0 * step)
            err = float(_rel_err(analytic, numeric).max())
            groups[name] = max(groups.get(name, 0.0), err)
    return GradcheckReport(tolerance=tolerance, groups=groups)
