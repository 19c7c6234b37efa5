"""Batch command-line front end.

Subcommands: degrade, train, infer, eval, gradcheck, inspect. Exit codes:
0 success, 2 usage or validation error, 3 data or integrity error,
4 numeric failure. Unknown flags are errors. degrade and train take
--seed; when omitted, a seed is drawn from system entropy and printed so
the run can be reproduced. gradcheck takes --seed too, 0 by default.
"""
from __future__ import annotations

import argparse
import math
import os
import secrets
import sys
from dataclasses import asdict
from typing import Dict, Optional

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .degrade import DegradationSpec, degrade_image
from .imageio import (ImageBuffer, ImageFormatError, image_paths, load_image,
                      read_image_shape, read_manifest, save_image)
from .metrics import SSIM_MIN_SIDE, eval_pair
from .model import SwinIRConfig, param_count, tiny_config
from .train import (PairDataset, TrainConfig, gradcheck,
                    make_validation_pairs, psnr_border, restore_image, train)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# -- config files ----------------------------------------------------------

# every config file key with its default, by section; a value parses by
# the type of its default
CONFIG_KEYS: Dict[str, Dict[str, object]] = {
    "model": asdict(SwinIRConfig()),
    "training": asdict(TrainConfig()),
    # training degradation strength: noise sigma for denoise, DCT
    # quantization quality for car
    "degradation": {"sigma": 25.0, "quality": 40},
}
CONFIG_DEFAULTS = {k: v for keys in CONFIG_KEYS.values() for k, v in keys.items()}


def _parse_value(default: object, val: str) -> object:
    if isinstance(default, bool):
        if val.lower() not in ("true", "false", "0", "1"):
            raise ValueError("expected a boolean")
        return val.lower() in ("true", "1")
    value = type(default)(val)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def parse_config_file(path: str) -> Dict[str, object]:
    """Flat ``key = value`` lines; # starts a comment."""
    values: Dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_DATA)
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}",
                           EXIT_USAGE)
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in CONFIG_DEFAULTS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}", EXIT_USAGE)
        try:
            values[key] = _parse_value(CONFIG_DEFAULTS[key], val)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {exc}", EXIT_USAGE)
    return values


def _check_memory(model_cfg: SwinIRConfig, train_cfg: TrainConfig) -> None:
    """Refuse, before anything is allocated, a config whose run cannot fit
    in physical memory. 32 bytes per parameter hold train's float32
    weights, gradients and Adam moments, and gradcheck's float64 weights
    and gradients; one float32 training batch adds its LQ and HQ patches.
    The keys of the larger share are named, those above their defaults if
    any are. Skipped where the platform cannot tell its memory size."""
    try:
        limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    params = 32 * param_count(model_cfg)
    batch = 4 * train_cfg.batch_size * train_cfg.patch_size ** 2 \
        * (model_cfg.in_channels + model_cfg.scale ** 2 * model_cfg.out_channels)
    if limit <= 0 or params + batch <= limit:
        return
    if params >= batch:
        cfg, keys = model_cfg, ("channels", "rstb_count", "stl_per_rstb",
                                "window", "heads", "mlp_ratio")
    else:
        cfg, keys = train_cfg, ("batch_size", "patch_size")
    keys = [k for k in keys if getattr(cfg, k) > CONFIG_DEFAULTS[k]] or keys
    named = ", ".join(f"{k} = {getattr(cfg, k)}" for k in keys)
    raise CliError(f"invalid configuration: a run needs about {(params + batch) / 2**30:,.1f} "
                   f"GiB of memory ({params / 2**30:,.1f} GiB of parameters, "
                   f"{batch / 2**30:,.1f} GiB for one batch), more than the machine's "
                   f"{limit / 2**30:,.1f} GiB; reduce {named}", EXIT_USAGE)


def build_configs(values: Dict[str, object]) -> tuple[SwinIRConfig, TrainConfig]:
    """The model and training configs of a config file's values, checked,
    and refused if a run would not fit in memory (``_check_memory``)."""
    model_kwargs = {k: v for k, v in values.items() if k in CONFIG_KEYS["model"]}
    train_kwargs = {k: v for k, v in values.items() if k in CONFIG_KEYS["training"]}
    try:
        model_cfg = SwinIRConfig(**model_kwargs)
        train_cfg = TrainConfig(**train_kwargs)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}", EXIT_USAGE)
    _check_memory(model_cfg, train_cfg)
    return model_cfg, train_cfg


def _config_help() -> str:
    lines = ["config file keys (flat 'key = value', # comments):"]
    for section, keys in CONFIG_KEYS.items():
        lines.append(f"  {section}:")
        lines += [f"    {key} (default {default!r})" for key, default in keys.items()]
    return "\n".join(lines)


# -- shared helpers ----------------------------------------------------------

def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    print(f"seed {seed}")
    return seed


def _task_degradation(task: str, scale: int, sigma: float, quality: int,
                      seed: int) -> DegradationSpec:
    """The degradation that synthesizes a task's low-quality inputs."""
    if task == "sr":
        return DegradationSpec(kind="bicubic", scale=scale, seed=seed)
    if task == "denoise":
        return DegradationSpec(kind="gaussian_noise", sigma=sigma, seed=seed)
    return DegradationSpec(kind="dct_quantize", quality=quality, seed=seed)


def _gather_inputs(path: str) -> list[str]:
    if os.path.isdir(path):
        found = image_paths(path)
        if not found:
            raise CliError(f"no PGM/PPM images under {path}", EXIT_DATA)
        return found
    if not os.path.exists(path):
        raise CliError(f"no such file: {path}", EXIT_DATA)
    return [path]


def _check_out(path: str, directory: bool) -> None:
    """Refuse, before any work, an output that cannot be written: a file
    needs an existing, writable directory and must not be a directory
    itself; a directory must be one already or be creatable under its
    nearest existing ancestor. Creates nothing."""
    if directory:
        target = os.path.abspath(path)
        while not os.path.exists(target):
            target = os.path.dirname(target)
    elif os.path.isdir(path):
        raise CliError(f"cannot write {path}: it is a directory", EXIT_DATA)
    else:
        target = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(target):
        raise CliError(f"cannot write {path}: {target} is not a directory", EXIT_DATA)
    if not os.access(target, os.W_OK | os.X_OK):
        raise CliError(f"cannot write {path}: {target} is not writable", EXIT_DATA)


def _inputs_and_out(args, check) -> list[tuple[str, str]]:
    """(input, output) path pairs, --out checked first, then every input by
    ``check(path, height, width, channels)`` from its header alone, so that
    a bad input stops the command before anything is written: for a
    directory or several inputs, --out is a directory, created here, of
    the same names."""
    inputs = _gather_inputs(getattr(args, "in"))
    many = len(inputs) > 1 or os.path.isdir(getattr(args, "in"))
    _check_out(args.out, directory=many)
    for path in inputs:
        check(path, *_read(read_image_shape, path))
    if not many:
        return [(inputs[0], args.out)]
    os.makedirs(args.out, exist_ok=True)
    return [(p, os.path.join(args.out, os.path.basename(p))) for p in inputs]


def _read(load, path: str):
    """``load(path)``; a file that cannot be read or parsed is a data error."""
    try:
        return load(path)
    except ImageFormatError as exc:
        raise CliError(str(exc), EXIT_DATA)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_DATA)


def _load_images(path: str) -> list[tuple[str, ImageBuffer]]:
    """(path, image) of every image a directory, manifest or file names."""
    if os.path.isfile(path) and not path.lower().endswith((".pgm", ".ppm")):
        names = _read(read_manifest, path)
        if not names:
            raise CliError(f"{path}: the manifest names no image", EXIT_DATA)
    else:
        names = _gather_inputs(path)
    return [(p, _read(load_image, p)) for p in names]


def _check_channels(cfg: SwinIRConfig, channels: int, path: str) -> None:
    """An image of the wrong channel count for the model is a data error."""
    if channels != cfg.in_channels:
        raise CliError(f"{path}: {channels} channels, model expects "
                       f"{cfg.in_channels}", EXIT_DATA)


def _restore(params, img: ImageBuffer, path: str) -> ImageBuffer:
    """The restored image; a forward that overflows is a numeric error."""
    _check_channels(params.config, img.channels, path)
    try:
        return restore_image(params, img)
    except FloatingPointError as exc:
        raise CliError(f"{path}: {exc}", EXIT_NUMERIC)


# -- subcommands ------------------------------------------------------------

def cmd_degrade(args) -> int:
    seed = _resolve_seed(args)
    needs = {"sr": "scale", "denoise": "sigma", "car": "quality"}[args.task]
    if getattr(args, needs) is None:
        raise CliError(f"{args.task} degradation needs --{needs}", EXIT_USAGE)
    spec = _task_degradation(args.task, args.scale, args.sigma, args.quality, seed)
    print(f"degradation: {spec.describe()}")

    def check(path, height, width, channels):
        try:
            spec.check_size(height, width)
        except ValueError as exc:       # an image too small for the scale
            raise CliError(f"{path}: {exc}", EXIT_DATA)

    for i, (path, dest) in enumerate(_inputs_and_out(args, check)):
        img = _read(load_image, path)
        save_image(degrade_image(img, spec.for_item(seed, i)), dest)
    return EXIT_OK


def cmd_train(args) -> int:
    values = parse_config_file(args.config)
    if args.seed is not None:
        values["seed"] = args.seed
    elif "seed" not in values:
        values["seed"] = _resolve_seed(args)
    if args.iterations is not None:
        values["iterations"] = args.iterations
    model_cfg, train_cfg = build_configs(values)
    _check_out(args.out, directory=True)
    strength = {**CONFIG_KEYS["degradation"], **values}
    spec = _task_degradation(model_cfg.task, model_cfg.scale, strength["sigma"],
                             strength["quality"], train_cfg.seed)

    hq = _load_images(args.data)
    val = _load_images(args.val) if args.val else []
    # checked here, not at the first step or validation that meets them
    side = train_cfg.patch_size * model_cfg.scale
    for path, img in hq + val:
        _check_channels(model_cfg, img.channels, path)
    for path, img in hq:
        if min(img.height, img.width) < side:
            raise CliError(f"{path}: {img.height}x{img.width} is smaller than the "
                           f"{side}x{side} training patch", EXIT_DATA)
    # validation trims to a multiple of the scale, then crops the border
    border = psnr_border(model_cfg)
    for path, img in val:
        if min(img.height, img.width) // model_cfg.scale * model_cfg.scale <= 2 * border:
            raise CliError(f"{path}: {img.height}x{img.width} leaves no pixels "
                           f"inside the psnr border of {border}", EXIT_DATA)
    dataset = PairDataset(hq_images=[img for _, img in hq], spec=spec)
    val_pairs = make_validation_pairs([img for _, img in val], spec)
    result = train(model_cfg, train_cfg, dataset, val_pairs, out_dir=args.out,
                   resume=args.resume, log=print)
    if result.diverged:
        raise CliError("training diverged; last good checkpoint retained", EXIT_NUMERIC)
    return EXIT_OK


def cmd_infer(args) -> int:
    params = load_checkpoint(args.ckpt)

    def check(path, height, width, channels):
        _check_channels(params.config, channels, path)

    for path, dest in _inputs_and_out(args, check):
        save_image(_restore(params, _read(load_image, path), path), dest)
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.border < 0:
        raise CliError("--border must be >= 0", EXIT_USAGE)
    params = load_checkpoint(args.ckpt) if args.ckpt else None
    lq_by_name = {os.path.basename(p): p for p in _gather_inputs(args.lq_dir)}
    hq_by_name = {os.path.basename(p): p for p in _gather_inputs(args.hq_dir)}
    unmatched = sorted(lq_by_name.keys() ^ hq_by_name.keys())
    if unmatched:
        side = "--lq-dir" if unmatched[0] in lq_by_name else "--hq-dir"
        raise CliError(f"{unmatched[0]} in {side} has no image of the same name "
                       f"in the other directory", EXIT_DATA)
    names = sorted(lq_by_name)
    name_w = max(len(name) for name in names)
    print(f"{'image':<{name_w}}  {'psnr':>9}  {'ssim':>7}")
    psnrs, ssims = [], []
    for name in names:
        lp, hp = lq_by_name[name], hq_by_name[name]
        lq, hq = _read(load_image, lp), _read(load_image, hp)
        restored = _restore(params, lq, lp) if params else lq
        if restored.data.shape != hq.data.shape:
            raise CliError(f"{lp}{' restored' if params else ''}: shape "
                           f"{restored.data.shape} does not match {hp}: "
                           f"{hq.data.shape}", EXIT_DATA)
        if min(hq.height, hq.width) - 2 * args.border < SSIM_MIN_SIDE:
            raise CliError(f"{hp}: {hq.height}x{hq.width} leaves fewer than "
                           f"{SSIM_MIN_SIDE} pixels a side for the ssim window "
                           f"after a border of {args.border}", EXIT_DATA)
        p, s = eval_pair(restored, hq, border=args.border)
        psnrs.append(p)
        ssims.append(s)
        print(f"{name:<{name_w}}  {p:>9.4f}  {s:>7.4f}")
    print(f"{'mean':<{name_w}}  {float(np.mean(psnrs)):>9.4f}  "
          f"{float(np.mean(ssims)):>7.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.config:
        model_cfg, _ = build_configs(parse_config_file(args.config))
    else:
        # two layers, so the second runs shifted and the mask is checked
        model_cfg = tiny_config(stl_per_rstb=2, channels=4)
    report = gradcheck(model_cfg, tolerance=args.tolerance, seed=args.seed)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_NUMERIC


def cmd_inspect(args) -> int:
    params = load_checkpoint(args.ckpt)
    total = 0
    for name, t in params.named():
        dims = "x".join(str(d) for d in t.shape)
        print(f"{name:<40} {dims:>16} {t.size:>10}")
        total += t.size
    cfg = params.config
    print(f"task {cfg.task} scale {cfg.scale} channels {cfg.channels} "
          f"blocks {cfg.rstb_count}x{cfg.stl_per_rstb} window {cfg.window}")
    print(f"total parameters {total}")
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swinir",
        description="Windowed-transformer image restoration toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrade", help="synthesize a low-quality image",
                       description="Apply a degradation to PGM/PPM images.")
    p.add_argument("--task", required=True, choices=("sr", "denoise", "car"))
    p.add_argument("--scale", type=int, choices=(2, 3, 4))
    p.add_argument("--sigma", type=float)
    p.add_argument("--quality", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--in", required=True, help="input image or directory")
    p.add_argument("--out", required=True, help="output image or directory")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("train", help="train a model",
                       description="Train on a directory (or manifest) of HQ images.",
                       epilog=_config_help(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--data", required=True, help="training images dir or manifest")
    p.add_argument("--val", help="validation images dir or manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--iterations", type=int,
                   help="override config iterations; the learning-rate "
                        "halvings follow this count, so a resumed run matches "
                        "an uninterrupted one only with the same iterations")
    p.add_argument("--resume", help="last.ckpt of an earlier run to resume "
                                    "from; its model config must match")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="restore images with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", required=True, help="input image or directory")
    p.add_argument("--out", required=True, help="output image or directory")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="PSNR/SSIM of restored images",
                       description="Pairs images of the same file name. "
                                   "Without --ckpt, compares inputs directly.")
    p.add_argument("--ckpt", help="checkpoint; omit to score --lq-dir as-is")
    p.add_argument("--lq-dir", required=True)
    p.add_argument("--hq-dir", required=True)
    p.add_argument("--border", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--config", help="model config file (default: built-in tiny, "
                                    "one block of a plain and a shifted layer)")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect", help="list checkpoint parameters")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, CheckpointError) as exc:   # the latter names its file
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_DATA)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
