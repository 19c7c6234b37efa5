"""Binary checkpoint format, for model parameters and for resume state.

Layout, all integers little-endian:

    magic           4 bytes  "SWIR"
    version         u32      1: parameters only; 2: with resume state
    config block    13 x i32 (see _CONFIG_FIELDS; mlp_ratio stored as
                             ratio * 1000, which validate() requires to be
                             whole, enums as indices,
                             booleans as 0/1)
    param count     u32      number of parameter records
    per parameter:
        name length u16, then UTF-8 name
        rank        u8
        dims        u64 each
        data        float32 raw, row-major
    resume state    version 2 only: step u64, sampler RNG state u64, best
                    PSNR f64 (-inf before the first), then Adam m and Adam
                    v as float32 raw, in record order and shapes
    checksum        u32      CRC-32 of every preceding byte

The parameter order is the canonical ``ModelParams.named()`` walk, so a
file is byte-reproducible from (config, parameter values, resume state).
"""
from __future__ import annotations

import math
import os
import struct
import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from .model import (HEAD_STYLES, MLP_RATIO_STEPS, TASKS, ModelParams,
                    SwinIRConfig, build_params, param_count)

MAGIC = b"SWIR"
VERSION = 1           # parameters only
STATE_VERSION = 2     # parameters plus resume state

_CONFIG_FIELDS = ("task", "scale", "in_channels", "out_channels", "channels",
                  "rstb_count", "stl_per_rstb", "window", "heads",
                  "mlp_ratio", "head_style", "head_channels", "rstb_residual")


class CheckpointError(Exception):
    """Unreadable, corrupt, or inconsistent checkpoint file."""


def _config_ints(cfg: SwinIRConfig) -> list[int]:
    return [TASKS.index(cfg.task), cfg.scale, cfg.in_channels,
            cfg.out_channels, cfg.channels, cfg.rstb_count, cfg.stl_per_rstb,
            cfg.window, cfg.heads, round(cfg.mlp_ratio * MLP_RATIO_STEPS),
            HEAD_STYLES.index(cfg.head_style), cfg.head_channels,
            int(cfg.rstb_residual)]


def _config_from_ints(vals: list[int]) -> SwinIRConfig:
    try:
        return SwinIRConfig(
            task=TASKS[vals[0]], scale=vals[1], in_channels=vals[2],
            out_channels=vals[3], channels=vals[4], rstb_count=vals[5],
            stl_per_rstb=vals[6], window=vals[7], heads=vals[8],
            mlp_ratio=vals[9] / MLP_RATIO_STEPS, head_style=HEAD_STYLES[vals[10]],
            head_channels=vals[11], rstb_residual=bool(vals[12])).validate()
    except (IndexError, ValueError) as exc:
        raise CheckpointError(f"invalid config block: {exc}") from None


def serialize(params: ModelParams, state=None) -> bytes:
    """The file bytes of ``params``; a ``train.TrainState`` given as
    ``state`` adds the resume section and makes it a version-2 file."""
    named = list(params.named())
    version = VERSION if state is None else STATE_VERSION
    parts = [MAGIC, struct.pack(f"<I{len(_CONFIG_FIELDS)}iI", version,
                                *_config_ints(params.config), len(named))]
    for name, tensor in named:
        raw = name.encode("utf-8")
        parts.append(struct.pack(f"<H{len(raw)}sB{tensor.ndim}Q", len(raw), raw,
                                 tensor.ndim, *tensor.shape))
        parts.append(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())
    if state is not None:
        parts.append(struct.pack("<QQd", state.step, state.rng_state,
                                 state.best_psnr))
        parts += [np.ascontiguousarray(moments[name], dtype="<f4").tobytes()
                  for moments in (state.m, state.v) for name, _ in named]
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def save_checkpoint(params: ModelParams, path: str, state=None) -> None:
    """Write through a temporary file and rename, so a crash never leaves
    a half-written checkpoint at ``path``."""
    blob = serialize(params, state)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def _parse_body(body: bytes) -> tuple:
    off = 4

    def unpack(fmt: str) -> tuple:
        nonlocal off
        vals = struct.unpack_from(fmt, body, off)
        off += struct.calcsize(fmt)
        return vals

    def floats(name: str, dims) -> np.ndarray:
        nonlocal off
        arr = np.frombuffer(body, dtype="<f4", count=math.prod(dims), offset=off)
        off += arr.nbytes
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{name}: non-finite values")
        return arr.reshape(dims).astype(np.float32)

    version, *vals, count = unpack(f"<I{len(_CONFIG_FIELDS)}iI")
    if version not in (VERSION, STATE_VERSION):
        raise CheckpointError(f"unsupported checkpoint version {version}")
    cfg = _config_from_ints(vals)
    # refuse a config the body cannot hold before building anything its size
    copies = 1 if version == VERSION else 3      # parameters, Adam m and v
    if 4 * copies * param_count(cfg) > len(body) - off:
        raise CheckpointError(f"config block asks for {param_count(cfg)} "
                              f"parameters, more than the file holds")
    flat: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        name = unpack(f"<{name_len}s")[0].decode("utf-8")
        (rank,) = unpack("<B")
        flat[name] = floats(name, unpack(f"<{rank}Q"))
    state = None
    if version == STATE_VERSION:
        step, rng_state, best_psnr = unpack("<QQd")
        if not best_psnr < math.inf:
            raise CheckpointError(f"best PSNR {best_psnr} is NaN or +inf")
        state = dict(step=step, rng_state=rng_state, best_psnr=best_psnr,
                     m={n: floats(n, arr.shape) for n, arr in flat.items()},
                     v={n: floats(n, arr.shape) for n, arr in flat.items()})
    if off != len(body):
        raise CheckpointError(f"{len(body) - off} trailing bytes")
    return cfg, flat, state


def deserialize(blob: bytes) -> Tuple[ModelParams, Optional[dict]]:
    """The parameters, and for a version-2 file the resume state as a dict
    of ``train.TrainState`` fields (None for version 1)."""
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    body, stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) != stored:
        raise CheckpointError("checksum mismatch, refusing to load")
    try:
        cfg, flat, state = _parse_body(body)
    except (struct.error, ValueError, UnicodeDecodeError, OverflowError) as exc:
        # records that run past the end of the body, a name that is not
        # UTF-8, or dims whose product no buffer can hold
        raise CheckpointError(f"malformed checkpoint body: {exc}") from None

    params = build_params(cfg, rng=None)
    expected = dict(params.named())
    if set(expected) != set(flat):
        missing = sorted(set(expected) - set(flat))[:3]
        extra = sorted(set(flat) - set(expected))[:3]
        raise CheckpointError(f"parameter names do not match config "
                              f"(missing {missing}, unexpected {extra})")
    for name, tensor in expected.items():
        if tensor.shape != flat[name].shape:
            raise CheckpointError(
                f"{name}: shape {flat[name].shape} != expected {tensor.shape}")
        tensor.data = flat[name]
    return params, state


def read_checkpoint(path: str) -> Tuple[ModelParams, Optional[dict]]:
    """``deserialize`` of the file at ``path``; every error names the file."""
    try:
        with open(path, "rb") as fh:
            return deserialize(fh.read())
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from None
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def load_checkpoint(path: str) -> ModelParams:
    return read_checkpoint(path)[0]
