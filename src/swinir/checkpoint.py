"""Binary checkpoint format.

Layout, all integers little-endian:

    magic           4 bytes  "SWIR"
    version         u32      currently 1
    config block    13 x i32 (see _CONFIG_FIELDS; mlp_ratio stored as
                             round(ratio * 1000), enums as indices,
                             booleans as 0/1)
    param count     u32      number of parameter records
    per parameter:
        name length u16, then UTF-8 name
        rank        u8
        dims        u64 each
        data        float32 raw, row-major
    checksum        u32      CRC-32 of every preceding byte

The parameter order is the canonical ``ModelParams.named()`` walk, so a
file is byte-reproducible from (config, parameter values).
"""
from __future__ import annotations

import math
import os
import struct
import zlib
from typing import Dict

import numpy as np

from .model import (HEAD_STYLES, TASKS, ModelParams, SwinIRConfig,
                    init_params)
from .tensor import Tensor

MAGIC = b"SWIR"
VERSION = 1

_CONFIG_FIELDS = ("task", "scale", "in_channels", "out_channels", "channels",
                  "rstb_count", "stl_per_rstb", "window", "heads",
                  "mlp_ratio", "head_style", "head_channels", "rstb_residual")


class CheckpointError(Exception):
    """Unreadable, corrupt, or inconsistent checkpoint file."""


def _config_ints(cfg: SwinIRConfig) -> list[int]:
    return [TASKS.index(cfg.task), cfg.scale, cfg.in_channels,
            cfg.out_channels, cfg.channels, cfg.rstb_count, cfg.stl_per_rstb,
            cfg.window, cfg.heads, int(round(cfg.mlp_ratio * 1000)),
            HEAD_STYLES.index(cfg.head_style), cfg.head_channels,
            int(cfg.rstb_residual)]


def _config_from_ints(vals: list[int]) -> SwinIRConfig:
    try:
        return SwinIRConfig(
            task=TASKS[vals[0]], scale=vals[1], in_channels=vals[2],
            out_channels=vals[3], channels=vals[4], rstb_count=vals[5],
            stl_per_rstb=vals[6], window=vals[7], heads=vals[8],
            mlp_ratio=vals[9] / 1000.0, head_style=HEAD_STYLES[vals[10]],
            head_channels=vals[11], rstb_residual=bool(vals[12])).validate()
    except (IndexError, ValueError) as exc:
        raise CheckpointError(f"invalid config block: {exc}") from None


def serialize(params: ModelParams) -> bytes:
    named = list(params.named())
    parts = [MAGIC, struct.pack("<I", VERSION)]
    parts.append(struct.pack(f"<{len(_CONFIG_FIELDS)}i",
                             *_config_ints(params.config)))
    parts.append(struct.pack("<I", len(named)))
    for name, tensor in named:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", tensor.ndim))
        parts.append(struct.pack(f"<{tensor.ndim}Q", *tensor.shape))
        parts.append(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Write through a temporary file and rename, so a crash never leaves
    a half-written checkpoint at ``path``."""
    blob = serialize(params)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def _parse_body(body: bytes) -> tuple[SwinIRConfig, Dict[str, np.ndarray]]:
    off = 4
    (version,) = struct.unpack_from("<I", body, off)
    off += 4
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    n_fields = len(_CONFIG_FIELDS)
    vals = list(struct.unpack_from(f"<{n_fields}i", body, off))
    off += 4 * n_fields
    cfg = _config_from_ints(vals)
    (count,) = struct.unpack_from("<I", body, off)
    off += 4

    flat: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", body, off)
        off += 2
        name = body[off:off + name_len].decode("utf-8")
        off += name_len
        (rank,) = struct.unpack_from("<B", body, off)
        off += 1
        dims = struct.unpack_from(f"<{rank}Q", body, off)
        off += 8 * rank
        n = math.prod(dims)
        arr = np.frombuffer(body, dtype="<f4", count=n, offset=off)
        off += 4 * n
        flat[name] = arr.reshape(dims).astype(np.float32)
    if off != len(body):
        raise CheckpointError(f"{len(body) - off} trailing bytes after parameters")
    return cfg, flat


def deserialize(blob: bytes) -> ModelParams:
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    body, stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) != stored:
        raise CheckpointError("checksum mismatch, refusing to load")
    try:
        cfg, flat = _parse_body(body)
    except (struct.error, ValueError, UnicodeDecodeError, OverflowError) as exc:
        # records that run past the end of the body, a name that is not
        # UTF-8, or dims whose product no buffer can hold
        raise CheckpointError(f"malformed checkpoint body: {exc}") from None

    params = init_params(cfg, seed=0)
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
        if not np.isfinite(flat[name]).all():
            raise CheckpointError(f"{name}: non-finite values")
        tensor.data = np.ascontiguousarray(flat[name])
    return params


def load_checkpoint(path: str) -> ModelParams:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from None
    return deserialize(blob)
