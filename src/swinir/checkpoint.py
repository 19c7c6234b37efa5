"""Binary checkpoint format, for model parameters and for resume state.

Layout, all integers little-endian:

    magic           4 bytes  "SWIR"
    version         u32      1: parameters only; 2: with resume state
    config block    i32 per SwinIRConfig field, in field order (13):
                             SwinIRConfig.to_ints, which stores enums and
                             the boolean as indices and mlp_ratio in
                             thousandths
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

The parameter order is the canonical ``ModelParams.named()`` walk, which a
load requires, so a file is byte-reproducible from (config, parameter
values, resume state).

Save and load stream record by record under a running CRC-32. A save
writes each tensor from its own buffer and holds no copy of the model. A
load checks the config block against the file size before it allocates,
then reads each record into the array it returns: at peak it holds those
arrays (with Adam m and v in version 2) and one finiteness mask.
"""
from __future__ import annotations

import io
import math
import os
import struct
import sys
import zlib
from dataclasses import fields
from typing import BinaryIO, Optional, Tuple

import numpy as np

from .imageio import atomic_path
from .model import ModelParams, SwinIRConfig, build_params, param_count

MAGIC = b"SWIR"
VERSION = 1           # parameters only
STATE_VERSION = 2     # parameters plus resume state

# version, config block, parameter count
_HEADER = f"<I{len(fields(SwinIRConfig))}iI"


class CheckpointError(Exception):
    """Unreadable, corrupt, or inconsistent checkpoint file."""


def _write(fh: BinaryIO, params: ModelParams, state=None) -> None:
    """Stream the file of ``params`` (and ``state``) into ``fh``."""
    named = list(params.named())
    crc = 0

    def put(part) -> None:
        nonlocal crc
        crc = zlib.crc32(part, crc)
        fh.write(part)

    version = VERSION if state is None else STATE_VERSION
    put(MAGIC + struct.pack(_HEADER, version, *params.config.to_ints(), len(named)))
    for name, tensor in named:
        raw = name.encode("utf-8")
        put(struct.pack(f"<H{len(raw)}sB{tensor.ndim}Q", len(raw), raw,
                        tensor.ndim, *tensor.shape))
        put(np.ascontiguousarray(tensor.data, dtype="<f4"))
    if state is not None:
        put(struct.pack("<QQd", state.step, state.rng_state, state.best_psnr))
        put(np.ascontiguousarray(state.m, dtype="<f4"))
        put(np.ascontiguousarray(state.v, dtype="<f4"))
    fh.write(struct.pack("<I", crc))


def serialize(params: ModelParams, state=None) -> bytes:
    """The file bytes of ``params``; a ``train.TrainState`` given as
    ``state`` adds the resume section and makes it a version-2 file."""
    buf = io.BytesIO()
    _write(buf, params, state)
    return buf.getvalue()


def save_checkpoint(params: ModelParams, path: str, state=None) -> None:
    """Write ``path`` through ``imageio.atomic_path``, never half-written."""
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        _write(fh, params, state)


class _Body:
    """A file's bytes between magic and checksum, read under a running CRC."""

    def __init__(self, fh: BinaryIO, size: int):
        self.fh, self.left, self.crc = fh, size, zlib.crc32(MAGIC)

    def fill(self, buf) -> None:
        """Read exactly ``len(buf)`` bytes of the body into ``buf``."""
        n = memoryview(buf).nbytes
        if n > self.left or self.fh.readinto(buf) != n:
            raise CheckpointError("malformed checkpoint body: "
                                  "a record runs past the end of the file")
        self.left -= n
        self.crc = zlib.crc32(buf, self.crc)

    def unpack(self, fmt: str) -> tuple:
        buf = bytearray(struct.calcsize(fmt))
        self.fill(buf)
        return struct.unpack(fmt, buf)

    def floats(self, name: str, out: np.ndarray) -> np.ndarray:
        """Read ``out``'s float32 record in place; refuse NaN and Inf."""
        self.fill(out)
        if sys.byteorder == "big":
            out.byteswap(inplace=True)
        if not np.isfinite(out).all():
            raise CheckpointError(f"{name}: non-finite values")
        return out

    def drain(self) -> None:
        """Run what is left of the body through the CRC, in bounded reads."""
        buf = memoryview(bytearray(min(self.left, 1 << 20)))
        while self.left:
            self.fill(buf[:self.left])


def _parse(body: _Body) -> Tuple[ModelParams, Optional[dict]]:
    version, *ints, count = body.unpack(_HEADER)
    if version not in (VERSION, STATE_VERSION):
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        cfg = SwinIRConfig.from_ints(ints)
    except ValueError as exc:
        raise CheckpointError(f"invalid config block: {exc}") from None
    # refuse a config the file cannot hold before building anything its size
    copies = 1 if version == VERSION else 3      # parameters, Adam m and v
    if 4 * copies * param_count(cfg) > body.left:
        raise CheckpointError(f"config block asks for {param_count(cfg)} "
                              f"parameters, more than the file holds")
    params = build_params(cfg, rng=None)
    named = list(params.named())
    if count != len(named):
        raise CheckpointError(f"malformed checkpoint body: {count} records "
                              f"for a config of {len(named)} parameters")
    for name, tensor in named:               # the canonical order
        (name_len,) = body.unpack("<H")
        raw = body.unpack(f"<{name_len}s")[0]
        (rank,) = body.unpack("<B")
        dims = body.unpack(f"<{rank}Q")
        if (raw, dims) != (name.encode("utf-8"), tensor.shape):
            raise CheckpointError(f"record {raw!r} of shape {dims} where the "
                                  f"config has {name} of shape {tensor.shape}")
        body.floats(name, tensor.data)
    state = None
    if version == STATE_VERSION:
        step, rng_state, best_psnr = body.unpack("<QQd")
        if not best_psnr < math.inf:
            raise CheckpointError(f"best PSNR {best_psnr} is NaN or +inf")
        state = dict(step=step, rng_state=rng_state, best_psnr=best_psnr)
        for key in ("m", "v"):
            state[key] = np.empty(param_count(cfg), dtype=np.float32)
            for name, view in params.views(state[key]).items():
                body.floats(name, view)
    if body.left:
        raise CheckpointError(f"{body.left} trailing bytes")
    return params, state


def _read(fh: BinaryIO) -> Tuple[ModelParams, Optional[dict]]:
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    if size < 16 or fh.read(4) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    body = _Body(fh, size - 8)
    try:
        result, error = _parse(body), None
    except CheckpointError as exc:
        error = exc
    # a file whose CRC fails is refused as such, however else it is malformed
    body.drain()
    if body.crc != struct.unpack("<I", fh.read(4))[0]:
        raise CheckpointError("checksum mismatch, refusing to load")
    if error is not None:
        raise error
    return result


def deserialize(blob: bytes) -> Tuple[ModelParams, Optional[dict]]:
    """The parameters, and for a version-2 file the resume state as a dict
    of ``train.TrainState`` fields (None for version 1)."""
    return _read(io.BytesIO(blob))


def read_checkpoint(path: str) -> Tuple[ModelParams, Optional[dict]]:
    """The parameters and resume state of the file at ``path``, as
    ``deserialize`` gives them; every error names the file."""
    try:
        with open(path, "rb") as fh:
            return _read(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from None
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def load_checkpoint(path: str) -> ModelParams:
    return read_checkpoint(path)[0]
