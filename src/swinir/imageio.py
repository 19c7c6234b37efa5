"""Raster image container and binary PGM/PPM (P5/P6) reading and writing.

Images are carried as float32 arrays of shape [H, W, C] with values in
[0, 1]; C is 1 (gray) or 3 (rgb). Files use maxval 255 and round-trip
bit-exactly through the 8-bit quantization.
"""
from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

COLOR_TAGS = ("gray", "rgb", "ycbcr")


class ImageFormatError(Exception):
    """Malformed or unsupported image file."""


@dataclass
class ImageBuffer:
    data: np.ndarray          # [H, W, C] float32 in [0, 1]
    color: str = "gray"

    def __post_init__(self):
        if self.data.ndim == 2:
            self.data = self.data[:, :, None]
        if self.data.ndim != 3 or self.data.shape[2] not in (1, 3):
            raise ValueError(f"bad image shape {self.data.shape}")
        if self.color not in COLOR_TAGS:
            raise ValueError(f"bad color tag {self.color!r}")
        if self.data.dtype == np.uint8:
            self.data = self.data.astype(np.float32) / 255.0
        else:
            self.data = self.data.astype(np.float32)
        if self.height < 1 or self.width < 1:
            raise ValueError("empty image")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def to_u8(self) -> np.ndarray:
        """Quantize to uint8, round half away from zero, clamped to [0, 255]."""
        return quantize_u8(self.data)


def quantize_u8(x: np.ndarray) -> np.ndarray:
    scaled = np.clip(x, 0.0, 1.0).astype(np.float64) * 255.0
    return np.floor(scaled + 0.5).astype(np.uint8)


def _read_header_tokens(blob: bytes, count: int, start: int):
    """Pull whitespace-separated header tokens, skipping # comments."""
    tokens = []
    i = start
    n = len(blob)
    while len(tokens) < count:
        while i < n and blob[i:i + 1].isspace():
            i += 1
        if i < n and blob[i:i + 1] == b"#":
            while i < n and blob[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < n and not blob[j:j + 1].isspace():
            j += 1
        if j == i:
            raise ImageFormatError("truncated header")
        tokens.append(blob[i:j])
        i = j
    return tokens, i


def load_image(path: str) -> ImageBuffer:
    """Read a binary PGM (P5) or PPM (P6) file, maxval 255."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 2:
        raise ImageFormatError(f"{path}: not a netpbm file")
    magic = blob[:2]
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"{path}: unsupported magic {magic!r}")
    try:
        tokens, pos = _read_header_tokens(blob, 3, 2)
        width, height, maxval = (int(t) for t in tokens)
    except (ValueError, ImageFormatError) as exc:
        raise ImageFormatError(f"{path}: malformed header ({exc})") from None
    if maxval != 255:
        raise ImageFormatError(f"{path}: unsupported maxval {maxval} (need 255)")
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: bad dimensions {width}x{height}")
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = blob[pos:pos + need]
    if len(payload) < need:
        raise ImageFormatError(
            f"{path}: truncated payload ({len(payload)} of {need} bytes)")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return ImageBuffer(arr.copy(), color="gray" if channels == 1 else "rgb")


@contextlib.contextmanager
def atomic_path(path: str):
    """Yield ``path + ".tmp"`` to write, then rename it over ``path``; if the
    block or the rename fails, remove it and leave ``path`` as it was."""
    tmp = path + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_image(img: ImageBuffer, path: str) -> None:
    """Write P5 (1 channel) or P6 (3 channels), maxval 255."""
    u8 = img.to_u8()
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(u8.tobytes())


def image_paths(directory: str) -> list[str]:
    """All PGM/PPM files under ``directory``, sorted by name."""
    out = []
    for name in sorted(os.listdir(directory)):
        if name.lower().endswith((".pgm", ".ppm")):
            out.append(os.path.join(directory, name))
    return out


def read_manifest(path: str) -> list[str]:
    """One HQ image path per line; blank lines and # comments ignored.
    Relative paths resolve against the manifest's directory."""
    base = os.path.dirname(os.path.abspath(path))
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            out.append(line if os.path.isabs(line) else os.path.join(base, line))
    return out
