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


def _header_tokens(fh, count: int) -> list[bytes]:
    """``count`` whitespace-separated header tokens, skipping # comments.
    Reads one byte past the last token: the single whitespace byte that
    ends the header."""
    tokens = []
    c = fh.read(1)
    while len(tokens) < count:
        if c.isspace():
            c = fh.read(1)
        elif c == b"#":
            fh.readline()
            c = fh.read(1)
        else:
            token = bytearray()
            while c and not c.isspace():
                token += c
                c = fh.read(1)
            if not token:
                raise ImageFormatError("truncated header")
            tokens.append(bytes(token))
    return tokens


def _read_header(fh, path: str) -> tuple[int, int, int]:
    """(height, width, channels) of a binary PGM (P5) or PPM (P6) file,
    maxval 255, leaving ``fh`` at the payload. The payload must run to the
    end of the file: one file holds one image."""
    magic = fh.read(2)
    if len(magic) < 2:
        raise ImageFormatError(f"{path}: not a netpbm file")
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"{path}: unsupported magic {magic!r}")
    try:
        tokens = _header_tokens(fh, 3)
    except ImageFormatError as exc:
        raise ImageFormatError(f"{path}: malformed header ({exc})") from None
    # ASCII digits only: int() would also take a sign or underscores
    bad = [t for t in tokens if not t.isdigit()]
    if bad:
        raise ImageFormatError(f"{path}: malformed header (not a decimal "
                               f"number: {bad[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:      # more digits than int() converts
        raise ImageFormatError(f"{path}: malformed header (a number of "
                               f"{max(map(len, tokens))} digits)") from None
    if maxval != 255:
        raise ImageFormatError(f"{path}: unsupported maxval {maxval} (need 255)")
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: bad dimensions {width}x{height}")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    if have < need:
        raise ImageFormatError(
            f"{path}: truncated payload ({have} of {need} bytes)")
    if have > need:
        raise ImageFormatError(f"{path}: {have - need} bytes after the "
                               f"{need}-byte payload (one file holds one image)")
    return height, width, channels


def read_image_shape(path: str) -> tuple[int, int, int]:
    """(height, width, channels) of an image file, refused as ``load_image``
    would refuse it, from its header and size alone."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_image(path: str) -> ImageBuffer:
    """Read a binary PGM (P5) or PPM (P6) file, maxval 255."""
    with open(path, "rb") as fh:
        height, width, channels = _read_header(fh, path)
        payload = fh.read(height * width * channels)
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return ImageBuffer(arr, color="gray" if channels == 1 else "rgb")


@contextlib.contextmanager
def atomic_path(path: str):
    """Yield ``path + ".tmp"`` to write, then rename it over ``path``; if the
    block or the rename fails, remove it and leave ``path`` as it was.

    This holds when the process dies, not when the machine loses power:
    neither the file nor its directory is fsynced, so on some file systems
    a power loss soon after the rename can leave an old or empty file."""
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
