"""Seedable 64-bit random generator used everywhere randomness is needed.

The generator is SplitMix64: the k-th draw after seeding is
``mix64(seed + (k+1) * GAMMA)``, a pure function of (seed, k). That makes
draws vectorizable as a counter sequence and bit-reproducible across
platforms, which the degradation pipeline and trainer rely on. Gaussian
variates come from the Box-Muller transform.
"""
from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive(seed: int, *labels: int) -> int:
    """Derive a child seed from a root seed and integer labels.

    Used to give each image / each training step its own independent
    stream without consuming draws from the parent.
    """
    z = seed & MASK64
    for lab in labels:
        z = mix64(z ^ mix64(lab & MASK64))
    return z


def _mix_array(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based SplitMix64 stream.

    ``state`` is the running counter; it advances by GAMMA per draw, so a
    block of n draws is computed in one vectorized pass.
    """

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit draws as a uint64 array. One draw takes the
        integer finalizer: the same value, without numpy's per-call cost."""
        if n == 1:
            self.state = (self.state + GAMMA) & MASK64
            return np.array([mix64(self.state)], dtype=np.uint64)
        ks = np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            counters = np.uint64(self.state) + ks * np.uint64(GAMMA)
        self.state = (self.state + n * GAMMA) & MASK64
        return _mix_array(counters)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform in [0, 1)."""
        return (self.u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def integers(self, n: int, low: int, high: int) -> np.ndarray:
        """n integers uniform in [low, high). Modulo reduction; the bias is
        negligible for the image-coordinate ranges this is used for."""
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        span = np.uint64(high - low)
        return (self.u64(n) % span).astype(np.int64) + low

    def normal(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller."""
        m = (n + 1) // 2
        # +1 on the mantissa bits keeps u1 strictly positive for the log
        u1 = ((self.u64(m) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (self.u64(m) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def truncated_normal(self, n: int, std: float = 1.0, bound: float = 2.0) -> np.ndarray:
        """n samples of N(0, std^2) conditioned on |z| <= bound (in units of std)."""
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            cand = self.normal(n - filled)
            keep = cand[np.abs(cand) <= bound]
            out[filled : filled + keep.size] = keep
            filled += keep.size
        return out * std
