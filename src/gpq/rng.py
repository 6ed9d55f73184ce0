"""Seeded, counter-based pseudorandom generation.

Everything random in this package flows through splitmix64 so that results
are reproducible from a single 64-bit seed and independent of call order
(the stream is a pure function of (seed, counter)).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# 2^-53; uniforms live on a 53-bit grid like IEEE doubles
_INV_2_53 = 1.0 / 9007199254740992.0


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of the uint64 array z, in place; returns z.
    uint64 array arithmetic wraps mod 2^64 by design, and numpy raises no
    warning on it."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def check_seed(seed: int) -> int:
    """seed, if it is in [0, 2**64); else a DataError. Every stream and hash
    here checks its seed, so none is taken mod 2**64 to alias one in range."""
    if not 0 <= seed < 2**64:
        raise DataError(f"seed {seed} does not fit unsigned 64 bits")
    return seed


def derive_seed(seed: int, *parts: int) -> int:
    """Derive a child seed from a base seed and integer labels.

    Used for per-group and per-restart streams so concurrent work is
    schedule-independent.
    """
    h = np.array([check_seed(seed)], dtype=np.uint64)
    for p in parts:
        h += _GOLDEN * (p + 1) % 2**64  # gamma p + gamma, summed as a Python int
        mix64(h)
    return int(mix64(h)[0])


def row_hashes(points: np.ndarray, seed: int) -> np.ndarray:
    """64-bit content hash of each row of a float64 matrix.

    Identical rows hash identically, so ordering rows by hash does not
    depend on their input order.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    bits = pts.view(np.uint64)
    h = mix64(np.full(pts.shape[0], check_seed(seed), dtype=np.uint64))
    for j in range(pts.shape[1]):
        h ^= bits[:, j]
        mix64(h)
    return h


class SplitMix64:
    """Counter-based splitmix64 stream with uniform and Gaussian output."""

    def __init__(self, seed: int):
        self._seed = check_seed(seed)
        self._ctr = 0

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1), from counters ctr + 1 ... ctr + n."""
        bits = np.arange(self._ctr + 1, self._ctr + n + 1, dtype=np.uint64)
        self._ctr += n
        bits *= _GOLDEN
        bits += self._seed
        mix64(bits)
        bits >>= np.uint64(11)
        return bits.astype(np.float64) * _INV_2_53

    def normals(self, n: int) -> np.ndarray:
        """n standard normal deviates via the Box-Muller transform."""
        k = (n + 1) // 2
        u1 = self.uniforms(k) + _INV_2_53  # in (0, 1], safe for log; exact
        u2 = self.uniforms(k)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * k, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]
