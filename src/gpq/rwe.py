"""Random word embeddings: row-normalized standard-Gaussian matrices,
plus initialization of the optional linear projection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embio import EmbeddingMatrix
from .errors import DataError
from .rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class RweConfig:
    rows: int
    cols: int
    seed: int
    projection_dim: int | None = None

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DataError(f"invalid shape {self.rows}x{self.cols}")
        if self.projection_dim is not None and self.projection_dim < 1:
            raise DataError("projection_dim must be >= 1")
        for n, m in ((self.rows, self.cols), (self.cols, self.projection_dim or 1)):
            if n * m > np.iinfo(np.intp).max:
                raise DataError(f"a {n}x{m} matrix has more elements than numpy can index")


def rwe_generate(cfg: RweConfig) -> EmbeddingMatrix:
    """Sample an i.i.d. N(0,1) matrix and normalize each row to unit L2
    norm. Deterministic per seed; zero-norm rows (measure zero) are
    resampled from the same stream."""
    rng = SplitMix64(cfg.seed)
    s = rng.normals(cfg.rows * cfg.cols).reshape(cfg.rows, cfg.cols)
    norms = np.linalg.norm(s, axis=1)
    while np.any(norms == 0.0):
        for i in np.flatnonzero(norms == 0.0):
            s[i] = rng.normals(cfg.cols)
        norms = np.linalg.norm(s, axis=1)
    return EmbeddingMatrix((s / norms[:, None]).astype(np.float32))


def projection_init(n: int, m: int, seed: int) -> np.ndarray:
    """Glorot-uniform n x m projection matrix, exported for external
    trainers; not trained here."""
    if n < 1 or m < 1:
        raise DataError("projection dimensions must be >= 1")
    bound = math.sqrt(6.0 / (n + m))
    rng = SplitMix64(derive_seed(seed, n, m))
    u = rng.uniforms(n * m).reshape(n, m)
    return ((2.0 * u - 1.0) * bound).astype(np.float32)


def rwe_param_counts(cfg: RweConfig) -> dict:
    """Float parameters of the generator itself (Gaussian mean and
    variance) plus the projection's n*m when configured."""
    proj = cfg.cols * cfg.projection_dim if cfg.projection_dim else 0
    return {
        "float_params": 2 + proj,
        "int_params": 0,
        "baseline_bits": cfg.rows * cfg.cols * 32,
    }
