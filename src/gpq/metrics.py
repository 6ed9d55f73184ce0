"""Reconstruction fidelity metrics: RMSE, mean row cosine, and top-k
nearest-neighbor overlap under cosine similarity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embio import EmbeddingMatrix
from .errors import DataError

_BLOCK_BYTES = 1 << 24  # bytes of float64 similarities per block of rows


@dataclass(frozen=True)
class FidelityReport:
    rmse: float
    mean_cosine: float
    nn_overlap_at_k: float
    k: int

    def to_dict(self) -> dict:
        return {
            "rmse": self.rmse,
            "mean_cosine": self.mean_cosine,
            "nn_overlap_at_k": self.nn_overlap_at_k,
            "k": self.k,
        }


def _topk_neighbors(values: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the k most cosine-similar other rows, per row, most
    similar first. Ties resolve to the lower row index.

    Rows are scored in blocks of about _BLOCK_BYTES of float64
    similarities (at least one row), so no temporary grows with V^2.
    argpartition picks k candidates per row; a row with more than k
    similarities at or above its k-th value has a tie the partition may
    have cut arbitrarily, and only such rows are re-ranked by a stable
    argsort.
    """
    x = values.astype(np.float64)
    norms = np.linalg.norm(x, axis=1)
    norms[norms == 0.0] = 1.0
    unit = x / norms[:, None]
    v = unit.shape[0]
    step = max(1, _BLOCK_BYTES // (8 * v))
    out = np.empty((v, k), dtype=np.intp)
    for lo in range(0, v, step):
        # -cos, exactly, so ascending order is most similar first. The
        # negated block is a new array, so numpy never takes its syrk path
        # for an array times its own transpose: syrk does not round every
        # entry alike, and duplicate rows would stop tying.
        neg = (-unit[lo:lo + step]) @ unit.T
        np.fill_diagonal(neg[:, lo:], np.inf)  # never one's own neighbour
        pick = np.argpartition(neg, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(neg, pick[:, k - 1:], axis=1)
        tied = np.count_nonzero(neg <= kth, axis=1) > k
        if tied.any():
            pick[tied] = np.argsort(neg[tied], axis=1, kind="stable")[:, :k]
        score = np.take_along_axis(neg, pick, axis=1)
        order = np.lexsort((pick, score), axis=1)
        out[lo:lo + step] = np.take_along_axis(pick, order, axis=1)
    return out


def fidelity(e: EmbeddingMatrix, r: EmbeddingMatrix, k: int) -> FidelityReport:
    """Compare a reconstruction r against the original e."""
    if e.values.shape != r.values.shape:
        raise DataError(
            f"shape mismatch: {e.values.shape} vs {r.values.shape}")
    if not 1 <= k < e.rows:
        raise DataError(f"k={k} out of range [1, {e.rows})")

    a = e.values.astype(np.float64)
    b = r.values.astype(np.float64)
    rmse = float(np.sqrt(np.mean((a - b) ** 2)))

    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = na * nb
    denom[denom == 0.0] = 1.0
    mean_cosine = float(np.mean(np.sum(a * b, axis=1) / denom))

    nn_a = _topk_neighbors(e.values, k)
    nn_b = _topk_neighbors(r.values, k)
    # each row lists k distinct indices, so a shared index is an adjacent
    # equal pair once both lists are sorted together
    both = np.sort(np.concatenate((nn_a, nn_b), axis=1), axis=1)
    shared = np.count_nonzero(both[:, 1:] == both[:, :-1], axis=1)
    overlap = np.mean(shared / k)
    return FidelityReport(rmse, mean_cosine, float(overlap), k)
