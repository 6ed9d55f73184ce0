"""Reconstruction fidelity metrics: RMSE, mean row cosine, and top-k
nearest-neighbor overlap under cosine similarity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embio import EmbeddingMatrix
from .errors import DataError

_BLOCK_BYTES = 1 << 24  # rows per block: as many as this many bytes of float64 scores hold


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
    similar first, by float64 cosine. Ties resolve to the lower row index.

    Rows are screened in blocks of _BLOCK_BYTES // (8 V) rows (at least
    one), so no temporary grows with V^2. float32 only screens: every
    column of a row's float64 top k, ties included, survives it. A row
    with few survivors re-scores just those in float64; the others (zero
    rows, many duplicates) are scored against every column by _rank_all,
    gathered over all blocks.
    """
    unit = values.astype(np.float64)
    norms = np.linalg.norm(unit, axis=1)
    norms[norms == 0.0] = 1.0
    unit /= norms[:, None]
    unit32 = unit.astype(np.float32)
    v, d = unit.shape
    # With ε = 2**-24, the float32 score s32 of two unit rows' binary32
    # roundings errs from their float64 score s64 by e <= expm1((d + 2)ε)
    # plus d·2**-53: each coordinate rounds once to binary32, a binary32
    # dot product in any summation order has at most d roundings on any
    # path, and the float64 one errs by at most d·2**-53. If B is at least
    # the row's k-th least s32, each of its k least s64 has s64 <= B + e
    # (k columns have s32 <= B), so s32 <= B + 2e, ties included. The
    # float32 sum B + slack rounds down by at most ε·|B + slack|.
    # 2·expm1((d + 6)ε), about (d + 6)·2**-23, covers both for d <= 2**29.
    slack = np.float32(2 * math.expm1((d + 6) * 2.0 ** -24))
    step = max(1, _BLOCK_BYTES // (8 * v))
    out = np.empty((v, k), dtype=np.intp)
    many = []
    for lo in range(0, v, step):
        count, few, rows, cols = _screen(unit32, lo, step, k, slack)
        out[lo + np.flatnonzero(few)] = _rank_survivors(unit, lo + rows, cols, count[few], k)
        many.append(lo + np.flatnonzero(~few))
    many = np.concatenate(many)
    for lo in range(0, len(many), step):
        out[many[lo:lo + step]] = _rank_all(unit, many[lo:lo + step], k)
    return out


def _screen(unit32: np.ndarray, lo: int, step: int, k: int, slack: np.float32):
    """For rows lo:lo + step: how many other columns (at least k) have a
    float32 -cos at most B + slack, where B, the k-th smallest of the
    row's minima over groups of columns, is at least the row's k-th
    smallest -cos; which rows have few enough to re-score (count·d <= V,
    so re-scoring holds no more than _rank_all would); and their columns
    as ascending (row, column) pairs."""
    v, d = unit32.shape
    neg = (-unit32[lo:lo + step]) @ unit32.T  # -cos: most similar first
    np.fill_diagonal(neg[:, lo:], np.inf)  # never one's own neighbour
    # column j joins group j % g, g about V/16: a pass of minima, then a
    # partition of g values instead of V
    g = max(k, v // 16)
    mins = neg[:, :g * (v // g)].reshape(len(neg), -1, g).min(axis=1)
    keep = neg <= (np.partition(mins, k - 1, axis=1)[:, k - 1] + slack)[:, None]
    np.fill_diagonal(keep[:, lo:], False)  # a group of the diagonal alone has B = inf
    flat = np.flatnonzero(keep)
    count = np.diff(np.searchsorted(flat, v * np.arange(len(neg) + 1)))
    few = count * d <= v
    return count, few, *np.divmod(flat[np.repeat(few, count)], v)


def _rank_survivors(unit: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    count: np.ndarray, k: int) -> np.ndarray:
    """Top k of each row's survivors by float64 cos, ties to the lower
    column. (rows, cols) lists the survivors in ascending order, `count`
    per row. Each score is an elementwise product and a last-axis sum,
    whose order is fixed by d alone, so duplicate rows tie."""
    prod = unit[cols]
    prod *= unit[rows]
    order = np.lexsort((cols, -prod.sum(axis=1), rows))
    first = np.cumsum(count) - count
    return cols[order[first[:, None] + np.arange(k)]]


def _rank_all(unit: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Top k of `rows` against every row by float64 -cos and a stable
    argsort, so ties go to the lower index. Duplicate rows tie only if
    gemm rounds every score alike, so a lone row goes in twice: numpy
    would hand it to gemv, whose column blocking rounds copies apart, as
    syrk would (unit[rows] is a new array, so numpy never picks syrk)."""
    neg = (-unit[np.resize(rows, max(2, len(rows)))]) @ unit.T
    neg = neg[:len(rows)]
    neg[np.arange(len(rows)), rows] = np.inf
    return np.argsort(neg, axis=1, kind="stable")[:, :k]


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
