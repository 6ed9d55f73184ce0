"""Reconstruction fidelity metrics: RMSE, mean row cosine, and top-k
nearest-neighbor overlap under cosine similarity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embio import EmbeddingMatrix
from .errors import DataError

_BLOCK_BYTES = 1 << 26  # a row block's float64 scores take at most this many bytes
_SUM_CHUNK = 1 << 16  # values per float64 chunk of the RMSE's sum


@dataclass(frozen=True)
class FidelityReport:
    rmse: float
    mean_cosine: float
    nn_overlap_at_k: float
    k: int


def _block_rows(v: int) -> int:
    """Rows per block against V columns: at most 512, and no more than
    _BLOCK_BYTES of float64 scores hold (at least one). Each block's
    float32 GEMM packs the whole matrix once, so a block needs enough rows
    to amortise that; blocks of over 512 rows were no faster."""
    return max(1, min(512, _BLOCK_BYTES // (8 * v)))


def _topk_neighbors(values: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the k most cosine-similar other rows, per row, most
    similar first, by float64 cosine. Ties resolve to the lower row index.

    Rows are screened in blocks of _block_rows(V) rows, so no temporary
    grows with V^2. Every column of a row's float64 top k, ties included,
    survives the float32 screen, and the float32 order of the survivors is
    the answer where the error bound separates them. Other rows with few
    survivors re-score just those in float64; the rest (zero rows, many
    duplicates) are scored against every column by _rank_all, gathered
    over all blocks.
    """
    v, d = values.shape
    step = _block_rows(v)
    unit = _UnitRows(values, step)
    # With ε = 2**-24, the float32 score s32 of two unit rows' binary32
    # roundings errs from their float64 score s64 by e <= expm1((d + 2)ε)
    # plus d·2**-53: each coordinate rounds once to binary32, a binary32
    # dot product in any summation order has at most d roundings on any
    # path, and the float64 one errs by at most d·2**-53. If B is at least
    # the row's k-th least s32, each of its k least s64 has s64 <= B + e
    # (k columns have s32 <= B), so s32 <= B + 2e, ties included. The
    # float32 sum B + slack rounds down by at most ε·|B + slack|.
    # 2·expm1((d + 6)ε), about (d + 6)·2**-23, covers both for d <= 2**29.
    # Sort a row's survivors by s32: t_0 <= t_1 <= ... If t_(p+1) - t_p,
    # rounded to float64, exceeds slack > 2e for p = 0 .. k - 1 (p = k - 1
    # only when there are more than k survivors), then since rounding is
    # monotone and slack is a float64, each true gap exceeds 2e, and
    # s64_p <= t_p + e < t_(p+1) - e <= s64_(p+1): positions 0 .. k hold
    # strictly rising s64, and every later survivor has s64 >= t_k - e >
    # s64_(k-1). So the first k are the float64 top k of the survivors, in
    # float64 order and without ties, and so of all columns, as every
    # column of the float64 top k survives.
    slack = np.float32(2 * math.expm1((d + 6) * 2.0 ** -24))
    out = np.empty((v, k), dtype=np.intp)
    many = []
    for lo in range(0, v, step):
        few, count, rows, cols, neg = _screen(unit.unit32, lo, step, k, slack)
        ids = lo + np.flatnonzero(few)
        top, settled = _by_screen(rows, cols, neg, count, k, slack)
        out[ids[settled]] = top[settled]
        near = np.repeat(~settled, count)
        out[ids[~settled]] = _rank_survivors(unit, lo + rows[near], cols[near],
                                             count[~settled], k)
        many.append(lo + np.flatnonzero(~few))
    many = np.concatenate(many)
    whole = unit[:] if len(many) else None
    # _rank_all's V-wide float64 scores and their argsort: a quarter of
    # the screen's budget, at most 16 MiB of scores at any V
    batch = _block_rows(4 * v)
    for lo in range(0, len(many), batch):
        out[many[lo:lo + batch]] = _rank_all(whole, many[lo:lo + batch], k)
    return out


def _nonzero(norms: np.ndarray) -> np.ndarray:
    norms[norms == 0.0] = 1.0  # a zero row stays zero
    return norms


class _UnitRows:
    """float64 unit rows of `values`, made only for the rows asked for:
    values[idx].astype(float64) / norms[idx, None] holds the same bits as
    those rows of the whole float64 unit matrix. Its norms and float32
    rounding `unit32` are made `step` rows at a time."""

    def __init__(self, values: np.ndarray, step: int):
        self.values, self.norms = values, np.empty(len(values))
        self.unit32 = np.empty(values.shape, dtype=np.float32)
        for lo in range(0, len(values), step):
            rows = values[lo:lo + step].astype(np.float64)
            self.norms[lo:lo + step] = _nonzero(np.linalg.norm(rows, axis=1))
            rows /= self.norms[lo:lo + step, None]
            self.unit32[lo:lo + step] = rows

    def __getitem__(self, idx) -> np.ndarray:
        return self.values[idx].astype(np.float64) / self.norms[idx, None]


def _screen(unit32: np.ndarray, lo: int, step: int, k: int, slack: np.float32):
    """For rows lo:lo + step, the survivors: other columns (at least k)
    with a float32 -cos at most B + slack, where B, the k-th smallest of
    the row's minima over groups of columns, is at least the row's k-th
    smallest -cos. Returns which rows have few enough to re-score (count·d
    <= V, so re-scoring holds no more than _rank_all would), and for those
    their counts, their survivors as ascending (row, column) pairs and
    the survivors' float32 -cos."""
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
    flat = flat[np.repeat(few, count)]
    return few, count[few], *np.divmod(flat, v), neg.ravel()[flat]


def _by_screen(rows: np.ndarray, cols: np.ndarray, neg: np.ndarray,
               count: np.ndarray, k: int, slack: np.float32):
    """Each row's first k survivors by (float32 -cos, column), and whether
    that is the float64 order: every gap between positions 0 .. k (k only
    if it exists) exceeds slack (see _topk_neighbors)."""
    # a float32's bits as an int32, the sign bit flipping the others, order
    # as the float does (-0 before 0); one stable argsort takes (row, bits)
    bits = neg.view(np.int32).astype(np.int64)
    order = np.argsort((rows << 32) + (bits ^ (bits >> 31 & 0x7FFFFFFF)), kind="stable")
    first = np.cumsum(count) - count
    at = first[:, None] + np.arange(k + 1)
    sorted_neg = np.append(neg[order].astype(np.float64), np.inf)
    wide = np.diff(sorted_neg[at], axis=1) > slack
    wide[count == k, k - 1] = True  # no position k
    return cols[order[at[:, :k]]], wide.all(axis=1)


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


def _mean_cosine(x: np.ndarray, y: np.ndarray, step: int) -> float:
    """Mean over rows of the float64 cos(x_i, y_i), 0 at a zero row, from
    norms and dot sums of `step` rows at a time."""
    cos = np.empty(len(x))
    for lo in range(0, len(x), step):
        a = x[lo:lo + step].astype(np.float64)
        b = y[lo:lo + step].astype(np.float64)
        denom = _nonzero(np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        a *= b
        cos[lo:lo + step] = np.sum(a, axis=1) / denom
    return float(np.mean(cos))


def _squared_error_sum(a: np.ndarray, b: np.ndarray) -> np.float64:
    """Sum of the float64 (a - b)**2 of two flat float32 arrays in chunks of
    at most _SUM_CHUNK values, added in numpy's pairwise order: split as
    its pairwise sum does (past 128 values, the first half rounded down to
    a multiple of 8), and each chunk summed by np.add.reduce, which goes on
    by the same rule. So it equals np.sum of the whole float64 square."""
    n = len(a)
    if n > _SUM_CHUNK:
        half = n // 2 - n // 2 % 8
        return _squared_error_sum(a[:half], b[:half]) + _squared_error_sum(a[half:], b[half:])
    sq = np.subtract(a, b, dtype=np.float64)  # not in float32
    return np.add.reduce(np.square(sq, out=sq))


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    """float64 RMSE of two float32 matrices of one shape, the same bits as
    np.sqrt(np.mean) of their whole float64 squared difference."""
    return float(np.sqrt(_squared_error_sum(a.ravel(), b.ravel()) / a.size))


def fidelity_against(e: EmbeddingMatrix, k: int):
    """fidelity(e, r, k) as a function of r. The original's top-k lists are
    ranked on the first call and reused by every later one, so a sweep
    ranks its original once. A k out of range is a DataError at once, before
    any reconstruction is made for it."""
    if not 1 <= k < e.rows:
        raise DataError(f"k={k} out of range [1, {e.rows})")
    nn_e = None

    def report(r: EmbeddingMatrix) -> FidelityReport:
        nonlocal nn_e
        if e.values.shape != r.values.shape:
            raise DataError(
                f"shape mismatch: {e.values.shape} vs {r.values.shape}")

        rmse = _rmse(e.values, r.values)
        mean_cosine = _mean_cosine(e.values, r.values, _block_rows(e.rows))

        if nn_e is None:
            nn_e = _topk_neighbors(e.values, k)
        nn_r = _topk_neighbors(r.values, k)
        # each row lists k distinct indices, so a shared index is an adjacent
        # equal pair once both lists are sorted together
        both = np.sort(np.concatenate((nn_e, nn_r), axis=1), axis=1)
        shared = np.count_nonzero(both[:, 1:] == both[:, :-1], axis=1)
        overlap = np.mean(shared / k)
        return FidelityReport(rmse, mean_cosine, float(overlap), k)

    return report


def fidelity(e: EmbeddingMatrix, r: EmbeddingMatrix, k: int) -> FidelityReport:
    """Compare a reconstruction r against the original e."""
    return fidelity_against(e, k)(r)
