"""Deterministic, seeded Lloyd's K-means with k-means++ initialization.

Returns per-cluster means, per-dimension population variances, and
assignments. Results are a pure function of (points, c, seed, max_iter,
rel_tol) and, up to cluster relabeling and float summation order,
independent of the order of input points.

Each Lloyd iteration assigns every point to its nearest centroid with one
of two kernels, chosen from the point dimension d alone:

- d == 1: the points are sorted once, before the loop. In one dimension
  every cluster is a contiguous run of sorted points, so an iteration
  sorts the c centroids, binary-searches the midpoints between
  neighbouring centroids into the sorted points and expands the run
  lengths into labels: O(c log m) search plus O(m) label scatter, with
  no temporary larger than the points themselves.
- d > 1: argmin of ||c||^2 - 2 x.c over blocks of _CHUNK_ROWS points, so
  no temporary is larger than O(_CHUNK_ROWS * c).

Both kernels resolve ties to the lowest centroid index, and neither the
kernel nor the block size is a setting: both follow from the shape of the
points, so results stay a pure function of the five inputs above. The
update is one statistics pass: per-cluster counts and sums by
np.bincount, and one residual whose squares give the objective and, after
the last iteration, the variances.

Seeding keeps three m-long arrays: the content hashes, the squared
distance d2 to the nearest chosen center, and one column-major copy of
the points (a view when d == 1). Each of the c steps scores the keys over
blocks of _CHUNK_ROWS points and takes the winner across blocks by strict
<, so ties go to the lowest index as one argmin would; it then updates d2
block by block, summing (column_j - center_j)^2 in coordinate order. That
sequential sum equals numpy's row sum for d < 8; above, where numpy sums
pairwise, the two may differ by an ulp.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rng import derive_seed, mix64, row_hashes

DEFAULT_MAX_ITER = 100
DEFAULT_REL_TOL = 1e-6
_CHUNK_ROWS = 65536  # points per block of seeding and of the dense assignment


@dataclass(frozen=True)
class ClusterResult:
    centroids: np.ndarray   # (c, d) cluster means
    variances: np.ndarray   # (c, d) per-dimension population variance
    assignments: np.ndarray  # (m,) ints in [0, c)
    objective: float        # sum of squared distances to assigned centroid
    iterations: int


def _to_uniform_open(u64: np.ndarray) -> np.ndarray:
    # (0, 1); strictly positive so exponential keys stay finite and nonzero
    return ((u64 >> np.uint64(11)).astype(np.float64) + 0.5) / 9007199254740992.0


def _race(hashes: np.ndarray, salt: int,
          d2: np.ndarray | None = None) -> tuple[int, float]:
    """(index, key) of the smallest exponential-race key, scored over blocks
    of _CHUNK_ROWS points; uniform keys when d2 is None."""
    salt = np.uint64(salt)
    best, best_key = 0, np.inf
    for lo in range(0, hashes.size, _CHUNK_ROWS):
        key = _to_uniform_open(mix64(hashes[lo:lo + _CHUNK_ROWS] ^ salt))
        if d2 is not None:
            with np.errstate(divide="ignore"):
                key = -np.log1p(-key) / d2[lo:lo + _CHUNK_ROWS]
        i = int(np.argmin(key))
        if key[i] < best_key:  # strict: ties keep the lower block
            best, best_key = lo + i, key[i]
    return best, best_key


def _init_plus_plus(pts: np.ndarray, c: int, seed: int) -> np.ndarray:
    """k-means++ seeding keyed by per-point content hashes.

    Candidate selection uses exponential-race sampling: each point draws a
    key -log(1-u)/w with w its squared distance to the nearest chosen
    center, and the minimum key wins. Because u depends on the point's
    content hash rather than its position, the multiset of chosen centers
    does not depend on input row order.
    """
    m, d = pts.shape
    cols = np.ascontiguousarray(pts.T)  # (d, m); a view when d == 1
    hashes = np.empty(m, dtype=np.uint64)
    for lo in range(0, m, _CHUNK_ROWS):
        hashes[lo:lo + _CHUNK_ROWS] = row_hashes(pts[lo:lo + _CHUNK_ROWS], seed)
    d2 = np.full(m, np.inf)
    centers = np.empty((c, d), dtype=np.float64)
    for step in range(c):
        salt = derive_seed(seed, step)
        idx, key = _race(hashes, salt, d2 if step else None)
        if not np.isfinite(key):
            # fewer distinct points than centers: fall back to uniform
            idx, _ = _race(hashes, salt)
        centers[step] = pts[idx]
        center = centers[step].tolist()
        for lo in range(0, m, _CHUNK_ROWS):
            block = cols[:, lo:lo + _CHUNK_ROWS]
            nd2 = block[0] - center[0]
            nd2 *= nd2
            for j in range(1, d):
                t = block[j] - center[j]
                t *= t
                nd2 += t
            np.minimum(d2[lo:lo + _CHUNK_ROWS], nd2, out=d2[lo:lo + _CHUNK_ROWS])
    return centers


def _assign_dense(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # ||x||^2 term is constant per point; argmin ties resolve to lowest index.
    # Scaling by -2 is exact, so x.(-2c) + sq rounds as sq - 2 x.c does.
    sq = np.sum(centroids**2, axis=1)
    neg2t = centroids.T * -2.0
    buf = np.empty((min(pts.shape[0], _CHUNK_ROWS), centroids.shape[0]))
    out = np.empty(pts.shape[0], dtype=np.intp)
    for lo in range(0, pts.shape[0], _CHUNK_ROWS):
        block = pts[lo:lo + _CHUNK_ROWS]
        d2 = np.matmul(block, neg2t, out=buf[:block.shape[0]])
        d2 += sq
        out[lo:lo + _CHUNK_ROWS] = np.argmin(d2, axis=1)
    return out


def _assign_sorted(xs: np.ndarray, order: np.ndarray,
                   centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels of 1-D points given sorted, xs = x[order]."""
    rank = np.argsort(centroids[:, 0], kind="stable")
    cs = centroids[rank, 0]
    # of equal centroids, the first in stable order has the lowest index
    first = np.concatenate(([True], cs[1:] != cs[:-1]))
    cs, labels = cs[first], rank[first]
    mid = 0.5 * (cs[:-1] + cs[1:])
    # a point on a midpoint goes to the lower-indexed neighbour
    bounds = np.where(labels[:-1] < labels[1:],
                      np.searchsorted(xs, mid, side="right"),
                      np.searchsorted(xs, mid, side="left"))
    # adjacent doubles can round to one midpoint; keep every run length >= 0
    runs = np.diff(np.maximum.accumulate(bounds), prepend=0, append=xs.size)
    out = np.empty(xs.size, dtype=np.intp)
    out[order] = np.repeat(labels, runs)
    return out


def _cluster_means(assign: np.ndarray, values: np.ndarray,
                   counts: np.ndarray) -> np.ndarray:
    """(c, d) per-cluster mean of each column of values, one bincount per
    column; counts must be positive."""
    sums = [np.bincount(assign, weights=col, minlength=counts.size)
            for col in values.T]
    return np.stack(sums, axis=1) / counts[:, None]


def _repair_empty(pts, assign, centroids, c):
    """Fill each empty cluster with the point farthest from its centroid,
    drawn from clusters that keep at least one member."""
    while True:
        counts = np.bincount(assign, minlength=c)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return assign
        dist = np.sum((pts - centroids[assign]) ** 2, axis=1)
        movable = counts[assign] > 1
        dist = np.where(movable, dist, -np.inf)
        donor = int(np.argmax(dist))
        k = int(empties[0])
        assign[donor] = k
        centroids[k] = pts[donor]


def kmeans(points, c: int, seed: int,
           max_iter: int = DEFAULT_MAX_ITER,
           rel_tol: float = DEFAULT_REL_TOL) -> ClusterResult:
    """Lloyd iterations from k-means++ seeding until the objective's
    relative improvement drops below rel_tol, assignments stabilize, or
    max_iter is reached."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DataError(f"points must be 2-D, got shape {pts.shape}")
    m, d = pts.shape
    if c < 1:
        raise DataError("cluster count must be >= 1")
    if c > m:
        raise DataError(f"cluster count {c} exceeds point count {m}")
    if not np.all(np.isfinite(pts)):
        raise DataError("points contain non-finite values")
    if max_iter < 1:
        raise DataError("max_iter must be >= 1")

    if d == 1:
        order = np.argsort(pts[:, 0], kind="stable")
        nearest = functools.partial(_assign_sorted, pts[order, 0], order)
    else:
        nearest = functools.partial(_assign_dense, pts)

    centroids = _init_plus_plus(pts, c, seed)
    assign = np.full(m, -1, dtype=np.intp)
    prev_obj = np.inf
    for it in range(1, max_iter + 1):
        new_assign = _repair_empty(pts, nearest(centroids), centroids, c)
        stable = np.array_equal(new_assign, assign)
        assign = new_assign
        counts = np.bincount(assign, minlength=c)
        centroids = _cluster_means(assign, pts, counts)
        sq_resid = pts - centroids[assign]
        sq_resid *= sq_resid
        obj = float(np.sum(sq_resid))
        assert obj <= prev_obj * (1.0 + 1e-12) + 1e-300
        if stable or (np.isfinite(prev_obj) and prev_obj - obj <= rel_tol * prev_obj):
            break
        prev_obj = obj

    variances = _cluster_means(assign, sq_resid, counts)
    return ClusterResult(centroids, variances, assign, obj, it)


def kmeans_best_of(points, c: int, seed: int, restarts: int = 1,
                   max_iter: int = DEFAULT_MAX_ITER,
                   rel_tol: float = DEFAULT_REL_TOL) -> ClusterResult:
    """Best of `restarts` seeded runs (seeds seed+0 .. seed+restarts-1);
    ties go to the lowest restart index."""
    if restarts < 1:
        raise DataError("restarts must be >= 1")
    best = None
    for r in range(restarts):
        res = kmeans(points, c, seed + r, max_iter=max_iter, rel_tol=rel_tol)
        if best is None or res.objective < best.objective:
            best = res
    return best
