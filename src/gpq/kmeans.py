"""Deterministic, seeded Lloyd's K-means with k-means++ initialization.

Returns per-cluster means, per-dimension population variances, and
assignments. Results are a pure function of (points, c, seed) and, up to
cluster relabeling and float summation order, independent of the order of
input points. Lloyd's loop stops after 100 iterations or once the objective
improves by 1e-6 of itself or less, as it does when no assignment changes.

Each Lloyd iteration assigns every point to its nearest centroid with one
of two kernels, chosen from the point dimension d alone:

- d == 1: the points are sorted once, into a copy, which is also the
  canonical order of seeding (below). In one dimension every cluster is a
  contiguous run of sorted points, so an iteration sorts the c centroids
  and binary-searches the midpoints between neighbouring centroids into
  the sorted points: O(c log m), and the c+1 run edges are the whole
  assignment. Counts are run lengths. The update reads the sum, mean and
  M2 (sum of squared deviations from the mean) of every block of B =
  isqrt(m // c) sorted points, computed once after the sort. A run's sum
  adds the sums of the blocks wholly inside it to the values of its two
  ends, the fewer than 2B values outside those blocks. Its SSE adds each
  such block's M2 plus B times the squared offset of the block mean from
  the run mean (the pairwise update of Chan, Golub & LeVeque, 1979) to the
  squared deviations of its ends from the run mean, so no S2 - S1^2/n is
  ever formed. All runs are done at once, in O(m/B + c B), with no m-long
  temporary. Labels reach input order, by looking each point's value up
  among the runs' first values, only after the loop, or when a cluster is
  empty (fewer distinct values than clusters), where the update runs as
  for d > 1.
- d > 1: argmin of ||c||^2 - 2 x.c over blocks of 2^20 // (8 c) points,
  about 1 MiB of float64 scores, so the block size follows from c alone
  and no temporary grows with m. The update is one statistics pass:
  per-cluster counts and sums by np.bincount, and one residual whose
  squares give the objective.

Both kernels resolve ties to the lowest centroid index, and neither the
kernel nor the block sizes are settings: they follow from the shape of the
points and c, so results stay a pure function of the three inputs above.
The d == 1 means, variances and objective are those of the last
iteration's runs, in sorted order (the objective sums the runs' SSE). When
no iteration had an empty cluster, they depend on the multiset of values
alone, so a row permutation leaves them bit-identical and permutes the
assignments. A last iteration that held labels returns the squared
residuals summed in input order as its objective.

k-means++ seeding (D² sampling, Arthur & Vassilvitskii 2007) is one rule
for every d. The points are taken in a canonical order: ascending values
when d == 1, else ascending 64-bit content hashes of the rows (a stable
argsort, so equal rows are adjacent and the order depends on the multiset
of rows alone, up to hash collisions). Step k takes the k-th uniform u in
[0, 1) of SplitMix64(seed): step 0 picks canonical index floor(u * m),
every later step the first point whose cumulative d2 (squared distance to
the nearest chosen center) exceeds u times the total. The cumulative d2 is
a running sum of the totals of blocks of _MASS_BLOCK points plus a running
sum inside the chosen block, so it adds non-negative terms only and never
picks a point of d2 = 0 while the total is positive; at total 0 (fewer
distinct points than centers) the pick is uniform, as at step 0. Each
step updates d2 in passes of whole blocks, summing (column_j - center_j)^2
in coordinate order; that sequential sum equals numpy's row sum for d < 8,
and above, where numpy sums pairwise, the two may differ by an ulp. When
d == 1 a new center lowers d2 only strictly between its two chosen
neighbours, so only those points and their blocks' totals are updated;
when d > 1 every point is. Beside the canonical copy of the points (and,
while it is made, the row hashes, then their argsort), only d2 grows with m.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rng import SplitMix64, row_hashes

DEFAULT_MAX_ITER = 100
DEFAULT_REL_TOL = 1e-6
_CHUNK_ROWS = 65536  # points per row-hash block and per d2 update pass of seeding
_MASS_BLOCK = 4096  # points per d2 total of seeding, in canonical order


@dataclass(frozen=True)
class ClusterResult:
    centroids: np.ndarray   # (c, d) cluster means
    variances: np.ndarray   # (c, d) per-dimension population variance
    assignments: np.ndarray  # (m,) ints in [0, c)
    objective: float        # sum of squared distances to assigned centroid
    iterations: int


def _canonical(pts: np.ndarray, seed: int) -> np.ndarray:
    """(d, m) copy of the points in the canonical order of seeding: ascending
    values when d == 1, else ascending row_hashes(pts, seed), equal hashes in
    input order."""
    m, d = pts.shape
    if d == 1:
        return np.sort(pts[:, 0])[None]
    hashes = np.empty(m, dtype=np.uint64)
    for lo in range(0, m, _CHUNK_ROWS):
        hashes[lo:lo + _CHUNK_ROWS] = row_hashes(pts[lo:lo + _CHUNK_ROWS], seed)
    order = np.argsort(hashes, kind="stable")
    del hashes
    cols = np.empty((d, m))
    # one column at a time, so no transposed copy of pts; the indices are in
    # range, and "clip" spares take its m-long output buffer
    for j in range(d):
        np.take(pts[:, j], order, out=cols[j], mode="clip")
    return cols


def _seed(cols: np.ndarray, c: int, seed: int) -> np.ndarray:
    """(c, d) k-means++ centers of the points cols = _canonical(pts, seed),
    picked by D² mass over the canonical order (see the module docstring)."""
    (d, m), block = cols.shape, _MASS_BLOCK
    d2 = np.full(-(-m // block) * block, np.inf)
    d2[m:] = 0.0  # padding to whole blocks carries no mass
    mass = np.empty(d2.size // block)
    rows = block * max(1, _CHUNK_ROWS // block)  # whole blocks per update pass
    buf = np.empty(min(rows, d2.size))
    term = np.empty_like(buf) if d > 1 else None
    chosen: list[float] = []  # d == 1: distinct center values, ascending
    centers = np.empty((c, d))
    total = 0.0
    for step, u in enumerate(SplitMix64(seed).uniforms(c).tolist()):
        if not total > 0:
            idx = int(u * m)  # step 0, or fewer distinct points than centers; u * m < m
        else:
            # an overflowed total is reached, not exceeded
            target, side = (u * total, "right") if total < np.inf else (total, "left")
            b = int(np.searchsorted(cum, target, side))
            run = np.cumsum(d2[b * block:(b + 1) * block], out=buf[:block])
            run += cum[b - 1] if b else 0.0  # cum[b] is its last entry, bit for bit
            idx = b * block + int(np.searchsorted(run, target, side))
        centers[step] = center = cols[:, idx].tolist()
        if step and not total > 0:
            continue  # every d2 is already 0
        lo, hi = 0, m
        if d == 1:
            # only the points between the new center's chosen neighbours move
            xs, x = cols[0], center[0]
            k = bisect_left(chosen, x)
            lo = int(np.searchsorted(xs, chosen[k - 1], "right")) if k else 0
            hi = int(np.searchsorted(xs, chosen[k], "left")) if k < len(chosen) else m
            chosen.insert(k, x)
        end = -(-hi // block) * block
        for s in range(lo // block * block, end, rows):
            e = min(s + rows, end)
            p, q = max(lo, s), min(hi, e)
            near = np.subtract(cols[0, p:q], center[0], out=buf[:q - p])
            near *= near
            for j in range(1, d):
                t = np.subtract(cols[j, p:q], center[j], out=term[:q - p])
                t *= t
                near += t
            np.minimum(d2[p:q], near, out=d2[p:q])
            sums = np.cumsum(d2[s:e].reshape(-1, block), axis=1,
                             out=buf[:e - s].reshape(-1, block))
            mass[s // block:e // block] = sums[:, -1]
        cum = np.cumsum(mass)
        total = float(cum[-1])
    return centers


def _assign_dense(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # ||x||^2 term is constant per point; argmin ties resolve to lowest index.
    # Scaling by -2 is exact, so x.(-2c) + sq rounds as sq - 2 x.c does.
    sq = np.sum(centroids**2, axis=1)
    neg2t = centroids.T * -2.0
    m, c = pts.shape[0], centroids.shape[0]
    rows = max(1, 2**20 // (8 * c))  # about 1 MiB of float64 scores per block
    buf = np.empty((min(m, rows), c))
    out = np.empty(m, dtype=np.intp)
    for lo in range(0, m, rows):
        block = pts[lo:lo + rows]
        d2 = np.matmul(block, neg2t, out=buf[:block.shape[0]])
        d2 += sq
        np.argmin(d2, axis=1, out=out[lo:lo + rows])
    return out


def _assign_sorted(xs: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroids of sorted 1-D points xs as runs (labels, edges):
    cluster labels[i] holds xs[edges[i]:edges[i + 1]]. labels lists each
    distinct centroid once, in ascending order of value."""
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
    return labels, np.concatenate(([0], np.maximum.accumulate(bounds), [xs.size]))


def _value_labels(values: np.ndarray, xs: np.ndarray, labels: np.ndarray,
                  edges: np.ndarray) -> np.ndarray:
    """Labels of values, in their order, under the runs (labels, edges) that
    _assign_sorted found in their ascending copy xs. Runs never split equal
    values, so a value's run is the last one whose first value it reaches;
    an empty run's first value is its successor's, or inf at the end."""
    inner = edges[1:-1]
    firsts = np.where(inner < xs.size, xs[np.minimum(inner, xs.size - 1)], np.inf)
    run = np.searchsorted(firsts, values, "right")
    return np.take(labels, run, out=run, mode="clip")  # in place; every run < labels.size


def _block_moments(xs: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sums, means, M2) of each whole block of `block` values of xs, M2 the
    sum of squared deviations from the block mean."""
    whole = xs[:xs.size // block * block].reshape(-1, block)
    sums = whole.sum(axis=1)
    means = sums / block
    dev = whole - means[:, None]
    dev *= dev
    return sums, means, dev.sum(axis=1)


def _run_moments(xs: np.ndarray, block: int,
                 moments: tuple[np.ndarray, np.ndarray, np.ndarray],
                 edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(means, SSE) of the non-empty runs xs[edges[i]:edges[i + 1]], given
    moments = _block_moments(xs, block). A run's sum and SSE combine the
    moments of the blocks wholly inside it with a two-pass sum over its two
    ends, the values outside those blocks."""
    sums, block_means, m2 = moments
    runs = edges.size - 1
    lo, hi = edges[:-1], edges[1:]
    # the run that holds each block whole, or runs for one split between two
    starts = np.arange(sums.size) * block
    owner = np.searchsorted(hi, starts, "right")
    owner[hi[owner] - starts < block] = runs
    # the ends [lo, left) and [right, hi), gathered in one pass
    left = np.minimum(-(-lo // block) * block, hi)
    right = np.maximum(hi // block * block, left)
    seg_lo = np.stack([lo, right], axis=1).ravel()
    seg_len = np.stack([left - lo, hi - right], axis=1).ravel()
    offsets = np.cumsum(seg_len) - seg_len
    ends = xs[np.arange(offsets[-1] + seg_len[-1]) + np.repeat(seg_lo - offsets, seg_len)]
    end_run = np.repeat(np.arange(runs).repeat(2), seg_len)

    means = (np.bincount(owner, weights=sums, minlength=runs + 1)[:runs]
             + np.bincount(end_run, weights=ends, minlength=runs)) / (hi - lo)
    # a block adds its M2 plus its size times its mean's squared offset from
    # the run mean (Chan, Golub & LeVeque 1979); S2 - S1^2/n is never formed
    dev = block_means - np.append(means, 0.0)[owner]
    dev *= dev
    dev *= block
    dev += m2
    ends -= means[end_run]
    ends *= ends
    sse = (np.bincount(owner, weights=dev, minlength=runs + 1)[:runs]
           + np.bincount(end_run, weights=ends, minlength=runs))
    return means, sse


def _cluster_means(assign: np.ndarray, values: np.ndarray,
                   counts: np.ndarray) -> np.ndarray:
    """(c, d) per-cluster mean of each column of values, one bincount per
    column; counts must be positive."""
    sums = [np.bincount(assign, weights=col, minlength=counts.size)
            for col in values.T]
    return np.stack(sums, axis=1) / counts[:, None]


def _repair_empty(pts, assign, centroids, counts):
    """Give each empty cluster, lowest index first, the point farthest from
    its centroid among clusters that keep a member (first index on ties).
    Updates assign and counts in place."""
    dist = np.sum((pts - centroids[assign]) ** 2, axis=1)
    for k in np.flatnonzero(counts == 0):
        donor = int(np.argmax(np.where(counts[assign] > 1, dist, -np.inf)))
        counts[assign[donor]] -= 1
        counts[k] = 1
        assign[donor] = k


def kmeans(points, c: int, seed: int) -> ClusterResult:
    """Lloyd iterations from k-means++ seeding, a pure function of (points,
    c, seed). Stops after DEFAULT_MAX_ITER iterations or once the objective
    improves by DEFAULT_REL_TOL of itself or less, as it does when no
    assignment changes; repairs empty clusters only when there are some.

    An iteration holds runs of the sorted points (d == 1, no cluster empty;
    labels is None), updated by _run_moments, or labels in input order
    (d > 1, or an empty cluster at d == 1), repaired and updated with
    sq_resid, each point's squared residual per dimension."""
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

    cols = _canonical(pts, seed)
    centroids = _seed(cols, c, seed)
    if d == 1:
        xs = cols[0]  # pts[:, 0] in ascending order
        # balances an update's m / block whole blocks against its < 2 c
        # block end values
        block = math.isqrt(m // c)
        moments = _block_moments(xs, block)
    del cols  # when d > 1, an m x d copy that Lloyd does not read
    prev_obj = np.inf
    for it in range(1, DEFAULT_MAX_ITER + 1):
        if d == 1:
            run_labels, edges = _assign_sorted(xs, centroids)
            counts = np.zeros(c, dtype=np.intp)
            counts[run_labels] = np.diff(edges)
            labels = None if counts.all() else _value_labels(pts[:, 0], xs, run_labels, edges)
        else:
            labels = _assign_dense(pts, centroids)
            counts = np.bincount(labels, minlength=c)
        if labels is None:
            # every label has one run of at least a point
            means, sse = _run_moments(xs, block, moments, edges)
            centroids = np.empty((c, 1))
            centroids[run_labels, 0] = means
            obj = float(np.sum(sse))
        else:
            if not counts.all():
                _repair_empty(pts, labels, centroids, counts)
            centroids = _cluster_means(labels, pts, counts)
            sq_resid = pts - centroids[labels]
            sq_resid *= sq_resid
            obj = float(np.sum(sq_resid))
        assert obj <= prev_obj * (1.0 + 1e-12) + 1e-300
        if np.isfinite(prev_obj) and prev_obj - obj <= DEFAULT_REL_TOL * prev_obj:
            break
        prev_obj = obj

    if labels is None:
        variances = np.empty((c, 1))
        variances[run_labels, 0] = sse / np.diff(edges)
        labels = _value_labels(pts[:, 0], xs, run_labels, edges)
    else:
        variances = _cluster_means(labels, sq_resid, counts)
    return ClusterResult(centroids, variances, labels, obj, it)


def kmeans_best_of(points, c: int, seed: int, restarts: int = 1) -> ClusterResult:
    """Best of `restarts` kmeans runs (seeds seed+0 .. seed+restarts-1);
    ties go to the lowest restart index."""
    if restarts < 1:
        raise DataError("restarts must be >= 1")
    best = None
    for r in range(restarts):
        res = kmeans(points, c, seed + r)
        if best is None or res.objective < best.objective:
            best = res
    return best
