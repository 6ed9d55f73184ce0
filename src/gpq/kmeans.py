"""Deterministic, seeded Lloyd's K-means with k-means++ initialization.

Returns per-cluster means, per-dimension population variances, and
assignments. Results are a pure function of (points, c, seed) and, up to
cluster relabeling and float summation order, independent of the order of
input points. Lloyd's loop stops after 100 iterations or once the objective
improves by 1e-6 of itself or less: when no assignment changes, and on any
iteration whose objective does not fall, including a rise from rounding.

Each Lloyd iteration assigns every point to its nearest centroid with one
of two kernels, chosen from the point dimension d alone:

- d == 1: the points are sorted once, into a copy, which is also the
  canonical order of seeding (below). In one dimension every cluster is a
  contiguous run of sorted points, so an iteration sorts the c centroids
  and binary-searches the midpoints between neighbouring centroids into
  the sorted points: O(c log m), and the c+1 run edges are the whole
  assignment. Counts are run lengths. The update reads the sum, mean and
  M2 (sum of squared deviations from the mean) of every block of B =
  isqrt(m // c) sorted points, computed once after the sort. A block is
  whole when the run that holds its first value also holds its last; every
  other value is loose: those of the blocks split between runs (at most
  one per run edge), then those of the partial last block. A run's sum
  adds the sums of its whole blocks to its loose values. Its SSE adds each
  whole block's M2 plus B times the squared offset of the block mean from
  the run mean (the pairwise update of Chan, Golub & LeVeque, 1979) to the
  squared deviations of its loose values from the run mean, so no S2 -
  S1^2/n is ever formed. All runs are done at once, in O(m/B + c B), with
  no m-long temporary. Labels reach input order only after the loop, or
  when a cluster is empty (fewer distinct values than clusters), where the
  update runs as for d > 1. A point takes the label of the last run whose
  first value it reaches, read through a monotone bucket map b(x) =
  int((x - xs[0]) * scale) of 2^14 buckets over [xs[0], xs[-1]]: a bucket
  that holds no run start lies wholly between two starts, so its points
  share one label, from a table; only points in a bucket that holds a
  start are binary-searched among the starts. The labels are those of a
  search of every point, and only they grow with m.
- d > 1: argmin of ||c||^2 - 2 x.c over blocks of 2^20 // (8 c) points,
  about 1 MiB of float64 scores, so the block size follows from c alone
  and no temporary grows with m. "Nearest" means by that score in
  float64: on rows a few ulps apart it can differ from the nearest by
  direct distance, and the objective can then rise. The update is one
  statistics pass: per-cluster counts and sums by np.bincount, and one
  residual whose squares give the objective.

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
a running sum of block masses plus a running sum of d2 inside the chosen
block. A block's mass is positive exactly when one of its d2 is, so no
point of d2 = 0 is picked while the total is positive: a target past the
chosen block's running sum (a mass rounded above it) takes the block's
last point of positive d2. At total 0 (fewer distinct points than
centers) the pick is uniform, as at step 0.

When d > 1 the blocks are _MASS_BLOCK points, and each step updates an
m-long d2 in passes of whole blocks, summing (column_j - center_j)^2 in
coordinate order; that sequential sum equals numpy's row sum for d < 8,
and above, where numpy sums pairwise, the two may differ by an ulp. A
block's mass is the running sum of its d2. Beside the canonical copy of
the points (and, while it is made, the row hashes, then their argsort),
only d2 grows with m.

When d == 1 the blocks are those of the update's moment table (above),
built once per kmeans call, and no d2 is stored. A new center x lowers d2
only in its cell, the sorted positions nearer x than its chosen
neighbours, whose edges are the midpoints searched into the sorted values.
A whole block inside the cell takes the mass M2 + B (mean - x)^2 (Chan,
Golub & LeVeque again), at least its largest d2, which is at one of its
ends, and 0 when that is 0. The at most two blocks split by the cell's
edges, and the partial last block, take the running sum of their values'
d2, each the smaller square to the two chosen centers around it; the pick
finds the chosen block's d2 the same way. A step costs O(m / B + B), and
nothing in seeding is m long. The running sums are those of a d2 in blocks
of B bit for bit; the moment masses round differently, by about
eps |x| / |mean - x| of themselves: far below the spacing of binary32
inputs, but large for float64 values a few ulps from a center.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .embio import to_float32
from .errors import DataError, check_finite
from .rng import SplitMix64, check_seed, row_hashes

DEFAULT_MAX_ITER = 100
DEFAULT_REL_TOL = 1e-6
_CHUNK_ROWS = 65536  # points per row-hash block and per d2 update pass of seeding
_MASS_BLOCK = 4096  # points per d2 total of seeding at d > 1, in canonical order
# d == 1 label lookup: buckets of its table and values per pass. At 128k
# points 2^16 buckets cost more to build than they save (1.7 against 1.1 ms),
# and 2^12 sends too many values to the search at 16.4M (0.23 against 0.13
# s in passes of 2^12); longer passes save little and cost memory.
_BUCKETS = 2**14
_LOOKUP_CHUNK = 2**14


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


def _seed(cols: np.ndarray, c: int, seed: int, moments=None) -> np.ndarray:
    """(c, d) k-means++ centers of the points cols = _canonical(pts, seed),
    picked by D² mass over the canonical order (see the module docstring).
    When d == 1 the masses come from moments = _block_moments(cols[0],
    _moment_block(m, c)), the table of Lloyd's update, built here if not
    given."""
    (d, m), block = cols.shape, _MASS_BLOCK
    if d == 1:
        return _seed_sorted(cols[0], c, seed, moments)
    d2 = np.full(-(-m // block) * block, np.inf)
    d2[m:] = 0.0  # padding to whole blocks carries no mass
    mass = np.empty(d2.size // block)
    rows = block * max(1, _CHUNK_ROWS // block)  # whole blocks per update pass
    buf, term = np.empty(min(rows, d2.size)), np.empty(min(rows, d2.size))
    centers = np.empty((c, d))
    total = 0.0
    for step, u in enumerate(SplitMix64(seed).uniforms(c).tolist()):
        if not total > 0:
            idx = int(u * m)  # step 0, or fewer distinct points than centers; u * m < m
        else:  # points within binary32 range keep the total finite
            idx = _pick(cum, u, block, lambda b: d2[b * block:(b + 1) * block])
        centers[step] = center = cols[:, idx].tolist()
        if step and not total > 0:
            continue  # every d2 is already 0
        for s in range(0, d2.size, rows):
            e = min(s + rows, d2.size)
            q = min(m, e)
            near = np.subtract(cols[0, s:q], center[0], out=buf[:q - s])
            near *= near
            for j in range(1, d):
                t = np.subtract(cols[j, s:q], center[j], out=term[:q - s])
                t *= t
                near += t
            np.minimum(d2[s:q], near, out=d2[s:q])
            sums = np.cumsum(d2[s:e].reshape(-1, block), axis=1,
                             out=buf[:e - s].reshape(-1, block))
            mass[s // block:e // block] = sums[:, -1]
        cum = np.cumsum(mass)
        total = float(cum[-1])
    return centers


def _pick(cum: np.ndarray, u: float, block: int, d2_of) -> int:
    """Canonical index of the first point whose cumulative d2 exceeds u times
    the total cum[-1], given cum, the running sums of the block masses, and
    d2_of(b), the d2 of block b: the block by cum, then the point by the
    running sum of its d2 after cum[b - 1]. A block is taken only if its
    mass is positive. A target at or past the block's last running sum (a
    mass rounded above it, or u * total rounded up to a subnormal total)
    takes the block's last point of positive d2."""
    total = cum[-1]
    target = u * total
    b = int(np.searchsorted(cum, target, "right" if target < total else "left"))
    d2 = d2_of(b)
    run = np.cumsum(d2)
    run += cum[b - 1] if b else 0.0
    i = int(np.searchsorted(run, target, "right"))
    return b * block + (i if i < d2.size else int(np.flatnonzero(d2)[-1]))


def _seed_sorted(xs: np.ndarray, c: int, seed: int, moments) -> np.ndarray:
    """_seed for ascending values xs: D² mass by block of the moment table,
    no d2 of m values (see the module docstring)."""
    m, block = xs.size, _moment_block(xs.size, c)
    _, means, m2 = _block_moments(xs, block) if moments is None else moments
    whole = means.size
    mass = np.zeros(-(-m // block))  # the whole blocks, then the partial last one
    chosen = [-math.inf, math.inf]  # center values, ascending, between sentinels
    centers = np.empty((c, 1))
    total = 0.0
    for step, u in enumerate(SplitMix64(seed).uniforms(c).tolist()):
        if not total > 0:
            idx = int(u * m)  # as in _seed
        else:
            idx = _pick(cum, u, block, lambda b: _nearest_d2(xs[b * block:(b + 1) * block], grid))
        centers[step] = x = float(xs[idx])
        if step and not total > 0:
            continue  # every d2 is already 0
        k = bisect_left(chosen, x)
        chosen.insert(k, x)
        grid = np.array(chosen)
        # x's cell: the positions [lo, hi) whose d2 is now their distance to x
        lo, hi = _cell_edge(xs, x, chosen[k - 1]), _cell_edge(xs, x, chosen[k + 1])
        first, last = -(-lo // block), min(hi // block, whole)
        if first < last:
            # a whole block in the cell: M2 + B (mean - x)^2 (Chan, Golub &
            # LeVeque), at least its largest d2, which is at one of its ends,
            # and exactly 0 when that is 0
            top = np.maximum((xs[first * block:last * block:block] - x) ** 2,
                             (xs[first * block + block - 1:last * block:block] - x) ** 2)
            mass[first:last] = np.maximum(block * (means[first:last] - x) ** 2 + m2[first:last],
                                          top) * (top > 0)
        for j in {lo // block, (hi - 1) // block}:
            if not first <= j < last:  # split by the cell's edge, or the partial last block
                mass[j] = np.cumsum(_nearest_d2(xs[j * block:(j + 1) * block], grid))[-1]
        cum = np.cumsum(mass)
        total = float(cum[-1])
    return centers


def _cell_edge(xs: np.ndarray, x: float, y: float) -> int:
    """Sorted position where center x's cell meets that of its chosen
    neighbour y (a sentinel ±inf when there is none). The midpoint of x and y
    rounds, but no float lies strictly between it and the exact midpoint, so
    a value past it toward x is at least as near x as y, and one short of it
    at least as near y as x; values equal to it go to x when they are at
    least as near x. Between the two edges every d2 is the square to x, and
    outside them x lowers none."""
    mid = 0.5 * (x + y)  # ±inf at a sentinel, where either side gives 0 or m
    nearer_x = (mid - x) * (mid - x) <= (mid - y) * (mid - y)
    return int(np.searchsorted(xs, mid, "left" if nearer_x == (y < x) else "right"))


def _nearest_d2(values: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Squared distance of each value to its nearest chosen center, the
    centers ascending between -inf and inf sentinels: the smaller square to
    the two that bracket it, which is the smallest square to any."""
    k = np.searchsorted(chosen, values)
    return np.minimum((values - chosen[k - 1]) ** 2, (values - chosen[k]) ** 2)


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
    # of equal centroids (-0.0 and 0.0 too), the lowest index
    cs, labels = np.unique(centroids[:, 0], return_index=True)
    mid = 0.5 * (cs[:-1] + cs[1:])
    # a point on a midpoint goes to the lower-indexed neighbour
    bounds = np.where(labels[:-1] < labels[1:],
                      np.searchsorted(xs, mid, side="right"),
                      np.searchsorted(xs, mid, side="left"))
    # adjacent doubles can round to one midpoint; keep every run length >= 0
    return labels, np.concatenate(([0], np.maximum.accumulate(bounds), [xs.size]))


def _run_starts(xs: np.ndarray, edges: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(xs[0], xs[-1], firsts) of the runs xs[edges[i]:edges[i + 1]] of
    ascending xs: firsts[i] is the first value of run i + 1, an empty run's
    first value its successor's, or inf at the end. All that _value_labels
    reads of xs."""
    inner = edges[1:-1]
    firsts = np.where(inner < xs.size, xs[np.minimum(inner, xs.size - 1)], np.inf)
    return float(xs[0]), float(xs[-1]), firsts


def _value_labels(values: np.ndarray, starts: tuple[float, float, np.ndarray],
                  labels: np.ndarray) -> np.ndarray:
    """Labels of values, in their order, under the runs (labels, edges) that
    _assign_sorted found in their ascending copy xs, given starts =
    _run_starts(xs, edges). Runs never split equal values, so a value's run
    is the last one whose first value it reaches.

    A value x is looked up by its bucket b(x) = min(int((x - xs[0]) * scale),
    _BUCKETS), which is monotone (rounded subtraction, multiplication by
    scale >= 0 and truncation of values >= 0 all are). So a run start in a
    lower bucket is below x and one in a higher bucket above it, and a bucket
    that holds no run start gives every value in it one label, from a table.
    Only values in a bucket that holds a run start are searched among the
    starts. A span of 0, one that overflows, or one too small for a finite
    scale puts every value in bucket 0."""
    lo, hi, firsts = starts
    span = hi - lo  # Python floats overflow silently
    scale = _BUCKETS / span if span > 0 else math.inf
    if not 0 < scale < math.inf:  # span 0, overflowed or too small: one bucket
        lo, scale = 0.0, 0.0
    finite = firsts[firsts < np.inf]
    held = np.minimum((finite - lo) * scale, _BUCKETS).astype(np.intp)
    # buckets (held[i - 1], held[i]] lie in run i, but a bucket that holds a
    # run start gets -1: its values are searched
    table = np.repeat(labels[:finite.size + 1], np.diff(held, prepend=-1, append=_BUCKETS))
    table[held] = -1
    out = np.empty(values.size, dtype=np.intp)
    for s in range(0, values.size, _LOOKUP_CHUNK):
        v = values[s:s + _LOOKUP_CHUNK]
        got = out[s:s + v.size]
        t = np.subtract(v, lo, out=got.view(np.float64))
        t *= scale
        # in place, element by element: t truncates toward zero into got, and
        # take's clip is the min with _BUCKETS
        np.copyto(got, t, casting="unsafe")
        np.take(table, got, out=got, mode="clip")
        hit = np.flatnonzero(got < 0)
        if hit.size:
            got[hit] = labels[np.searchsorted(firsts, v[hit], "right")]
    return out


def _moment_block(m: int, c: int) -> int:
    """Values per block of the d == 1 moment table: balances an update's
    m / block blocks against its < c block loose values."""
    return math.isqrt(m // c)


def _block_moments(xs: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sums, means, M2) of each whole block of `block` values of xs, M2 the
    sum of squared deviations from the block mean, in passes of the blocks in
    _CHUNK_ROWS values (at least one block), so no temporary is m long."""
    n = xs.size // block
    sums, means, m2 = np.empty(n), np.empty(n), np.empty(n)
    rows = max(1, _CHUNK_ROWS // block)  # blocks per pass
    buf = np.empty((min(rows, n), block))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        whole = xs[s * block:e * block].reshape(-1, block)
        np.sum(whole, axis=1, out=sums[s:e])
        np.divide(sums[s:e], block, out=means[s:e])
        dev = np.subtract(whole, means[s:e, None], out=buf[:e - s])
        dev *= dev
        np.sum(dev, axis=1, out=m2[s:e])
    return sums, means, m2


def _run_moments(xs: np.ndarray, block: int,
                 moments: tuple[np.ndarray, np.ndarray, np.ndarray],
                 edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(means, SSE) of the non-empty runs xs[edges[i]:edges[i + 1]], given
    moments = _block_moments(xs, block). Block b is whole when the run that
    holds its first value also holds its last; every other value is loose:
    those of the split blocks, then those of the partial last block. A run's
    sum and SSE combine the moments of its whole blocks with a two-pass sum
    over its loose values, in ascending position."""
    sums, block_means, m2 = moments
    runs = edges.size - 1
    # the run that holds each block's first value, or runs for a split block;
    # a position's run comes from the run edges searched into sorted positions
    starts = np.arange(sums.size) * block
    owner = np.repeat(np.arange(runs), np.diff(np.searchsorted(starts, edges)))
    owner[edges[owner + 1] - starts < block] = runs
    at = np.concatenate(((starts[owner == runs, None] + np.arange(block)).ravel(),
                         np.arange(starts.size * block, xs.size)))
    ends, end_run = xs[at], np.repeat(np.arange(runs), np.diff(np.searchsorted(at, edges)))

    means = (np.bincount(owner, weights=sums, minlength=runs + 1)[:runs]
             + np.bincount(end_run, weights=ends, minlength=runs)) / np.diff(edges)
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
    c, seed); a point beyond binary32 range is a DataError. Stops after
    DEFAULT_MAX_ITER iterations or once the objective improves by
    DEFAULT_REL_TOL of itself or less, or does not fall, as when no
    assignment changes; repairs empty clusters only when there are some.

    An iteration holds runs of the sorted points (d == 1, no cluster empty;
    labels is None), updated by _run_moments, or labels in input order
    (d > 1, or an empty cluster at d == 1), repaired and updated with
    sq_resid, each point's squared residual per dimension."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise DataError(f"points must be 2-D with a dimension, got shape {pts.shape}")
    m, d = pts.shape
    if c < 1:
        raise DataError("cluster count must be >= 1")
    if c > m:
        raise DataError(f"cluster count {c} exceeds point count {m}")
    check_seed(seed)
    # binary32 range bounds every float64 sum here by m d (2 FLT_MAX)^2, far
    # from overflow; no codebook could store a mean beyond it
    check_finite(to_float32([pts.min(), pts.max()]), "points contain non-finite values")

    cols = _canonical(pts, seed)
    moments = None
    if d == 1:
        xs = cols[0]  # pts[:, 0] in ascending order
        block = _moment_block(m, c)
        moments = _block_moments(xs, block)  # read by seeding and every update
    centroids = _seed(cols, c, seed, moments)
    del cols  # when d > 1, an m x d copy that Lloyd does not read
    prev_obj = np.inf
    for it in range(1, DEFAULT_MAX_ITER + 1):
        if d == 1:
            run_labels, edges = _assign_sorted(xs, centroids)
            counts = np.zeros(c, dtype=np.intp)
            counts[run_labels] = np.diff(edges)
            labels = None if counts.all() else _value_labels(
                pts[:, 0], _run_starts(xs, edges), run_labels)
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
        if np.isfinite(prev_obj) and prev_obj - obj <= DEFAULT_REL_TOL * prev_obj:
            break
        prev_obj = obj

    if labels is None:
        variances = np.empty((c, 1))
        variances[run_labels, 0] = sse / np.diff(edges)
        starts = _run_starts(xs, edges)
        del xs  # the sorted copy, m floats: the lookup reads only the run starts
        labels = _value_labels(pts[:, 0], starts, run_labels)
    else:
        variances = _cluster_means(labels, sq_resid, counts)
    return ClusterResult(centroids, variances, labels, obj, it)


def kmeans_best_of(points, c: int, seed: int, restarts: int = 1) -> ClusterResult:
    """Best of `restarts` kmeans runs (seeds seed+0 .. seed+restarts-1,
    mod 2**64); ties go to the lowest restart index."""
    if restarts < 1:
        raise DataError("restarts must be >= 1")
    check_seed(seed)
    return min((kmeans(points, c, (seed + r) % 2**64) for r in range(restarts)),
               key=lambda res: res.objective)
