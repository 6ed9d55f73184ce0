"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: clustering by
exhaustive assignment enumeration, the 1-D optimum by dynamic programming
over the sorted values, nearest centroids by explicit differences,
neighbors by a full cosine table, d = 1 labels by one binary search per
value among the runs' first values, the d = 1 update from each run's two
end segments around its whole blocks, k-means++ seeding over the whole
array at once (only the row hashes, the uniform stream and the mass block size are
shared with the library), index bits through a count x bits shift table,
word2vec text by one float() per value, top-k neighbours by a float64 table
of every block's scores and argpartition, the RMSE and mean cosine from
whole float64 copies of both matrices, and splitmix64 (Steele, Lea & Flood
2014) in Python integers from its published constants.
"""

import struct
from typing import BinaryIO

import numpy as np

from gpq import DataError, EmbeddingMatrix, FormatError
from gpq.kmeans import _MASS_BLOCK
from gpq.rng import SplitMix64, row_hashes


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_mix(z: int) -> int:
    """The splitmix64 finalizer of one 64-bit integer."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def splitmix64_outputs(seed: int, n: int, skip: int = 0) -> list[int]:
    """Outputs skip + 1 .. skip + n of splitmix64 from state seed: the state
    gains the golden gamma before each output is mixed from it."""
    return [splitmix64_mix((seed + k * _SPLITMIX_GAMMA) % 2**64)
            for k in range(skip + 1, skip + n + 1)]


def splitmix64_uniform(word: int) -> float:
    """The top 53 bits of a 64-bit output as a double in [0, 1)."""
    return (word >> 11) / 2.0**53


def splitmix64_derive(seed: int, *parts: int) -> int:
    """A child seed: each part p, in order, is added to the state as gamma
    times p plus gamma, and the sum mixed; the result is mixed once more."""
    h = seed
    for p in parts:
        h = splitmix64_mix((h + _SPLITMIX_GAMMA * p + _SPLITMIX_GAMMA) % 2**64)
    return splitmix64_mix(h)


def splitmix64_row_hash(row, seed: int) -> int:
    """Hash of one row of floats: the mixed seed, then each value's binary64
    bits XORed in and mixed, in column order."""
    h = splitmix64_mix(seed)
    for x in row:
        h = splitmix64_mix(h ^ struct.unpack("<Q", struct.pack("<d", float(x)))[0])
    return h


def brute_force_kmeans_objective(points, c: int) -> float:
    """Minimum within-cluster sum of squares over all assignments of
    m points to c non-empty clusters, with mean centroids."""
    pts = np.asarray(points, dtype=np.float64)
    m, d = pts.shape
    n_assign = c**m
    grid = np.indices((c,) * m).reshape(m, n_assign).T  # (P, m)
    onehot = (grid[:, :, None] == np.arange(c)[None, None, :]).astype(np.float64)
    counts = onehot.sum(axis=1)  # (P, c)
    valid = np.all(counts > 0, axis=1)
    onehot, counts = onehot[valid], counts[valid]
    sums = np.einsum("pmc,md->pcd", onehot, pts)
    means = sums / counts[:, :, None]
    total_sq = np.sum(pts**2)
    objs = total_sq - np.sum(counts * np.sum(means**2, axis=2), axis=1)
    return float(objs.min())


def optimal_kmeans_1d_objective(values, c: int) -> float:
    """Minimum within-cluster sum of squares of 1-D values over c non-empty
    clusters: the O(c m^2) dynamic programme of Wang & Song (2011,
    Ckmeans.1d.dp) over the sorted values. An optimal cluster is a run of
    them; each run's SSE takes two passes, its mean, then its squared
    deviations from it."""
    xs = np.sort(np.asarray(values, dtype=np.float64).ravel())
    m = xs.size
    sse = np.full((m + 1, m + 1), np.inf)  # sse[i, j]: the run xs[i:j]
    for i in range(m):
        for j in range(i + 1, m + 1):
            dev = xs[i:j] - xs[i:j].mean()
            sse[i, j] = dev @ dev
    best = sse[0].copy()  # best[j]: xs[:j] in one cluster
    for _ in range(1, c):
        # one more cluster: the last run xs[i:j] after the best of xs[:i]
        best = np.min(best[:, None] + sse, axis=0)
    return float(best[m])


def brute_force_nearest(points, centroids):
    """Index of the nearest centroid to each point by squared Euclidean
    distance from explicit differences; ties go to the lowest index."""
    pts = np.asarray(points, dtype=np.float64)
    d2 = ((pts[:, None, :] - np.asarray(centroids)[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def brute_force_topk_cosine(values, k: int) -> list[list[int]]:
    """Top-k cosine neighbors per row, most similar first, self excluded,
    ties to lower index."""
    x = np.asarray(values, dtype=np.float64)
    out = []
    for i in range(len(x)):
        sims = []
        for j in range(len(x)):
            if j == i:
                continue
            denom = np.linalg.norm(x[i]) * np.linalg.norm(x[j])
            sims.append((-(x[i] @ x[j]) / (denom if denom else 1.0), j))
        sims.sort()
        out.append([j for _, j in sims[:k]])
    return out


def float64_rmse_and_mean_cosine(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """RMSE and mean row cosine (0 at a zero row) of two float32 matrices,
    from whole float64 copies of both."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    rmse = float(np.sqrt(np.mean((a - b) ** 2)))
    denom = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    denom[denom == 0.0] = 1.0
    return rmse, float(np.mean(np.sum(a * b, axis=1) / denom))


def argpartition_topk_neighbors(values: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the k most cosine-similar other rows, per row, most
    similar first. Ties resolve to the lower row index.

    Rows are scored in blocks of about _BLOCK_BYTES of float64
    similarities (at least one row), so no temporary grows with V^2.
    argpartition picks k candidates per row; a row with more than k
    similarities at or above its k-th value has a tie the partition may
    have cut arbitrarily, and only such rows are re-ranked by a stable
    argsort.
    """
    _BLOCK_BYTES = 1 << 24
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


def brute_force_sorted_plus_plus(points, c: int, seed: int, block: int) -> np.ndarray:
    """k-means++ centers by D² mass over the points in canonical order:
    ascending values when d = 1, else ascending row_hashes(points, seed),
    equal hashes in input order. Step k takes the k-th uniform u of
    SplitMix64(seed) and recomputes d2 over all points from all chosen
    centers, summing squared coordinate differences in coordinate order.
    Step 0, and any step where every d2 is 0, takes canonical index
    floor(u * m). Otherwise the points, padded with d2 = 0 to whole blocks
    of `block`, get running sums within each block and running sums of the
    block totals; the pick is the first block whose running total exceeds u
    times the total, then the first point of it whose running sum plus the
    previous blocks' total exceeds it. When u times a subnormal total rounds
    up to the total, nothing exceeds it: the pick is then the last block of
    positive mass and that block's last point of positive d2, so no point of
    d2 = 0 is picked while the total is positive. The total is finite:
    kmeans takes only points within binary32 range."""
    pts = np.asarray(points, dtype=np.float64)
    m, d = pts.shape
    pts = (np.sort(pts, axis=0) if d == 1
           else pts[np.argsort(row_hashes(pts, seed), kind="stable")])
    centers = []
    for u in SplitMix64(seed).uniforms(c):
        idx = int(u * m)
        if centers:
            diff = pts[:, None, :] - np.array(centers)[None, :, :]
            sq = diff[:, :, 0] ** 2
            for j in range(1, d):
                sq = sq + diff[:, :, j] ** 2
            d2 = np.append(np.min(sq, axis=1), np.zeros(-m % block)).reshape(-1, block)
            runs = np.cumsum(d2, axis=1)
            totals = np.cumsum(runs[:, -1])
            total = totals[-1]
            if total > 0:
                target = u * total
                over = totals > target
                b = int(np.argmax(over) if over.any() else np.flatnonzero(runs[:, -1])[-1])
                over = (totals[b - 1] if b else 0.0) + runs[b] > target
                idx = b * block + int(np.argmax(over) if over.any() else np.flatnonzero(d2[b])[-1])
        centers.append(pts[idx])
    return np.array(centers)


def plain_lloyd(points, c: int, seed: int):
    """Lloyd's k-means as one plain loop, the library's reference: centers
    from brute_force_sorted_plus_plus at the library's block size, labels
    from brute_force_nearest. While a cluster is empty, the lowest empty one
    takes the point farthest from its centroid among clusters of two or
    more (first index on ties), and the labels are counted again. Means sum
    by np.add.at. Stops when the labels repeat, when the objective improves
    by 1e-6 of itself or less, or after 100 iterations. Returns (labels,
    centroids, objective, iterations, repairs), repairs counting the points
    moved."""
    pts = np.asarray(points, dtype=np.float64)
    centroids = brute_force_sorted_plus_plus(pts, c, seed, _MASS_BLOCK)
    labels = np.full(len(pts), -1)
    prev, repairs = np.inf, 0
    for it in range(1, 101):
        new = brute_force_nearest(pts, centroids)
        while True:
            counts = np.bincount(new, minlength=c)
            empty = np.flatnonzero(counts == 0)
            if empty.size == 0:
                break
            dist = np.sum((pts - centroids[new]) ** 2, axis=1)
            dist[counts[new] < 2] = -np.inf
            donor = np.argmax(dist)
            new[donor] = empty[0]
            centroids[empty[0]] = pts[donor]
            repairs += 1
        stable = np.array_equal(new, labels)
        labels = new
        sums = np.zeros((c, pts.shape[1]))
        np.add.at(sums, labels, pts)
        centroids = sums / counts[:, None]
        obj = float(np.sum((pts - centroids[labels]) ** 2))
        if stable or (np.isfinite(prev) and prev - obj <= 1e-6 * prev):
            break
        prev = obj
    return labels, centroids, obj, it, repairs


def searchsorted_value_labels(values, xs, labels, edges) -> np.ndarray:
    """Labels of values under the runs (labels, edges) of their ascending
    copy xs, by a binary search of every value among the runs' first values
    (an empty run's first value is its successor's, or inf at the end)."""
    inner = edges[1:-1]
    firsts = np.where(inner < xs.size, xs[np.minimum(inner, xs.size - 1)], np.inf)
    return labels[np.searchsorted(firsts, values, "right")]


def segment_run_moments(xs: np.ndarray, block: int,
                        moments: tuple[np.ndarray, np.ndarray, np.ndarray],
                        edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(means, SSE) of the non-empty runs xs[edges[i]:edges[i + 1]], given
    moments = _block_moments(xs, block), with each run's values outside its
    whole blocks found by end-segment arithmetic: [lo, left) and [right, hi)
    around the blocks wholly inside it. It feeds the same bincounts in the
    same order as the library's _run_moments, so it is a bit-exact referee."""
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


def pack_indices(values: np.ndarray, bits: int) -> bytes:
    """Pack a flat integer array at `bits` bits per entry, MSB-first."""
    if bits == 0:
        return b""
    vals = np.asarray(values, dtype=np.uint32).ravel()
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint32)
    bitarr = ((vals[:, None] >> shifts) & 1).astype(np.uint8).ravel()
    return np.packbits(bitarr).tobytes()


def unpack_indices(data: bytes, count: int, bits: int) -> np.ndarray:
    if bits == 0:
        return np.zeros(count, dtype=np.uint32)
    bitarr = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    needed = count * bits
    if bitarr.size < needed:
        raise FormatError("truncated index section")
    weights = (1 << np.arange(bits - 1, -1, -1, dtype=np.uint32))
    return bitarr[:needed].reshape(count, bits).astype(np.uint32) @ weights


def load_word2vec_text(source: BinaryIO) -> EmbeddingMatrix:
    """Parse the word2vec text format into an EmbeddingMatrix."""
    # an undecodable byte cannot be part of the two integers: it fails below
    header = source.readline().decode("utf-8", errors="replace").strip()
    parts = header.split()
    if len(parts) != 2:
        raise DataError(f"malformed header: {header!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataError(f"malformed header: {header!r}") from None
    if count < 1 or dim < 1:
        raise DataError(f"malformed header: rows={count} cols={dim}")

    # rows are kept as they arrive: a header claiming more rows than the
    # file holds must fail as a row count mismatch, not size an allocation
    rows: list[np.ndarray] = []
    vocab: list[str] = []
    seen: set[str] = set()
    try:
        for i in range(count):
            line = source.readline().decode("utf-8").strip()
            if not line:
                raise DataError(f"row count mismatch: expected {count} rows, got {i}")
            fields = line.split()
            if len(fields) != dim + 1:
                raise DataError(
                    f"dim mismatch at row {i}: expected {dim} values, got {len(fields) - 1}")
            token = fields[0]
            if token in seen:
                raise DataError(f"duplicate token {token!r}")
            seen.add(token)
            vocab.append(token)
            try:
                # beyond binary32 range casts to inf, which the check below reports
                with np.errstate(over="ignore"):
                    row = np.array([float(f) for f in fields[1:]], dtype=np.float32)
            except ValueError:
                raise DataError(f"unparseable value at row {i}") from None
            if not np.all(np.isfinite(row)):
                raise DataError(f"non-finite value at row {i}")
            rows.append(row)
    except UnicodeDecodeError:
        raise DataError(f"row {i} is not UTF-8 text") from None
    # trailing blank lines are fine; a row beyond the header's count is not
    while line := source.readline():
        if line.decode("utf-8", errors="replace").strip():
            raise DataError(f"row count mismatch: expected {count} rows, got more")
    return EmbeddingMatrix(np.stack(rows), vocab)
