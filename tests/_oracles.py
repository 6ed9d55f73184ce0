"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: clustering by
exhaustive assignment enumeration, nearest centroids by explicit
differences, neighbors by a full cosine table, k-means++ seeding over the
whole array at once (only the hash stream is shared with the library).
"""

import numpy as np

from gpq.rng import derive_seed, mix64, row_hashes


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


def brute_force_plus_plus(points, c: int, seed: int) -> np.ndarray:
    """k-means++ centers by exponential race over all points at once: the
    first of the smallest keys -log(1-u)/d2 wins, u from the content hash
    stream; uniform keys at step 0 and whenever no key is finite. d2 sums
    squared coordinate differences in coordinate order."""
    pts = np.asarray(points, dtype=np.float64)
    hashes = row_hashes(pts, seed)
    d2 = np.full(len(pts), np.inf)
    centers = []
    for step in range(c):
        bits = mix64(hashes ^ np.uint64(derive_seed(seed, step)))
        u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) / 2.0**53
        with np.errstate(divide="ignore"):
            key = -np.log1p(-u) / d2
        if step == 0 or not np.isfinite(key.min()):
            key = u
        centers.append(pts[np.argmin(key)])
        diff = pts - centers[-1]
        nd2 = diff[:, 0] ** 2
        for j in range(1, pts.shape[1]):
            nd2 = nd2 + diff[:, j] ** 2
        d2 = np.minimum(d2, nd2)
    return np.array(centers)
