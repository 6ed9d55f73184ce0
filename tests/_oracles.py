"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: clustering by
exhaustive assignment enumeration, nearest centroids by explicit
differences, neighbors by a full cosine table.
"""

import numpy as np


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
