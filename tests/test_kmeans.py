import sys
import tracemalloc

import numpy as np
import pytest

from gpq import DataError, kmeans, kmeans_best_of
from gpq.kmeans import _CHUNK_ROWS, _assign_dense, _assign_sorted, _init_plus_plus, _race
from gpq.rng import row_hashes

from _oracles import (brute_force_kmeans_objective, brute_force_nearest, brute_force_plus_plus,
                      plain_lloyd)

KMEANS = sys.modules[_init_plus_plus.__module__]  # gpq.kmeans is also a function name


def check_result_invariants(pts, res, c):
    pts = np.asarray(pts, dtype=np.float64)
    counts = np.bincount(res.assignments, minlength=c)
    assert np.all(counts > 0), "empty cluster in result"
    assert np.all(res.variances >= 0)
    for k in np.flatnonzero(counts == 1):
        assert np.all(res.variances[k] == 0)
    recomputed = float(np.sum((pts - res.centroids[res.assignments]) ** 2))
    assert res.objective == pytest.approx(recomputed, rel=1e-6, abs=1e-12)


def test_degenerate_single_cluster():
    pts = np.full((4, 1), 5.0)
    res = kmeans(pts, 1, seed=0)
    assert res.centroids[0, 0] == 5.0
    assert res.variances[0, 0] == 0.0
    assert res.objective == 0.0
    check_result_invariants(pts, res, 1)


def test_two_well_separated_1d():
    pts = np.array([[0.0], [0.0], [10.0], [10.0]])
    res = kmeans(pts, 2, seed=3)
    assert sorted(res.centroids[:, 0]) == [0.0, 10.0]
    assert np.all(res.variances == 0.0)
    assert res.objective == 0.0
    # brute force over all 2-partitions confirms this is the optimum
    assert brute_force_kmeans_objective(pts, 2) == 0.0
    check_result_invariants(pts, res, 2)


def test_two_clusters_2d_with_variance():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [9.0, 0.0], [9.0, 1.0]])
    res = kmeans_best_of(pts, 2, seed=0, restarts=8)
    got = sorted(res.centroids.tolist())
    assert got == [[0.0, 0.5], [9.0, 0.5]]
    assert sorted(res.variances.tolist()) == [[0.0, 0.25], [0.0, 0.25]]
    assert res.objective == pytest.approx(brute_force_kmeans_objective(pts, 2))
    check_result_invariants(pts, res, 2)


def test_nearest_centroid_at_convergence():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(40, 3))
    res = kmeans(pts, 4, seed=5)
    d2 = ((pts[:, None, :] - res.centroids[None]) ** 2).sum(axis=2)
    best = d2.min(axis=1)
    chosen = d2[np.arange(len(pts)), res.assignments]
    assert np.allclose(chosen, best, rtol=1e-9, atol=1e-12)
    check_result_invariants(pts, res, 4)


def test_determinism():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(30, 2))
    a = kmeans(pts, 3, seed=42)
    b = kmeans(pts, 3, seed=42)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.objective == b.objective


def test_permutation_changes_only_labels():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(25, 2))
    perm = rng.permutation(25)
    a = kmeans(pts, 3, seed=7)
    b = kmeans(pts[perm], 3, seed=7)
    # centers are selected by content hash, so the multiset of
    # (centroid, variance) pairs is order independent up to float summation
    sa = sorted(map(tuple, np.round(a.centroids, 9).tolist()))
    sb = sorted(map(tuple, np.round(b.centroids, 9).tolist()))
    assert np.allclose(sa, sb, atol=1e-9)
    assert a.objective == pytest.approx(b.objective, rel=1e-9)


def test_best_of_single_restart_identical():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(20, 2))
    a = kmeans(pts, 3, seed=17)
    b = kmeans_best_of(pts, 3, seed=17, restarts=1)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.objective == b.objective


def test_best_of_never_worse():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(30, 2))
    one = kmeans_best_of(pts, 4, seed=1, restarts=1)
    eight = kmeans_best_of(pts, 4, seed=1, restarts=8)
    assert eight.objective <= one.objective


@pytest.mark.parametrize("m,d,c,seed", [(6, 1, 2, 0), (8, 2, 3, 1), (7, 2, 2, 2), (5, 1, 3, 3),
                                        (8, 1, 4, 4)])
def test_matches_enumeration_optimum(m, d, c, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, d))
    res = kmeans_best_of(pts, c, seed=seed, restarts=32)
    opt = brute_force_kmeans_objective(pts, c)
    assert res.objective <= opt * (1 + 1e-9) + 1e-12


def test_more_clusters_than_distinct_points():
    pts = np.array([[0.0], [0.0], [1.0], [1.0]])
    res = kmeans(pts, 3, seed=0)
    check_result_invariants(pts, res, 3)
    assert res.objective == 0.0


@pytest.mark.parametrize("bad", [
    lambda: kmeans(np.zeros((2, 1)), 3, seed=0),
    lambda: kmeans(np.zeros((2, 1)), 0, seed=0),
    lambda: kmeans(np.array([[np.inf]]), 1, seed=0),
    lambda: kmeans_best_of(np.zeros((2, 1)), 1, seed=0, restarts=0),
])
def test_errors(bad):
    with pytest.raises(DataError):
        bad()


@pytest.mark.parametrize("d", [1, 2, 16])
def test_matches_plain_lloyd(d):
    # Repeated rows and c from two below to two above the distinct count:
    # per d, 50 cases, of which the 20 with c above the distinct count
    # repair empty clusters, moving 60 points in all. float32 values, as the
    # quantizer passes them: the mean of equal float32 values is exact in
    # float64, where that of equal float64 values may round (see below).
    repairs = 0
    for trial in range(10):
        rng = np.random.default_rng([d, trial])
        k = int(rng.integers(3, 20))
        pts = rng.normal(size=(k, d)).astype(np.float32)[rng.integers(0, k, size=3 * k)]
        k = len(np.unique(pts, axis=0))
        for c in range(max(1, k - 2), k + 3):
            res = kmeans(pts, c, seed=trial)
            labels, centroids, objective, iterations, moved = plain_lloyd(pts, c, trial)
            assert np.array_equal(res.assignments, labels)
            assert np.array_equal(res.centroids, centroids)
            assert (res.objective, res.iterations) == (objective, iterations)
            repairs += moved
    assert repairs > 0


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the mean of three equal float64 values can round, so the objective "
                          "of pure clusters rises by rounding noise, past the monotonicity "
                          "assert's 1e-300 absolute slack")
def test_float64_duplicates_more_clusters_than_distinct():
    kmeans(np.array([[0.1]] * 3 + [[0.2]] * 3), 3, seed=0)


def sorted_nearest(pts, centroids):
    order = np.argsort(pts[:, 0], kind="stable")
    return _assign_sorted(pts[order, 0], order, centroids)


@pytest.mark.parametrize("pts,centroids", [
    # c = 1
    ([[-3.0], [0.0], [7.5]], [[2.0]]),
    # duplicate centroids: all their points go to the lowest index
    ([[0.0], [1.0], [2.0], [3.0], [4.0]], [[3.0], [1.0], [3.0], [1.0]]),
    # points on midpoints, lower-indexed neighbour above and below
    ([[1.0], [3.0], [0.0], [2.0], [4.0]], [[2.0], [0.0], [4.0]]),
])
def test_sorted_assignment_cases(pts, centroids):
    pts, centroids = np.array(pts), np.array(centroids)
    assert np.array_equal(sorted_nearest(pts, centroids),
                          brute_force_nearest(pts, centroids))


@pytest.mark.parametrize("trial", range(30))
def test_sorted_assignment_matches_brute_force(trial):
    rng = np.random.default_rng(trial)
    m, c = int(rng.integers(1, 200)), int(rng.integers(1, 12))
    if trial % 2:
        pts, centroids = rng.normal(size=(m, 1)), rng.normal(size=(c, 1))
    else:
        # small integers and halves: duplicate centroids, exact midpoints
        pts = rng.integers(-8, 9, size=(m, 1)) / 2.0
        centroids = rng.integers(-3, 4, size=(c, 1)).astype(np.float64)
    assert np.array_equal(sorted_nearest(pts, centroids),
                          brute_force_nearest(pts, centroids))


@pytest.mark.parametrize("ties", [False, True])
def test_dense_assignment_chunks_match_one_argmin(ties):
    rng = np.random.default_rng(8)
    m = _CHUNK_ROWS + 1234
    if ties:
        pts = rng.integers(-2, 3, size=(m, 2)).astype(np.float64)
        centroids = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-1.0, 1.0]])
    else:
        pts, centroids = rng.normal(size=(m, 2)), rng.normal(size=(9, 2))
    unchunked = np.argmin(np.sum(centroids**2, axis=1) - 2.0 * pts @ centroids.T, axis=1)
    assert np.array_equal(_assign_dense(pts, centroids), unchunked)
    if ties:
        assert np.array_equal(unchunked, brute_force_nearest(pts, centroids))


@pytest.fixture(params=[None, 1, 3], ids=["default", "chunk1", "chunk3"])
def chunk_rows(request, monkeypatch):
    """Seeding block size: the module default, or 1 or 3 points."""
    if request.param is not None:
        monkeypatch.setattr(KMEANS, "_CHUNK_ROWS", request.param)
    return request.param


@pytest.mark.parametrize("d", [1, 2, 16])
def test_plus_plus_matches_oracle(chunk_rows, d):
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(40, d)) * np.exp(rng.normal(size=(40, d)))
    for seed in range(3):
        assert np.array_equal(_init_plus_plus(pts, 9, seed), brute_force_plus_plus(pts, 9, seed))


def test_plus_plus_fewer_distinct_points_than_centers(chunk_rows):
    # three distinct points: from step 3 on every key is infinite
    pts = np.array([[1.0, 2.0], [3.0, -1.0], [1.0, 2.0], [0.5, 0.5], [3.0, -1.0]] * 3)
    for seed in range(3):
        got = _init_plus_plus(pts, 7, seed)
        assert np.array_equal(got, brute_force_plus_plus(pts, 7, seed))
        assert len(np.unique(got[:3], axis=0)) == 3


@pytest.mark.parametrize("weighted", [False, True])
def test_race_ties_go_to_lowest_index(monkeypatch, weighted):
    # duplicates draw equal keys; blocks of 1 or 3 points put a duplicate in
    # a later block than its first occurrence
    pts = np.array([[5.0], [2.0], [7.0], [2.0], [7.0], [5.0], [2.0]])
    hashes = row_hashes(pts, 0)
    d2 = (pts[:, 0] - 4.0) ** 2 if weighted else None
    for salt in range(20):
        whole = _race(hashes, salt, d2)  # one block at the default size
        assert whole[0] == np.flatnonzero(pts[:, 0] == pts[whole[0], 0])[0]
        for rows in (1, 3):
            monkeypatch.setattr(KMEANS, "_CHUNK_ROWS", rows)
            assert _race(hashes, salt, d2) == whole
            monkeypatch.undo()


def test_plus_plus_memory_bound():
    # beside the column view (d == 1) only the hashes and d2 are m long
    m = 4 * _CHUNK_ROWS
    pts = np.random.default_rng(0).normal(size=(m, 1))
    tracemalloc.start()
    try:
        _init_plus_plus(pts, 4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * m * 8
