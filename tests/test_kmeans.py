import math
import sys
import tracemalloc

import numpy as np
import pytest

from gpq import DataError, kmeans, kmeans_best_of
from gpq.kmeans import (_CHUNK_ROWS, _assign_dense, _assign_sorted, _block_moments, _canonical,
                        _run_moments, _seed, _value_labels)
from gpq.rng import SplitMix64

from _oracles import (brute_force_kmeans_objective, brute_force_nearest,
                      brute_force_sorted_plus_plus, plain_lloyd)

KMEANS = sys.modules[_seed.__module__]  # gpq.kmeans is also a function name


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
    # seeding picks from the rows in an order of their content hashes, so
    # the centroids are order independent up to float summation
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
    lambda: kmeans(np.zeros(3), 1, seed=0),
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
    # At d = 1 the objective sums the runs' SSE, not the residuals in input
    # order as plain_lloyd does, so it may differ by m ulps of itself, the
    # bound of the at-scale test below.
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
            assert res.iterations == iterations
            if d == 1:
                m = len(pts)
                assert abs(res.objective - objective) <= m * np.finfo(np.float64).eps * objective
            else:
                assert res.objective == objective
            repairs += moved
    assert repairs > 0


@pytest.mark.parametrize("trial", range(9))
def test_sorted_kernel_matches_plain_lloyd_at_scale(trial):
    # m of a few thousand float32 values and c up to 64, in three kinds:
    # halves from -8 to 8 (33 distinct values, so c may exceed them and
    # empty clusters are repaired), quarters from -10 to 10 (repeats, and
    # points on midpoints between centroids), and Gaussian values. Labels
    # and iterations must be equal. Means may sum in another order than
    # plain_lloyd's, so centroids may differ by m float64 ulps of the largest
    # value, and the objective by m ulps of itself.
    rng = np.random.default_rng([7, trial])
    m, c = int(rng.integers(2000, 5000)), int(rng.integers(2, 65))
    kind = trial % 3
    if kind == 0:
        pts = rng.integers(-16, 17, size=(m, 1)) / 2
    elif kind == 1:
        pts = rng.integers(-40, 41, size=(m, 1)) / 4
    else:
        pts = rng.normal(size=(m, 1))
    pts = pts.astype(np.float32)
    res = kmeans(pts, c, seed=trial)
    labels, centroids, objective, iterations, _ = plain_lloyd(pts, c, trial)
    assert np.array_equal(res.assignments, labels)
    assert res.iterations == iterations
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(res.centroids - centroids) <= m * eps * float(np.abs(pts).max()))
    assert abs(res.objective - objective) <= m * eps * objective


def test_sorted_kmeans_memory_bound():
    # the 1-D kernel may not buy speed with memory: at paper size m is 16.4M,
    # and each m-long float64 array is 125 MiB of RSS
    m = 4 * _CHUNK_ROWS
    pts = np.random.default_rng(0).normal(size=(m, 1))
    tracemalloc.start()
    try:
        kmeans(pts, 50, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: 2.30 arrays (the sorted copy, the seeding's d2 and its buffer
    # of _CHUNK_ROWS points); 0.2 arrays of margin for small temporaries
    assert peak < 2.5 * m * 8


@pytest.mark.parametrize("case", ["blocks", "repair"])
def test_sorted_kmeans_ignores_row_order(monkeypatch, case):
    # d = 1 means, variances and objective are those of runs of the sorted
    # values, so a row permutation leaves them bit-identical and permutes the
    # assignments. "blocks": m >> B, no empty cluster. "repair": one
    # iteration repairs an empty cluster, whose update sums in input order;
    # its means only feed the next assignment.
    repairs = []
    repair = KMEANS._repair_empty
    monkeypatch.setattr(KMEANS, "_repair_empty", lambda *a: repairs.append(1) or repair(*a))
    if case == "blocks":
        rng = np.random.default_rng(21)
        (m, c), seeds = (20000, 20), range(3)
        pts = rng.normal(size=(m, 1))
        assert m // math.isqrt(m // c) > 20 * c  # whole blocks per run
    else:
        # eight clumps of ten-odd points, 50 clusters; found by a search over
        # the clumps' seed for a run that repairs
        rng = np.random.default_rng(1441)
        (m, c), seeds = (120, 50), [1441]
        pts = rng.integers(0, 8, size=(m, 1)) * 10 + rng.normal(size=(m, 1))
    perm = np.random.default_rng(0).permutation(m)
    for seed in seeds:
        a, b = kmeans(pts, c, seed), kmeans(pts[perm], c, seed)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.variances, b.variances)
        assert np.array_equal(a.assignments[perm], b.assignments)
        assert (a.objective, a.iterations) == (b.objective, b.iterations)
    assert (len(repairs) > 0) == (case == "repair")


def test_sorted_best_restart_ignores_row_order():
    # the "blocks" case above with 4 restarts: each restart's objective is
    # its runs' summed SSE, so the same restart wins whatever the row order;
    # summed in input order, the objectives differ here under the permutation
    rng = np.random.default_rng(21)
    m, c = 20000, 20
    pts = rng.normal(size=(m, 1))
    perm = np.random.default_rng(0).permutation(m)
    a, b = kmeans_best_of(pts, c, 0, restarts=4), kmeans_best_of(pts[perm], c, 0, restarts=4)
    assert a.objective == b.objective
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments[perm], b.assignments)


def two_pass_moments(xs, edges):
    """Per run, its mean and SSE from math.fsum: sum, divide, then the sum of
    squared deviations from that mean."""
    means, sse = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        means.append(math.fsum(xs[a:b]) / (b - a))
        sse.append(math.fsum((xs[a:b] - means[-1]) ** 2))
    return np.array(means), np.array(sse)


@pytest.mark.parametrize("kind", ["short", "ragged", "inside", "aligned", "unit", "one_run",
                                  "offset"])
def test_run_moments_match_two_pass(kind):
    # Tolerances fixed before the first run. A mean sums n terms, so it may
    # be off by 2 n eps max|x|. An SSE sums n squares (n eps of itself); each
    # block mean is off by up to B eps max|x|, which moves the block's
    # B (mean_b - mean)^2 by up to 2 B spread times that, n / B times; and the
    # run mean's error adds n times its square. On "offset", 1e4 + N(0, 1e-3),
    # S2 - S1^2/n would be off by about eps S2, some 1e14 times the SSE.
    rng = np.random.default_rng(14)
    if kind == "short":  # m < B
        xs, block, edges = rng.normal(size=11), 16, [0, 3, 4, 11]
    elif kind == "ragged":  # m not a multiple of B, runs of up to several blocks
        xs, block = rng.normal(size=5 * 16 + 7), 16
        edges = [0, *np.sort(rng.choice(np.arange(1, 87), 6, replace=False)), 87]
    elif kind == "inside":  # runs inside one block, or across one block edge
        xs, block, edges = rng.normal(size=64), 16, [0, 2, 5, 15, 16, 17, 30, 33, 47, 64]
    elif kind == "aligned":  # run edges on block edges
        xs, block, edges = rng.normal(size=96), 16, [0, 16, 48, 64, 65, 80, 96]
    elif kind == "unit":  # every value a block, so no run has ends
        xs, block = rng.normal(size=50), 1
        edges = [0, *np.sort(rng.choice(np.arange(1, 50), 7, replace=False)), 50]
    elif kind == "one_run":  # c = 1
        xs, block, edges = rng.normal(size=1000), 31, [0, 1000]
    else:
        xs, block = 1e4 + rng.normal(scale=1e-3, size=3000), 17
        edges = [0, *np.sort(rng.choice(np.arange(1, 3000), 9, replace=False)), 3000]
    xs, edges = np.sort(xs), np.array(edges)
    means, sse = _run_moments(xs, block, _block_moments(xs, block), edges)
    ref_means, ref_sse = two_pass_moments(xs, edges)
    eps = np.finfo(np.float64).eps
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        n, amax, spread = b - a, np.abs(xs[a:b]).max(), xs[b - 1] - xs[a]
        dmean = 2 * n * eps * amax
        assert abs(means[i] - ref_means[i]) <= dmean
        assert abs(sse[i] - ref_sse[i]) <= (n * eps * (ref_sse[i] + 2 * block * spread * amax)
                                            + n * dmean**2)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the mean of three equal float64 values can round, so the objective "
                          "of pure clusters rises by rounding noise, past the monotonicity "
                          "assert's 1e-300 absolute slack")
def test_float64_duplicates_more_clusters_than_distinct():
    kmeans(np.array([[0.1]] * 3 + [[0.2]] * 3), 3, seed=0)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="as at d = 1: the per-column mean of three equal float64 rows can "
                          "round, so the objective of pure clusters rises by rounding noise")
@pytest.mark.parametrize("pts", [[[0.1, 0.1]] * 3 + [[0.1, 0.2]] * 3,
                                 [[0.1] * 16] * 3 + [[0.2] * 16] * 3], ids=["d2", "d16"])
def test_float64_duplicate_rows_more_clusters_than_distinct(pts):
    kmeans(np.array(pts), 3, seed=0)


def sorted_nearest(pts, centroids):
    xs = np.sort(pts[:, 0])
    return _value_labels(pts[:, 0], xs, *_assign_sorted(xs, centroids))


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
    # Blocks of 2**20 // (8 c) rows: with c = 4 or 9 over 1234 rows more than
    # 65536, and with c = 256 over 70 blocks of 512 rows and a last block of
    # one row, whose product numpy may route through another BLAS call.
    rng = np.random.default_rng(8)
    for m, c in ((_CHUNK_ROWS + 1234, 4 if ties else 9), (70 * 512 + 1, 256)):
        if ties:
            # small integers: every score is exact, and repeated centroids tie
            pts = rng.integers(-2, 3, size=(m, 2)).astype(np.float64)
            grid = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-1.0, 1.0]])
            centroids = grid if c == 4 else rng.integers(-3, 4, size=(c, 2)).astype(np.float64)
        else:
            pts, centroids = rng.normal(size=(m, 2)), rng.normal(size=(c, 2))
        unchunked = np.argmin(np.sum(centroids**2, axis=1) - 2.0 * pts @ centroids.T, axis=1)
        assert np.array_equal(_assign_dense(pts, centroids), unchunked)
        if ties:
            assert np.array_equal(unchunked, brute_force_nearest(pts, centroids))


def test_dense_assignment_memory_bound():
    # the scores are held one block of about 1 MiB at a time, whatever m:
    # at m = 70000, c = 256, one block of all rows would be 137 MiB
    rng = np.random.default_rng(9)
    pts, centroids = rng.normal(size=(70000, 16)), rng.normal(size=(256, 16))
    tracemalloc.start()
    try:
        _assign_dense(pts, centroids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.fixture(params=[None, 1, 3], ids=["default", "block1", "block3"])
def mass_block(request, monkeypatch):
    """d2 block size of seeding: the module default, or 1 or 3 points."""
    if request.param is not None:
        monkeypatch.setattr(KMEANS, "_MASS_BLOCK", request.param)
    return KMEANS._MASS_BLOCK


def lift(x, d):
    """(m, d) rows of the (m, 1) values x: x itself, then cos(x + j) for
    j = 1 .. d - 1. Rows are equal exactly where values are, and finite."""
    return np.hstack([x, np.cos(x + np.arange(1.0, d))])


def seed_of(pts, c, seed):
    return _seed(_canonical(np.asarray(pts, dtype=np.float64), seed), c, seed)


@pytest.fixture(params=[None, 1, 3], ids=["default", "chunk1", "chunk3"])
def chunk_rows(request, monkeypatch):
    """Seeding's row-hash blocks and d2 update passes: the module default,
    or 1 or 3 points over d2 blocks of one point, so that a pass spans
    several blocks and the points several passes. Returns the block size."""
    if request.param is not None:
        monkeypatch.setattr(KMEANS, "_CHUNK_ROWS", request.param)
        monkeypatch.setattr(KMEANS, "_MASS_BLOCK", 1)
    return KMEANS._MASS_BLOCK


@pytest.mark.parametrize("d", [1, 2, 16])
def test_plus_plus_matches_oracle(chunk_rows, d):
    # rows of d independent coordinates, on scales spread over decades
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(40, d)) * np.exp(rng.normal(size=(40, d)))
    for seed in range(3):
        want = brute_force_sorted_plus_plus(pts, 9, seed, chunk_rows)
        assert np.array_equal(seed_of(pts, 9, seed), want)


def test_plus_plus_fewer_distinct_points_than_centers(chunk_rows):
    # three distinct points: from step 3 on the total is 0 and picks are uniform
    pts = np.array([[1.0, 2.0], [3.0, -1.0], [1.0, 2.0], [0.5, 0.5], [3.0, -1.0]] * 3)
    for seed in range(3):
        got = seed_of(pts, 7, seed)
        assert np.array_equal(got, brute_force_sorted_plus_plus(pts, 7, seed, chunk_rows))
        assert len(np.unique(got[:3], axis=0)) == 3


def test_plus_plus_sums_d2_in_coordinate_order():
    # at d = 8 numpy's row sum is pairwise, and A's squared distance from
    # the origin sums to 1.3231770000000003 in coordinate order but to
    # 1.323177 pairwise; B is placed so that the second pick of seed 4
    # lands on that one-ulp difference
    d, seed = 8, 4
    a = [0.403, 0.029, 0.006, 0.125, 0.009, 0.67, 0.526, 0.647]
    pts = np.array([np.zeros(d), a, np.eye(d)[1] * 3.3128219794066065])
    cols = _canonical(pts, seed)
    u0, u1 = SplitMix64(seed).uniforms(2).tolist()
    diff = cols.T - cols[:, int(u0 * 3)]
    coordinate = sum(diff[:, j] ** 2 for j in range(d))
    pairwise = np.sum(np.ascontiguousarray(diff ** 2), axis=1)
    picks = [int(np.argmax(np.cumsum(d2) > u1 * np.sum(d2))) for d2 in (coordinate, pairwise)]
    assert picks[0] != picks[1]
    got = seed_of(pts, 2, seed)
    assert np.array_equal(got[1], cols[:, picks[0]])
    assert np.array_equal(got, brute_force_sorted_plus_plus(pts, 2, seed, KMEANS._MASS_BLOCK))


def test_plus_plus_memory_bound():
    # d > 1: beside the points, the canonical (d, m) copy, and while it is
    # made the row hashes and their order, are m long; then d2 and two
    # buffers of _CHUNK_ROWS points, together 1.5 m here
    m = 4 * _CHUNK_ROWS
    for d in (2, 16):
        pts = np.random.default_rng(d).normal(size=(m, d))
        tracemalloc.start()
        try:
            seed_of(pts, 4, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (d + 2.2) * m * 8, d


@pytest.mark.parametrize("kind",["duplicates", "blocks", "few_distinct", "overflow"])
def test_sorted_seeding_matches_oracle(mass_block, kind):
    rng = np.random.default_rng(3)
    if kind == "duplicates":  # 13 distinct values, many repeated
        pts, c = rng.integers(-6, 7, size=(60, 1)) / 4, 9
    elif kind == "blocks":  # three default blocks and a partial one, heavy-tailed
        pts, c = rng.normal(size=(3 * 4096 + 5, 1)), 12
        pts *= np.exp(rng.normal(size=pts.shape))
    elif kind == "few_distinct":  # from step 3 on every d2 is 0
        pts, c = np.array([[2.5], [-1.0], [2.5], [7.0], [-1.0]] * 4), 8
    else:  # squares and their sum overflow to inf
        pts, c = np.array([[-1.5e308], [-1e300], [0.0], [1e200], [1e300], [1.5e308]] * 2), 5
    with np.errstate(over="ignore"):
        for d in (1, 2, 16):
            for seed in range(4):
                got = seed_of(lift(pts, d), c, seed)
                want = brute_force_sorted_plus_plus(lift(pts, d), c, seed, mass_block)
                assert np.array_equal(got, want), (d, seed)


def test_sorted_seeding_never_picks_zero_weight(mass_block):
    # 40 distinct values in runs of 1 to 9 equal points, so runs of d2 = 0
    # straddle block edges; while any d2 is positive, a pick of d2 = 0 would
    # repeat a center, so the first 40 centers must be distinct
    rng = np.random.default_rng(6)
    xs = np.repeat(np.sort(rng.normal(size=40)), rng.integers(1, 10, size=40))
    for d in (1, 2, 16):
        for seed in range(25):
            got = seed_of(lift(xs[:, None], d), 42, seed)[:, 0]
            assert np.unique(got[:40]).size == 40
            assert np.all(np.isin(got[40:], got[:40]))


def test_sorted_seeding_skips_zero_weight_at_u_zero(mass_block, monkeypatch):
    # u = 0 makes the target 0, which a point of d2 = 0 reaches but does not
    # exceed: each step must take the first point of positive d2, the next
    # distinct point in canonical order (for d = 1, the next value up)
    class Zeros:
        def __init__(self, seed):
            pass

        def uniforms(self, n):
            return np.zeros(n)

    monkeypatch.setattr(KMEANS, "SplitMix64", Zeros)
    xs = np.repeat([-2.0, 0.5, 1.0, 4.0, 9.0], [4, 1, 3, 2, 5])
    for d in (1, 2, 16):
        cols = _canonical(lift(xs[:, None], d), 0)
        first = np.sort(np.unique(cols[0], return_index=True)[1])
        got = _seed(cols, 5, seed=0)
        assert np.array_equal(got, cols[:, first].T)
        if d == 1:
            assert np.array_equal(got[:, 0], np.unique(xs))


def test_sorted_seeding_ignores_row_order(monkeypatch):
    seeds = []

    def recorded(cols, c, seed):
        seeds.append(_seed(cols, c, seed))
        return seeds[-1]

    monkeypatch.setattr(KMEANS, "_seed", recorded)
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(500, 1)).astype(np.float32)[rng.integers(0, 300, size=500)]
    perm = rng.permutation(500)
    a, b = kmeans(pts, 20, seed=4), kmeans(pts[perm], 20, seed=4)
    assert np.array_equal(seeds[0], seeds[1])
    assert np.allclose(a.centroids[a.assignments][perm], b.centroids[b.assignments],
                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", [2, 16])
def test_dense_seeding_ignores_row_order(monkeypatch, d):
    # 500 rows drawn from 300, so equal rows tie in the hash order: the
    # centers are bit-identical under a row permutation, and the centroids
    # equal up to relabeling and summation order
    seeds = []

    def recorded(cols, c, seed):
        seeds.append(_seed(cols, c, seed))
        return seeds[-1]

    monkeypatch.setattr(KMEANS, "_seed", recorded)
    rng = np.random.default_rng([12, d])
    pts = rng.normal(size=(300, d)).astype(np.float32)[rng.integers(0, 300, size=500)]
    perm = rng.permutation(500)
    for seed in range(3):
        a, b = kmeans(pts, 20, seed), kmeans(pts[perm], 20, seed)
        assert np.array_equal(seeds[-2], seeds[-1])
        assert np.allclose(a.centroids[a.assignments][perm], b.centroids[b.assignments],
                           rtol=1e-12, atol=0)
        assert a.iterations == b.iterations


def test_sorted_seeding_second_center_law():
    # On six values, over 4000 seeds: the first center is uniform, and given
    # it the second is value j with probability d2_j / sum(d2). Every count is
    # within 5 binomial standard deviations of its expectation, a bound fixed
    # before the test was first run; a center never repeats. The same holds
    # with the values lifted to rows of d = 2 and d = 16, d2 then between rows.
    xs = np.array([0.0, 1.0, 3.0, 4.0, 10.0, 12.0])
    for d in (1, 2, 16):
        rows = lift(xs[:, None], d)
        counts = np.zeros((6, 6))
        for seed in range(4000):
            first, second = seed_of(rows, 2, seed)[:, 0]
            counts[np.searchsorted(xs, first), np.searchsorted(xs, second)] += 1
        n = counts.sum(axis=1)
        assert np.all(np.abs(n - 4000 / 6) <= 5 * np.sqrt(4000 * (1 / 6) * (5 / 6)))
        d2 = np.sum((rows[None, :, :] - rows[:, None, :]) ** 2, axis=2)
        p = d2 / d2.sum(axis=1, keepdims=True)
        assert np.all(np.abs(counts - n[:, None] * p) <= 5 * np.sqrt(n[:, None] * p * (1 - p)))
        assert np.all(np.diag(counts) == 0)


def test_sorted_seeding_memory_bound():
    # beside the sorted values, only d2 is m long; the update and the pick
    # reuse one buffer of at most _CHUNK_ROWS points
    m = 4 * _CHUNK_ROWS
    xs = np.sort(np.random.default_rng(0).normal(size=m))
    tracemalloc.start()
    try:
        _seed(xs[None], 50, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * m * 8
