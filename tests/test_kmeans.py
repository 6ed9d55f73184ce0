import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import gpq.kmeans as KMEANS
from gpq import DataError, RweConfig, kmeans_best_of, rwe_generate
from gpq.kmeans import (_BUCKETS, _CHUNK_ROWS, _LOOKUP_CHUNK, _assign_dense, _assign_sorted,
                        _block_moments, _canonical, _run_moments, _run_starts, _seed,
                        _value_labels, kmeans)
from gpq.rng import SplitMix64

from _memory import traced_peak
from _oracles import (brute_force_kmeans_objective, brute_force_nearest,
                      brute_force_sorted_plus_plus, optimal_kmeans_1d_objective, plain_lloyd,
                      searchsorted_value_labels, segment_run_moments)


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


def test_1d_optimum_matches_enumeration():
    # the d = 1 instances of acceptance criterion 4's generator
    rng = np.random.default_rng(2024)
    for trial in range(200):
        m = int(rng.integers(1, 9))
        d = int(rng.integers(1, 3))
        c = int(rng.integers(1, min(m, 3) + 1))
        pts = rng.normal(scale=rng.uniform(0.5, 5.0), size=(m, d))
        if d == 1:
            opt = brute_force_kmeans_objective(pts, c)
            assert abs(optimal_kmeans_1d_objective(pts, c) - opt) <= 1e-9 * opt, trial


@pytest.mark.parametrize("trial", range(60))
def test_1d_objective_not_below_optimum(trial):
    # repeated float32 values: equal points, and at times fewer distinct
    # values than clusters
    rng = np.random.default_rng(trial)
    m, c = int(rng.integers(10, 81)), int(rng.integers(2, 9))
    pool = rng.normal(size=int(rng.integers(2, m + 1))).astype(np.float32)
    pts = rng.choice(pool, size=(m, 1)).astype(np.float64)
    opt = optimal_kmeans_1d_objective(pts, c)
    assert kmeans(pts, c, seed=trial).objective >= opt - m * np.finfo(np.float64).eps * opt


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
    lambda: kmeans(np.zeros((5, 0)), 1, seed=0),
    # no seed is taken mod 2**64, where one outside would alias one inside
    lambda: kmeans(np.zeros((2, 1)), 1, seed=-1),
    lambda: kmeans(np.zeros((2, 1)), 1, seed=2**64),
    lambda: kmeans_best_of(np.zeros((2, 1)), 1, seed=-1),
    lambda: kmeans_best_of(np.zeros((2, 1)), 1, seed=2**64),
    # points beyond binary32 range, whose squares and sums could overflow
    *[lambda f=f, pts=pts: f(np.array(pts), 2, seed=0)
      for f in (kmeans, kmeans_best_of)
      for pts in ([[1.5e308], [1.6e308], [-1e308], [0.0]], [[1e308], [-1e308], [0.0]],
                  [[1e308, 0], [-1e308, 0], [0, 0]])],
])
def test_errors(bad):
    with np.errstate(all="raise"), pytest.raises(DataError):
        bad()


def test_points_at_binary32_range_cluster():
    pts = np.array([[3.4e38], [-3.4e38], [0.0]])
    with np.errstate(all="raise"):
        for res in (kmeans(pts, 2, seed=0), kmeans_best_of(pts, 2, seed=0, restarts=2)):
            check_result_invariants(pts, res, 2)
            assert np.isfinite(res.objective)


def test_restart_seeds_wrap():
    pts = np.random.default_rng(6).normal(size=(30, 2))
    last, first = kmeans(pts, 4, 2**64 - 1), kmeans(pts, 4, 0)
    best = min((last, first), key=lambda res: res.objective)
    res = kmeans_best_of(pts, 4, 2**64 - 1, restarts=2)
    assert np.array_equal(res.centroids, best.centroids)
    assert np.array_equal(res.assignments, best.assignments)
    assert res.objective == best.objective


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
    peak = traced_peak(kmeans, pts, 50, 1)
    # measured: 2.30 arrays (the sorted copy, the seeding's d2 and its buffer
    # of _CHUNK_ROWS points); 0.2 arrays of margin for small temporaries
    assert peak < 2.5 * m * 8


def test_sorted_kmeans_frees_sorted_copy_before_labels(monkeypatch):
    # the last lookup reads only the run starts, so it starts with less than
    # the sorted copy (m floats) traced: at paper size 125 MiB of the peak
    m = 4 * _CHUNK_ROWS
    pts = np.random.default_rng(0).normal(size=(m, 1))
    held = []
    lookup = KMEANS._value_labels
    monkeypatch.setattr(KMEANS, "_value_labels",
                        lambda *a: held.append(tracemalloc.get_traced_memory()[0]) or lookup(*a))
    traced_peak(kmeans, pts, 50, 1)
    assert len(held) == 1 and held[0] < 0.5 * m * 8


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


def checked_by_referee(run_moments):
    """(checked, calls): checked calls run_moments and asserts its means and
    SSE bit for bit equal to segment_run_moments' on the same arguments;
    calls lists the arguments of every call."""
    calls = []

    def checked(*args):
        got, ref = run_moments(*args), segment_run_moments(*args)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
        calls.append(args)
        return got
    return checked, calls


@pytest.mark.parametrize("kind", ["short", "ragged", "inside", "aligned", "unit", "one_run",
                                  "offset"])
def test_run_moments_bits_match_referee_on_two_pass_cases(monkeypatch, kind):
    # the inputs of test_run_moments_match_two_pass, whose tolerances do not
    # pin bits
    checked, calls = checked_by_referee(_run_moments)
    monkeypatch.setattr(sys.modules[__name__], "_run_moments", checked)
    test_run_moments_match_two_pass(kind)
    assert len(calls) == 1


def test_run_moments_bits_match_referee_on_random_cases():
    # m in 1-400, B in 1-40, up to 12 runs whose inner edges are block
    # starts, values of the partial last block or any position; the counts
    # below check that every kind of run the ownership rule tells apart occurs
    checked, _ = checked_by_referee(_run_moments)
    rng = np.random.default_rng(34)
    seen = dict.fromkeys(["edge_on_block_start", "run_inside_block", "run_inside_tail",
                          "m_below_block"], 0)
    for _ in range(600):
        m, block = int(rng.integers(1, 401)), int(rng.integers(1, 41))
        tail = m // block * block
        inner = set()
        for _ in range(int(rng.integers(0, 12))):
            source = [np.arange(block, tail, block), np.arange(tail + 1, m),
                      np.arange(1, m)][int(rng.integers(3))]
            if source.size:
                inner.add(int(rng.choice(source)))
        edges = np.array([0, *sorted(inner), m])
        xs = np.sort(rng.normal(size=m))
        checked(xs, block, _block_moments(xs, block), edges)
        a, b = edges[:-1], edges[1:]
        seen["edge_on_block_start"] += bool(np.any((a % block == 0) & (0 < a) & (a < tail)))
        seen["run_inside_block"] += bool(np.any((a % block > 0) & (b % block > 0)
                                                & (a // block == b // block) & (b < tail)))
        seen["run_inside_tail"] += bool(tail > 0 and np.any(a >= tail))
        seen["m_below_block"] += m < block
    assert min(seen.values()) >= 20, seen


def test_run_moments_bits_match_referee_at_unified_d1_shape(monkeypatch):
    # every update of the benchmark's unified-d1 shape, RWE 2000 x 64 as 128k
    # points and c = 50 (2,560 blocks of 50), through to the last iteration's
    # runs; this run takes all DEFAULT_MAX_ITER iterations
    pts = rwe_generate(RweConfig(rows=2000, cols=64, seed=1)).values.reshape(-1, 1)
    checked, calls = checked_by_referee(_run_moments)
    monkeypatch.setattr(KMEANS, "_run_moments", checked)
    res = kmeans(pts, 50, seed=5)
    assert len(calls) == res.iterations


def test_float64_duplicates_more_clusters_than_distinct():
    pts = np.array([[0.1]] * 3 + [[0.2]] * 3)
    check_result_invariants(pts, kmeans(pts, 3, seed=0), 3)


@pytest.mark.parametrize("pts", [[[0.1, 0.1]] * 3 + [[0.1, 0.2]] * 3,
                                 [[0.1] * 16] * 3 + [[0.2] * 16] * 3], ids=["d2", "d16"])
def test_float64_duplicate_rows_more_clusters_than_distinct(pts):
    pts = np.array(pts)
    check_result_invariants(pts, kmeans(pts, 3, seed=0), 3)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 724])
@pytest.mark.parametrize("d", [1, 2, 3, 16])
@pytest.mark.parametrize("dtype, noise", [(np.float32, 1e-7), (np.float64, 1e-15)],
                         ids=["float32", "float64"])
def test_near_duplicate_rows(dtype, noise, d, seed):
    # rows a few ulps apart around a few centres can make Lloyd's objective
    # rise by rounding; at d > 1 the assignment can pick a centroid that is
    # not the nearest by direct distance
    rng = np.random.default_rng(seed)
    k, m = int(rng.integers(2, 6)), int(rng.integers(20, 80))
    pts = (rng.normal(size=(k, d))[rng.integers(0, k, size=m)]
           + rng.normal(size=(m, d)) * noise).astype(dtype)
    c = int(rng.integers(2, m // 2))
    check_result_invariants(pts, kmeans(pts, c, seed=0), c)


def sorted_nearest(pts, centroids):
    xs = np.sort(pts[:, 0])
    labels, edges = _assign_sorted(xs, centroids)
    return _value_labels(pts[:, 0], _run_starts(xs, edges), labels)


@pytest.mark.parametrize("pts,centroids", [
    # c = 1
    ([[-3.0], [0.0], [7.5]], [[2.0]]),
    # duplicate centroids: all their points go to the lowest index
    ([[0.0], [1.0], [2.0], [3.0], [4.0]], [[3.0], [1.0], [3.0], [1.0]]),
    # points on midpoints, lower-indexed neighbour above and below
    ([[1.0], [3.0], [0.0], [2.0], [4.0]], [[2.0], [0.0], [4.0]]),
    # signed zeros are one centroid value: the lowest index takes both zeros
    ([[-0.0], [1.0], [0.0], [3.0], [-1.0]], [[0.0], [-0.0], [2.0]]),
    ([[0.0], [-1.0], [-0.0], [1.0], [2.0]], [[-0.0], [2.0], [0.0]]),
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


def lookup_case(kind, buckets):
    """(values, cuts) of one label-lookup case: the values in input order,
    and the values at which runs start (see runs_from_cuts)."""
    rng = np.random.default_rng(len(kind))
    if kind == "bucket_edges":
        # xs[0] = 0 and xs[-1] = buckets give scale 1: every integer is a
        # bucket edge, and its neighbours one ulp away lie on either side
        grid = np.arange(buckets + 1.0)
        values = np.concatenate([grid, np.nextafter(grid, -1.0)[1:],
                                 np.nextafter(grid, np.inf)[:-1]])
        cuts = np.concatenate([rng.choice(values, 40), rng.choice(grid, 20)])
    elif kind == "run_starts":
        values = rng.integers(0, 30, 500) * 0.3
        cuts = rng.choice(values, 12)
    elif kind == "empty_runs":
        values = rng.normal(size=300)
        # repeated starts, one below every value, and starts above them all,
        # whose first value is inf
        cuts = [-9.0, 0.1, 0.1, 0.1, 0.5, 9.0, 9.0]
    elif kind == "zero_span":
        values, cuts = np.full(50, 2.5), [2.5, 3.0]
    elif kind == "signed_zero":
        values = rng.choice([-0.0, 0.0, -1.0, 1.0, 0.5], 200)
        cuts = [-0.0, 0.0, 0.5, 0.5]
    elif kind == "subnormal":
        values = rng.integers(0, 50, 300) * 5e-324
        cuts = [1e-322, 2e-322, 2e-322]
    elif kind == "subnormal_normal_span":
        values = np.concatenate([rng.integers(0, 50, 300) * 5e-324, [1.0, -1.0]])
        cuts = [0.0, 5e-324, 1e-322, 1.0]
    elif kind == "overflowing_span":
        values = np.concatenate([[-1e308, 1e308], rng.uniform(-1.0, 1.0, 300) * 1e308])
        cuts = [-1e308, -1e307, 0.0, 5e307, 1e308]
    elif kind == "largest_finite_span":
        # xs[-1] - xs[0] is finite, just below the largest float64
        values = np.concatenate([[-1e308, 7.9e307], rng.uniform(-1.0, 0.79, 300) * 1e308])
        cuts = [-1e308, 0.0, 7e307]
    elif kind == "one_cluster":
        values, cuts = rng.normal(size=100), []
    else:  # "chunks": many values, starts scattered over chunk boundaries
        values = rng.normal(size=5000)
        cuts = np.sort(rng.normal(size=49))
    return rng.permutation(np.asarray(values, dtype=np.float64)), np.sort(cuts)


def runs_from_cuts(xs, cuts, rng):
    """(labels, edges) as _assign_sorted gives them: run i + 1 starts at the
    first value of ascending xs that reaches cuts[i], so equal values share a
    run; labels are distinct, in a random order."""
    edges = np.concatenate(([0], np.searchsorted(xs, cuts, "left"), [xs.size]))
    return rng.permutation(edges.size - 1), edges


@pytest.mark.parametrize("buckets", [None, 4], ids=["buckets_default", "buckets4"])
@pytest.mark.parametrize("chunk", [None, 1, 3], ids=["chunk_default", "chunk1", "chunk3"])
@pytest.mark.parametrize("kind", ["bucket_edges", "run_starts", "empty_runs", "zero_span",
                                  "signed_zero", "subnormal", "subnormal_normal_span",
                                  "overflowing_span", "largest_finite_span", "one_cluster",
                                  "chunks"])
def test_value_labels_match_searchsorted(monkeypatch, kind, buckets, chunk):
    if buckets is not None:
        monkeypatch.setattr(KMEANS, "_BUCKETS", buckets)
    if chunk is not None:
        monkeypatch.setattr(KMEANS, "_LOOKUP_CHUNK", chunk)
    values, cuts = lookup_case(kind, KMEANS._BUCKETS)
    xs = np.sort(values)
    labels, edges = runs_from_cuts(xs, cuts, np.random.default_rng(7))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = _value_labels(values, _run_starts(xs, edges), labels)
    assert got.dtype == np.intp
    assert np.array_equal(got, searchsorted_value_labels(values, xs, labels, edges))


def test_value_labels_memory_bound():
    # one pass of _LOOKUP_CHUNK values at a time, each computed in its own
    # slice of the m-long intp labels: beside them, only the table and a
    # pass's mask of searched values
    m = 4 * _CHUNK_ROWS
    values = np.random.default_rng(3).normal(size=m)
    xs = np.sort(values)
    labels, edges = _assign_sorted(xs, np.quantile(xs, np.linspace(0, 1, 50))[:, None])
    peak = traced_peak(_value_labels, values, _run_starts(xs, edges), labels)
    assert peak < 8 * m + 8 * (_BUCKETS + 1) + 8 * _LOOKUP_CHUNK


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
    assert traced_peak(_assign_dense, pts, centroids) < 2 * 2**20


@pytest.fixture(params=[None, 1, 3], ids=["default", "block1", "block3"])
def mass_block(request, monkeypatch):
    """d2 block size of seeding at d > 1: the module default, or 1 or 3
    points. d = 1 seeding takes its masses from the moment table, so at d = 1
    this sets only the oracle's block."""
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
        assert traced_peak(seed_of, pts, 4, 1) < (d + 2.2) * m * 8, d


@pytest.mark.parametrize("kind",["duplicates", "blocks", "few_distinct"])
def test_sorted_seeding_matches_oracle(mass_block, kind):
    rng = np.random.default_rng(3)
    if kind == "duplicates":  # 13 distinct values, many repeated
        pts, c = rng.integers(-6, 7, size=(60, 1)) / 4, 9
    elif kind == "blocks":  # three default blocks and a partial one, heavy-tailed
        pts, c = rng.normal(size=(3 * 4096 + 5, 1)), 12
        pts *= np.exp(rng.normal(size=pts.shape))
    else:  # from step 3 on every d2 is 0
        pts, c = np.array([[2.5], [-1.0], [2.5], [7.0], [-1.0]] * 4), 8
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

    def recorded(*args):
        seeds.append(_seed(*args))
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

    def recorded(*args):
        seeds.append(_seed(*args))
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
    assert traced_peak(_seed, xs[None], 50, 1) < 1.5 * m * 8


def test_sorted_seeding_matches_oracle_at_moment_blocks():
    # d = 1 seeding takes a whole block's mass from the moment table of
    # blocks of B = isqrt(m // c) values, and the other blocks' by direct
    # sums, which are the oracle's at block B bit for bit: only the moment
    # masses round differently, so the centers must be the same. The cases
    # are float32 values, heavy-tailed, on a grid of 13 values, or drawn from
    # a pool, and are counted by the block shapes they reach. With this B,
    # m < 2 B holds only at m = 1.
    rng = np.random.default_rng(35)
    seen = dict.fromkeys(["partial", "one block", "constant", "cell in block"], 0)
    for case in range(240):
        m = 1 if case % 10 == 0 else int(np.exp(rng.uniform(np.log(2), np.log(5001))))
        c = int(rng.integers(1, min(60, m) + 1))
        if case % 3 == 0:
            values = rng.normal(size=m) * np.exp(rng.normal(size=m))
        elif case % 3 == 1:
            values = rng.integers(-6, 7, size=m) / 4
        else:
            pool = rng.normal(size=int(rng.integers(1, m + 1)))
            values = pool[rng.integers(0, pool.size, size=m)]
        xs = np.sort(values.astype(np.float32)).astype(np.float64)
        seed = int(rng.integers(0, 2**63))
        block, whole = math.isqrt(m // c), m // math.isqrt(m // c)
        got = _seed(xs[None], c, seed)
        assert np.array_equal(got, brute_force_sorted_plus_plus(xs[:, None], c, seed, block)), case
        seen["partial"] += m % block > 0
        seen["one block"] += m < 2 * block
        seen["constant"] += block > 1 and bool(np.any(
            xs[:whole * block:block] == xs[block - 1:whole * block:block]))
        # a center that lowers d2 only inside one whole block, short of filling it
        d2, inside = np.full(m, np.inf), False
        for x in got[:, 0]:
            new = (xs - x) ** 2
            low = np.flatnonzero(new < d2)
            inside |= bool(np.isfinite(d2).all() and 0 < low.size < block
                           and low[0] // block == low[-1] // block < whole)
            d2 = np.minimum(d2, new)
        seen["cell in block"] += inside
    assert min(seen.values()) >= 20, seen


def test_sorted_seeding_zero_mass_of_equal_blocks():
    # float64 runs of equal values, each filling whole blocks of B >= 7,
    # whose block means or M2 round away from the value, so a moment mass
    # taken at face value is not 0 on a chosen center. While the total is
    # positive no center may repeat: the first five are the five values.
    values, c = np.array([0.1, 0.3, 0.9, 1.1, 3.7]), 6
    for block, runs in ((7, 9), (11, 14), (13, 16)):
        xs = np.repeat(values, runs * block)
        assert math.isqrt(xs.size // c) == block
        _, means, m2 = _block_moments(xs, block)
        assert np.any((means != xs[::block]) | (m2 > 0)), block
        for seed in range(20):
            got = _seed(xs[None], c, seed)[:, 0]
            assert np.unique(got[:5]).size == 5, (block, seed)
            assert np.isin(got[5], values)


def test_sorted_seeding_target_past_a_block_sum(monkeypatch):
    # u just under 1 puts the target just under the total. Step 0 takes the
    # largest value x; the values are B - 3 others below it, then x. So all
    # mass is in block 0, a whole block in x's cell, whose moment mass may
    # round above its direct sum: then the target passes that sum, and the
    # pick must be the block's last point of positive d2, never one of its
    # trailing x (d2 = 0). Some data seeds must reach that case.
    class High:
        def __init__(self, seed):
            pass

        def uniforms(self, n):
            return np.full(n, 1 - 2.0**-53)

    passed = []
    pick = KMEANS._pick

    def spied(cum, u, block, d2_of):
        def seen(b):
            d2 = d2_of(b)
            passed.append(u * cum[-1] >= np.cumsum(d2)[-1] + (cum[b - 1] if b else 0.0))
            return d2
        return pick(cum, u, block, seen)

    monkeypatch.setattr(KMEANS, "SplitMix64", High)
    monkeypatch.setattr(KMEANS, "_pick", spied)
    block = 8
    m = 2 * block * block  # c = 2, so B = isqrt(m // 2)
    for s in range(40):
        low = np.sort(np.random.default_rng(s).uniform(0, 0.5, size=block - 3))
        xs = np.concatenate([low, np.ones(m - low.size)])
        assert np.array_equal(_seed(xs[None], 2, 0)[:, 0], [1.0, low[-1]]), s
    assert any(passed)


def test_sorted_seeding_moment_memory_bound():
    # d = 1 seeding holds no d2 of m values: given the moment table, it
    # peaks under an eighth of one m-long float64 array
    m = 4 * _CHUNK_ROWS
    xs = np.sort(np.random.default_rng(0).normal(size=m))
    moments = _block_moments(xs, math.isqrt(m // 50))
    assert traced_peak(_seed, xs[None], 50, 1, moments) < m * 8 / 8


def test_block_moments_memory_bound():
    # the table (three floats a block) and one pass of _CHUNK_ROWS values;
    # numpy's broadcasting subtract holds a ufunc buffer of np.getbufsize()
    # values (64 KiB) beside it, inside 0.2 passes of margin
    m = 4 * _CHUNK_ROWS
    xs = np.sort(np.random.default_rng(0).normal(size=m))
    for block in (8, 72, 512):
        table = 3 * (m // block) * 8
        assert traced_peak(_block_moments, xs, block) < table + 1.2 * _CHUNK_ROWS * 8, block


def test_sorted_seeding_cells_match_oracle_at_unit_blocks():
    # at m < 4 c, B = 1: every moment mass is one value's d2, exact, so the
    # centers equal the oracle's on any values, and a value the cell edges
    # give to the wrong center shows. The values are a few ulps apart, where
    # a midpoint rounds onto a neighbour, or straddle 0, where its rounding
    # is far below the squares'.
    rng = np.random.default_rng(36)
    for case in range(300):
        m = int(rng.integers(2, 60))
        c = int(rng.integers(m // 4 + 1, m + 1))
        if case % 2:
            base = float(rng.normal())
            values = base + rng.integers(-4, 5, size=m) * np.spacing(base)
        else:
            values = rng.choice([-1.0, 1.0, -3e-17, 0.0, 4e-17, 1e-20, 2.0], size=m)
        xs = np.sort(values)
        assert math.isqrt(m // c) == 1
        seed = int(rng.integers(0, 2**63))
        got = _seed(xs[None], c, seed)
        assert np.array_equal(got, brute_force_sorted_plus_plus(xs[:, None], c, seed, 1)), case


@pytest.mark.parametrize("d", [1, 2])
def test_seeding_subnormal_total(d):
    # 127 points at x = 1e-150 and one 1.6e-162 above: its d2 from x is the
    # smallest subnormal, and a whole block's moment mass underflows to 0
    # below it. A seeding that starts at x must take the other point next,
    # though u times that total rounds up to the total for u >= 1/2.
    x = 1e-150
    values = np.full(128, x)
    values[-1] += 1.6e-162
    _, means, m2 = _block_moments(values, 8)
    assert (values[-1] - x) ** 2 > 0 and m2[-1] == 8 * (means[-1] - x) ** 2 == 0
    pts = lift(values[:, None], d)
    starts = 0
    for seed in range(8):
        got = seed_of(pts, 2, seed)
        if got[0, 0] == x:
            starts += 1
            assert got[1, 0] == values[-1], seed
        # a target equal to the total picks inside the last block of mass
        res = kmeans(pts, 2, seed)
        assert d > 1 or res.objective == 0
    assert starts >= 4
