import numpy as np
import pytest

from gpq import (DataError, EmbeddingMatrix, PartitionKind, PartitionScheme,
                 ReconstructMode, codec, gpq_compress, partition, pq_compress,
                 reconstruct, size_report)

STRUCT = PartitionKind.STRUCTURED
UNIFIED = PartitionKind.UNIFIED


def emb(values, vocab=None):
    return EmbeddingMatrix(np.asarray(values, dtype=np.float32), vocab)


@pytest.fixture
def four_by_four():
    return emb([[0, 0, 9, 9], [0, 0, 9, 9], [5, 5, 1, 1], [5, 5, 1, 1]])


class TestPartition:
    def test_structured(self):
        e = emb(np.arange(8).reshape(2, 4))
        blocks = partition(e, PartitionScheme(STRUCT, 2))
        assert blocks.shape == (2, 2, 2)
        assert np.array_equal(blocks[0], [[0, 1], [4, 5]])
        assert np.array_equal(blocks[1], [[2, 3], [6, 7]])
        assert np.shares_memory(blocks, e.values)

    def test_unified(self):
        e = emb(np.arange(8).reshape(2, 4))
        stacked = partition(e, PartitionScheme(UNIFIED, 2))
        assert stacked.shape == (1, 4, 2)
        assert np.array_equal(stacked[0], [[0, 1], [4, 5], [2, 3], [6, 7]])

    @pytest.mark.parametrize("kind", [STRUCT, UNIFIED])
    def test_single_group_identity(self, kind):
        e = emb(np.arange(8).reshape(2, 4))
        got = partition(e, PartitionScheme(kind, 1))
        assert got.shape == (1, 2, 4)
        assert np.array_equal(got[0], e.values)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        e = emb(rng.normal(size=(6, 8)))
        blocks = partition(e, PartitionScheme(STRUCT, 4))
        assert np.array_equal(np.hstack(blocks), e.values)
        stacked = partition(e, PartitionScheme(UNIFIED, 4))
        assert np.array_equal(stacked.reshape(blocks.shape), blocks)

    def test_non_dividing_groups(self):
        with pytest.raises(DataError, match="does not divide"):
            partition(emb(np.zeros((2, 4))), PartitionScheme(STRUCT, 3))


class TestCompress:
    def test_identical_rows_single_cluster(self):
        e = emb(np.tile([1.0, 2.0, 3.0, 4.0], (5, 1)))
        q = pq_compress(e, PartitionScheme(STRUCT, 2), 1, seed=0)
        assert np.all(q.index_matrix == 0)
        assert reconstruct(q) == e
        # unified shares one codebook, so exactness needs identical sub-vectors
        e2 = emb(np.tile([1.5, 2.5], (5, 2)))
        q2 = pq_compress(e2, PartitionScheme(UNIFIED, 2), 1, seed=0)
        assert np.all(q2.index_matrix == 0)
        assert reconstruct(q2) == e2

    def test_structured_exact(self, four_by_four):
        q = pq_compress(four_by_four, PartitionScheme(STRUCT, 2), 2, seed=0, restarts=4)
        assert reconstruct(q) == four_by_four

    def test_unified_exact(self, four_by_four):
        q = pq_compress(four_by_four, PartitionScheme(UNIFIED, 2), 4, seed=0, restarts=8)
        assert reconstruct(q) == four_by_four

    def test_gpq_matches_pq_clustering(self, four_by_four):
        for kind, c in ((STRUCT, 2), (UNIFIED, 4)):
            scheme = PartitionScheme(kind, 2)
            p = pq_compress(four_by_four, scheme, c, seed=3, restarts=4)
            g = gpq_compress(four_by_four, scheme, c, seed=3, restarts=4)
            assert np.array_equal(p.index_matrix, g.index_matrix)
            assert np.array_equal(p.codebook_means, g.codebook_means)
            assert p.codebook_vars is None and g.codebook_vars is not None

    def test_gpq_zero_variance_on_tight_clusters(self, four_by_four):
        q = gpq_compress(four_by_four, PartitionScheme(STRUCT, 2), 2, seed=0, restarts=4)
        assert np.all(q.codebook_vars == 0.0)

    def test_gpq_population_variance(self):
        # two 1-d sub-vectors {0, 2} in one cluster: mean 1, variance 1
        e = emb([[0.0], [2.0]])
        q = gpq_compress(e, PartitionScheme(STRUCT, 1), 1, seed=0)
        assert q.codebook_means[0, 0, 0] == 1.0
        assert q.codebook_vars[0, 0, 0] == 1.0

    def test_single_group_schemes_agree(self):
        rng = np.random.default_rng(5)
        e = emb(rng.normal(size=(12, 3)))
        qs = pq_compress(e, PartitionScheme(STRUCT, 1), 3, seed=9, restarts=2)
        qu = pq_compress(e, PartitionScheme(UNIFIED, 1), 3, seed=9, restarts=2)
        assert np.array_equal(qs.index_matrix, qu.index_matrix)
        assert np.array_equal(qs.codebook_means, qu.codebook_means)

    def test_cluster_count_errors(self, four_by_four):
        with pytest.raises(DataError, match="exceeds"):
            pq_compress(four_by_four, PartitionScheme(STRUCT, 2), 5, seed=0)
        with pytest.raises(DataError, match="exceeds"):
            pq_compress(four_by_four, PartitionScheme(UNIFIED, 2), 9, seed=0)
        # unified can use up to g*|V| clusters
        pq_compress(four_by_four, PartitionScheme(UNIFIED, 2), 8, seed=0)

    @pytest.mark.parametrize("fn", [pq_compress, gpq_compress])
    def test_container_round_trip_with_vocab(self, fn):
        rng = np.random.default_rng(9)
        e = emb(rng.normal(size=(6, 4)), ["a", "b", "c", "d", "e", "f"])
        q = fn(e, PartitionScheme(UNIFIED, 2), 3, seed=1)
        assert codec.decode(codec.encode(q)) == q


class TestReconstruct:
    def test_error_equals_clustering_objective(self):
        rng = np.random.default_rng(1)
        e = emb(rng.normal(size=(40, 8)))
        for kind in (STRUCT, UNIFIED):
            q = pq_compress(e, PartitionScheme(kind, 4), 5, seed=2, restarts=2)
            recon = reconstruct(q)
            frob = np.sum((e.values.astype(np.float64) - recon.values) ** 2)
            from gpq.kmeans import kmeans_best_of
            from gpq.rng import derive_seed
            obj = sum(kmeans_best_of(b, 5, derive_seed(2, i), 2).objective
                      for i, b in enumerate(partition(e, q.scheme)))
            assert frob == pytest.approx(obj, rel=1e-5)

    def test_sample_zero_variance_equals_mean(self, four_by_four):
        q = gpq_compress(four_by_four, PartitionScheme(STRUCT, 2), 2, seed=0, restarts=4)
        mean = reconstruct(q, ReconstructMode.MEAN)
        for seed in range(20):
            sample = reconstruct(q, ReconstructMode.SAMPLE, seed=seed)
            assert np.array_equal(sample.values, mean.values)

    def test_sample_requires_variances(self, four_by_four):
        q = pq_compress(four_by_four, PartitionScheme(STRUCT, 2), 2, seed=0)
        with pytest.raises(DataError, match="variance"):
            reconstruct(q, ReconstructMode.SAMPLE, seed=0)

    def test_sample_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        e = emb(rng.normal(size=(20, 4)))
        q = gpq_compress(e, PartitionScheme(UNIFIED, 2), 3, seed=1)
        a = reconstruct(q, ReconstructMode.SAMPLE, seed=5)
        b = reconstruct(q, ReconstructMode.SAMPLE, seed=5)
        c = reconstruct(q, ReconstructMode.SAMPLE, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_rmse_non_increasing_in_clusters(self):
        rng = np.random.default_rng(12)
        centers = rng.normal(scale=4.0, size=(8, 8))
        e = emb(centers[rng.integers(0, 8, size=64)] + rng.normal(scale=0.3, size=(64, 8)))
        rmses = []
        for c in (1, 2, 4, 8):
            q = gpq_compress(e, PartitionScheme(UNIFIED, 2), c, seed=0, restarts=32)
            recon = reconstruct(q)
            rmses.append(float(np.sqrt(np.mean((e.values - recon.values) ** 2))))
        assert all(a >= b - 1e-12 for a, b in zip(rmses, rmses[1:]))


class TestSizeReport:
    def test_paper_parameter_counts(self):
        from gpq import compute_size_report
        pq_s = compute_size_report(32000, 512, PartitionScheme(STRUCT, 512), 50, False)
        pq_u = compute_size_report(32000, 512, PartitionScheme(UNIFIED, 512), 50, False)
        gpq_u = compute_size_report(32000, 512, PartitionScheme(UNIFIED, 512), 50, True)
        assert pq_s.float_params == 25600
        assert pq_u.float_params == 50
        assert gpq_u.float_params == 100
        assert pq_s.int_params == 16384000
        assert gpq_u.storable_bytes == 12288400

    def test_single_cluster_free_index(self):
        e = emb(np.random.default_rng(0).normal(size=(10, 4)))
        q = pq_compress(e, PartitionScheme(STRUCT, 1), 1, seed=0)
        rep = size_report(q)
        assert rep.theoretical_bits == 4 * 32
        assert rep.storable_bits == 4 * 32
        assert rep.storable_bits >= rep.theoretical_bits

    def test_storable_matches_encoded_payload(self):
        rng = np.random.default_rng(8)
        for kind, g, c, gpq_flag in [(STRUCT, 3, 4, False), (STRUCT, 2, 5, True),
                                     (UNIFIED, 3, 7, False), (UNIFIED, 6, 3, True)]:
            e = emb(rng.normal(size=(11, 6)))
            fn = gpq_compress if gpq_flag else pq_compress
            q = fn(e, PartitionScheme(kind, g), c, seed=4)
            rep = size_report(q)
            data = codec.encode(q)
            assert codec.payload_length(data) * 8 == rep.storable_bits

    def test_storable_at_least_theoretical(self):
        from gpq import compute_size_report
        for c in (1, 2, 3, 50, 63, 64, 1024):
            rep = compute_size_report(100, 16, PartitionScheme(STRUCT, 4), min(c, 100), False)
            assert rep.storable_bits >= rep.theoretical_bits

    @pytest.mark.parametrize("rows, cols, c", [(10, 4, 0), (10, 4, -1), (10, 0, 2), (0, 4, 2)])
    def test_numbers_no_container_carries_rejected(self, rows, cols, c):
        from gpq import compute_size_report
        with pytest.raises(DataError):
            compute_size_report(rows, cols, PartitionScheme(STRUCT, 2), c, False)
