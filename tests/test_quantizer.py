import numpy as np
import pytest

import gpq.kmeans as KMEANS
from _memory import traced_peak
from gpq import (DataError, EmbeddingMatrix, PartitionKind, PartitionScheme,
                 QuantizedEmbedding, ReconstructMode, RweConfig, codec, gpq_compress,
                 partition, pq_compress, quantizer, reconstruct, rwe_generate, size_report)

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
        # row by row: sub-vector j of row r is entry r * g + j
        e = emb(np.arange(8).reshape(2, 4))
        unified = partition(e, PartitionScheme(UNIFIED, 2))
        assert unified.shape == (1, 4, 2)
        assert np.array_equal(unified[0], [[0, 1], [2, 3], [4, 5], [6, 7]])

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
        unified = partition(e, PartitionScheme(UNIFIED, 4))
        assert np.array_equal(unified[0].reshape(6, 4, 2).transpose(1, 0, 2), blocks)

    @pytest.mark.parametrize("kind", [STRUCT, UNIFIED])
    @pytest.mark.parametrize("g", [8, 64])
    def test_views_without_a_copy(self, kind, g):
        # 2000 x 64 is 500 KiB; a block view costs a few array headers
        e = emb(np.random.default_rng(0).normal(size=(2000, 64)))
        scheme = PartitionScheme(kind, g)
        assert np.shares_memory(partition(e, scheme), e.values)
        assert traced_peak(partition, e, scheme) < 4 * 1024

    def test_non_dividing_groups(self):
        with pytest.raises(DataError, match="does not divide"):
            partition(emb(np.zeros((2, 4))), PartitionScheme(STRUCT, 3))

    @pytest.mark.parametrize("kind", ["structured", "unified"])
    def test_kind_not_a_member(self, kind):
        # a str would read as unified in PartitionScheme.blocks but as
        # structured in codec.encode, giving a container decode rejects
        with pytest.raises(DataError, match="not a PartitionKind"):
            PartitionScheme(kind, 4)


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

    @pytest.mark.parametrize("kind, c", [(STRUCT, 6), (UNIFIED, 20)])
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_row_permutation_permutes_index_rows(self, monkeypatch, kind, c, restarts):
        # n/g = 1: means and variances come from the sorted values, so a
        # row permutation leaves the codebook bit-identical and permutes the
        # index rows, unless an empty cluster had to be refilled
        repairs = []
        repair = KMEANS._repair_empty
        monkeypatch.setattr(KMEANS, "_repair_empty", lambda *a: repairs.append(1) or repair(*a))
        e = rwe_generate(RweConfig(rows=300, cols=8, seed=4))
        perm = np.random.default_rng(1).permutation(e.rows)
        a, b = (gpq_compress(m, PartitionScheme(kind, 8), c, seed=2, restarts=restarts)
                for m in (e, emb(e.values[perm])))
        assert np.array_equal(a.codebook_means, b.codebook_means)
        assert np.array_equal(a.codebook_vars, b.codebook_vars)
        assert np.array_equal(a.index_matrix[perm], b.index_matrix)
        assert not repairs

    def test_cluster_count_errors(self, four_by_four):
        with pytest.raises(DataError, match="exceeds"):
            pq_compress(four_by_four, PartitionScheme(STRUCT, 2), 5, seed=0)
        with pytest.raises(DataError, match="exceeds"):
            pq_compress(four_by_four, PartitionScheme(UNIFIED, 2), 9, seed=0)
        # unified can use up to g*|V| clusters
        pq_compress(four_by_four, PartitionScheme(UNIFIED, 2), 8, seed=0)

    @pytest.mark.parametrize("fn", [pq_compress, gpq_compress])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_before_clustering(self, monkeypatch, four_by_four, fn, seed):
        calls = []
        monkeypatch.setattr(quantizer, "kmeans_best_of", lambda *a: calls.append(a))
        with pytest.raises(DataError, match="64 bits"):
            fn(four_by_four, PartitionScheme(STRUCT, 4), 2, seed=seed)
        assert not calls

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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_sample_seed_outside_64_bits(self, four_by_four, seed):
        q = gpq_compress(four_by_four, PartitionScheme(STRUCT, 2), 2, seed=0)
        with pytest.raises(DataError, match="64 bits"):
            reconstruct(q, ReconstructMode.SAMPLE, seed=seed)
        reconstruct(q, ReconstructMode.SAMPLE, seed=2**64 - 1)

    @pytest.mark.parametrize("kind", [STRUCT, UNIFIED])
    @pytest.mark.parametrize("g", [1, 2, 8])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("c", [1, 3])
    def test_mean_lookup_matches_oracle(self, kind, g, d, c):
        # entry by entry: group j of row r reads codebook j // (g // blocks)
        # at its index; c = 1 goes through a container, whose decoded index
        # is a broadcast view of one zero
        e = emb(np.random.default_rng([g, d]).normal(size=(10, g * d)))
        q = pq_compress(e, PartitionScheme(kind, g), c, seed=g)
        if c == 1:
            q = codec.decode(codec.encode(q))
            assert q.index_matrix.strides == (0, 0)
        per = g // q.scheme.blocks
        want = np.empty((10, g, d), dtype=np.float32)
        for r in range(10):
            for j in range(g):
                want[r, j] = q.codebook_means[j // per, q.index_matrix[r, j]]
        assert np.array_equal(reconstruct(q).values, want.reshape(10, g * d))

    @pytest.mark.parametrize("kind", [STRUCT, UNIFIED])
    def test_memory_bounded_by_output(self, kind):
        # 4000 x 256 at g = 256: 1M index entries and a 3.91 MiB output;
        # the gather makes no copy of the whole index
        rng = np.random.default_rng(0)
        scheme = PartitionScheme(kind, 256)
        q = QuantizedEmbedding(scheme, rng.integers(0, 50, size=(4000, 256), dtype=np.uint32),
                               rng.normal(size=(scheme.blocks, 50, 1)).astype(np.float32),
                               None, seed=0)
        assert traced_peak(reconstruct, q) < 1.5 * 4000 * 256 * 4

    @pytest.mark.parametrize("kind", [STRUCT, UNIFIED])
    @pytest.mark.parametrize("c", [1, 3])
    def test_chunked_gather_matches_fancy_index(self, monkeypatch, kind, c):
        # 1-row and 2-row chunks over 7 rows, in both modes; c = 1 goes
        # through a container, whose decoded index is a broadcast view
        e = emb(np.random.default_rng(c).normal(size=(7, 12)))
        q = codec.decode(codec.encode(gpq_compress(e, PartitionScheme(kind, 4), c, seed=1)))
        blocks = q.scheme.blocks
        index = q.index_matrix.reshape(7, blocks, -1)
        want = q.codebook_means[np.arange(blocks)[:, None], index].reshape(7, 12)
        sample = reconstruct(q, ReconstructMode.SAMPLE, seed=4).values
        for rows in (1, 2):
            monkeypatch.setattr(quantizer, "_GATHER_BYTES", rows * 12 * 4)
            assert np.array_equal(reconstruct(q).values, want)
            assert np.array_equal(reconstruct(q, ReconstructMode.SAMPLE, seed=4).values, sample)

    def test_sample_zero_variance_equals_mean(self, four_by_four):
        q = gpq_compress(four_by_four, PartitionScheme(STRUCT, 2), 2, seed=0, restarts=4)
        mean = reconstruct(q, ReconstructMode.MEAN)
        for seed in range(20):
            sample = reconstruct(q, ReconstructMode.SAMPLE, seed=seed)
            assert np.array_equal(sample.values, mean.values)

    @pytest.mark.parametrize("mode", ["sample", "bogus"])
    def test_mode_not_a_member(self, four_by_four, mode):
        # a str was read as mean mode
        q = gpq_compress(four_by_four, PartitionScheme(STRUCT, 2), 2, seed=0)
        with pytest.raises(DataError, match="not a ReconstructMode"):
            reconstruct(q, mode, seed=3)

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
            assert (len(data) - codec.HEADER_SIZE - 4) * 8 == rep.storable_bits

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
