import math
import tracemalloc

import numpy as np
import pytest

from gpq import (DataError, EmbeddingMatrix, PartitionKind, PartitionScheme, RweConfig,
                 fidelity, gpq_compress, metrics, pq_compress, reconstruct, rwe_generate)

from _memory import traced_peak
from _oracles import (argpartition_topk_neighbors, brute_force_topk_cosine,
                      float64_rmse_and_mean_cosine)


def emb(values):
    return EmbeddingMatrix(np.asarray(values, dtype=np.float32))


def _topk_cases():
    rng = np.random.default_rng(6)
    base = rng.normal(size=(6, 4))
    zeros = rng.normal(size=(10, 3))
    zeros[[1, 4, 5, 9]] = 0.0
    cases = {
        "random": rng.normal(size=(10, 4)),
        # 22 rows: enough for numpy's syrk path (a whole-table
        # unit @ unit.T) to round some copies apart
        "duplicate_rows": base[rng.integers(0, 6, 22)],
        "zero_rows": zeros,
        "two_rows_repeated": base[[0, 1, 1, 0, 0, 1, 0, 1, 1, 1]],
        # row 0's 2nd to 4th neighbours (rows 2, 4, 6) tie at 1/sqrt(2)
        "kth_tie": [[1, 0], [0, 1], [1, 1], [0, 1], [1, 1], [-1, 0],
                    [1, 1], [2, 0]],
    }
    return {name: np.asarray(v, dtype=np.float32) for name, v in cases.items()}


TOPK_CASES = _topk_cases()


def test_identity():
    e = emb(np.random.default_rng(0).normal(size=(10, 4)))
    rep = fidelity(e, e, k=3)
    assert rep.rmse == 0.0
    assert rep.mean_cosine == pytest.approx(1.0)
    assert rep.nn_overlap_at_k == 1.0


def test_sign_flip():
    vals = np.random.default_rng(1).normal(size=(8, 5)).astype(np.float32)
    e, neg = emb(vals), emb(-vals)
    rep = fidelity(e, neg, k=2)
    assert rep.mean_cosine == pytest.approx(-1.0)
    expected_rmse = np.sqrt(np.mean((vals.astype(np.float64) * 2) ** 2))
    assert rep.rmse == pytest.approx(expected_rmse)


def test_rmse_symmetric():
    rng = np.random.default_rng(2)
    a, b = emb(rng.normal(size=(6, 3))), emb(rng.normal(size=(6, 3)))
    assert fidelity(a, b, k=2).rmse == fidelity(b, a, k=2).rmse


def test_overlap_against_brute_force():
    rng = np.random.default_rng(3)
    inputs = [rng.normal(size=(8, 4)).astype(np.float32), *TOPK_CASES.values()]
    for vals in inputs:
        swapped = vals.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        for k in (1, 2, 3):
            rep = fidelity(emb(vals), emb(swapped), k=k)
            nn_a = brute_force_topk_cosine(vals, k)
            nn_b = brute_force_topk_cosine(swapped, k)
            expected = np.mean([len(set(a) & set(b)) / k for a, b in zip(nn_a, nn_b)])
            assert rep.nn_overlap_at_k == pytest.approx(expected)


def test_permuted_orthogonal_rows():
    vals = np.eye(4, dtype=np.float32)
    swapped = vals.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    rep = fidelity(emb(vals), emb(swapped), k=1)
    nn_a = brute_force_topk_cosine(vals, 1)
    nn_b = brute_force_topk_cosine(swapped, 1)
    expected = np.mean([len(set(a) & set(b)) for a, b in zip(nn_a, nn_b)])
    assert rep.nn_overlap_at_k == pytest.approx(expected)


def test_rotation_invariance():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(20, 6)).astype(np.float32)
    b = (a.astype(np.float64) + rng.normal(scale=0.1, size=a.shape)).astype(np.float32)
    rot, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    base = fidelity(emb(a), emb(b), k=4).nn_overlap_at_k
    rotated = fidelity(emb(a @ rot.astype(np.float32)),
                       emb(b @ rot.astype(np.float32)), k=4).nn_overlap_at_k
    assert rotated == pytest.approx(base, abs=1e-5)


def test_errors():
    a = emb(np.zeros((4, 2)))
    with pytest.raises(DataError, match="shape"):
        fidelity(a, emb(np.zeros((4, 3))), k=1)
    with pytest.raises(DataError, match="out of range"):
        fidelity(a, a, k=4)
    with pytest.raises(DataError, match="out of range"):
        fidelity(a, a, k=0)


@pytest.mark.parametrize("block_rows", [None, 3, 1])
@pytest.mark.parametrize("name", sorted(TOPK_CASES))
def test_topk_matches_brute_force(monkeypatch, name, block_rows):
    vals = TOPK_CASES[name]
    v = len(vals)
    if block_rows is not None:
        # 10 and 22 rows at 3 per block end in a one-row block, 8 in two
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 8 * v * block_rows)
    expected = np.array(brute_force_topk_cosine(vals, v - 1))
    for k in range(1, v):
        assert np.array_equal(metrics._topk_neighbors(vals, k), expected[:, :k])


def test_topk_tie_at_kth_goes_to_lower_index():
    vals = TOPK_CASES["kth_tie"]
    assert metrics._topk_neighbors(vals, 2)[0].tolist() == [7, 2]
    assert metrics._topk_neighbors(vals, 3)[0].tolist() == [7, 2, 4]


def test_fidelity_memory_below_one_similarity_table():
    # top-k's float32 unit copy with a block of scores and its mask, plus
    # both calls' neighbour lists; the RMSE holds no V x d buffer. The
    # similarity table is 128 MB.
    rng = np.random.default_rng(7)
    v, d, k = 4000, 128, 10
    a = rng.normal(size=(v, d)).astype(np.float32)
    e = emb(a)
    r = emb(a + rng.normal(scale=0.1, size=a.shape).astype(np.float32))
    block32 = 4 * v * metrics._block_rows(v)
    assert traced_peak(fidelity, e, r, k) < 4 * v * d + 1.5 * block32 + 2 * 8 * v * k


@pytest.mark.parametrize("shape", [(4000, 128), (2000, 64)], ids=["structured", "unified"])
def test_fidelity_rmse_and_cosine_match_whole_float64_copies(shape):
    # the benchmark shapes, rows on scales spread over decades, zero rows
    # in one matrix, the other or both: the same bits as whole copies give
    rng = np.random.default_rng(11)
    a = rwe_generate(RweConfig(*shape, seed=3)).values * np.exp(rng.normal(size=(shape[0], 1)))
    b = a + rng.normal(scale=0.05, size=shape)
    a[:3], b[1:4] = 0.0, 0.0
    a, b = a.astype(np.float32), b.astype(np.float32)
    rep = fidelity(emb(a), emb(b), k=1)
    assert (rep.rmse, rep.mean_cosine) == float64_rmse_and_mean_cosine(a, b)


@pytest.mark.parametrize("size", [1, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 1,
                                  3 * 2**16 + 5, 2**17 + 20])
def test_rmse_matches_whole_float64_copy_across_chunk_edges(size):
    # sizes about numpy's pairwise block (128) and the RMSE's chunk (2**16),
    # two of them split off a multiple of 8, as one row, one column and,
    # where size is even, two columns; values on scales spread over
    # decades. The sum of squares too has the whole copy's bits, and
    # identical matrices give 0.
    rng = np.random.default_rng(size)
    shapes = [(1, size), (size, 1)] + ([(size // 2, 2)] if size % 2 == 0 else [])
    for shape in shapes * 3:
        a = (rng.normal(size=shape) * np.exp(3 * rng.normal(size=shape))).astype(np.float32)
        b = (a + rng.normal(scale=0.05, size=shape)).astype(np.float32)
        rmse = metrics._rmse(a, b)
        assert rmse > 0.0 and rmse == float64_rmse_and_mean_cosine(a, b)[0]
        assert (metrics._squared_error_sum(a.ravel(), b.ravel())
                == np.sum(np.square(np.subtract(a, b, dtype=np.float64))))
        assert metrics._rmse(a, a.copy()) == 0.0


def test_fidelity_rmse_and_cosine_without_a_float64_copy(monkeypatch):
    # up to top-k, fidelity holds chunks of the RMSE's difference and
    # blocks of mean cosine rows, well below one float64 V x d copy
    # (32 MiB). Top-k's own memory is bounded by the tests above.
    rng = np.random.default_rng(13)
    v, d = 8192, 512
    a = rng.normal(size=(v, d)).astype(np.float32)
    b = a + rng.normal(scale=0.1, size=a.shape).astype(np.float32)
    e, r = emb(a), emb(b)
    peaks = []
    def spy(values, k):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return np.zeros((len(values), k), np.intp)
    monkeypatch.setattr(metrics, "_topk_neighbors", spy)
    tracemalloc.start()
    try:
        rep = fidelity(e, r, k=10)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2 and max(peaks) < 8 * v * d
    assert (rep.rmse, rep.mean_cosine) == float64_rmse_and_mean_cosine(a, b)


def _rwe_and_reconstruction(shape, seed):
    """RWE at a reduced benchmark shape and its PQ or GPQ reconstruction:
    structured g=8 on 128 columns, or unified d = 1 on 64."""
    rows, cols = shape
    e = rwe_generate(RweConfig(rows, cols, seed))
    if cols == 128:
        q = pq_compress(e, PartitionScheme(PartitionKind.STRUCTURED, 8), 32, seed=seed)
    else:
        q = gpq_compress(e, PartitionScheme(PartitionKind.UNIFIED, 64), 50, seed=seed)
    return e.values, reconstruct(q).values


@pytest.fixture
def rescored(monkeypatch):
    """The rows that reach _rank_survivors, the float64 re-score of a
    row's few survivors."""
    seen = set()
    def spy(unit, rows, *args, rank=metrics._rank_survivors):
        seen.update(rows.tolist())
        return rank(unit, rows, *args)
    monkeypatch.setattr(metrics, "_rank_survivors", spy)
    return seen


@pytest.mark.parametrize("block_rows", [None, 3, 1])
@pytest.mark.parametrize("shape", [(1500, 128), (700, 64)], ids=["structured", "unified"])
def test_topk_matches_argpartition_reference(monkeypatch, rescored, shape, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 8 * shape[0] * block_rows)
    for seed in (0, 1):
        for vals in _rwe_and_reconstruction(shape, seed):
            for k in (1, 10):
                rescored.clear()
                assert np.array_equal(metrics._topk_neighbors(vals, k),
                                      argpartition_topk_neighbors(vals, k))
                # the float32 order settles most rows (here at most 2.5 % re-score)
                assert len(rescored) < len(vals) / 10


def _near_tie_case():
    """Rows 0-5 differ only by one float32 ulp in coordinate 0, plus a
    private coordinate each. Against row 6 (the first axis) their float32
    scores tie in pairs, but their float64 scores are 4.5e-8 apart, and
    they are its six nearest. Then come 40 random rows, two zero rows and
    a copy of row 9: last, where gemv's column blocking (V = 50 is not a
    multiple of 4) would round it apart from row 9 for some rows."""
    d, m = 8, 6
    ties = np.zeros((m, d), dtype=np.float32)
    ties[:, 0] = 0.5
    for i in range(1, m):
        ties[i, 0] = np.nextafter(ties[i - 1, 0], np.float32(1))
    ties[np.arange(m), 1 + np.arange(m)] = 0.8
    axis = np.eye(1, d, dtype=np.float32)
    other = np.random.default_rng(8).normal(size=(40, d)).astype(np.float32)
    other[:, 0] = -abs(other[:, 0])  # farther from the first axis than rows 0-5
    return np.concatenate([ties[::-1], axis, other, np.zeros((2, d), np.float32), other[2:3]])


def test_near_tie_case_defeats_float32():
    vals = _near_tie_case()
    unit = vals[:7].astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    s32 = unit[:6].astype(np.float32) @ unit[6].astype(np.float32)
    s64 = unit[:6] @ unit[6]
    assert len(set(s32.tolist())) < 6 and np.all(np.diff(s64) < 0)


@pytest.mark.parametrize("block_rows", [None, 3, 1])
def test_topk_near_ties_duplicates_and_zero_rows(monkeypatch, block_rows):
    vals = _near_tie_case()
    v = len(vals)
    if block_rows is not None:
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 8 * v * block_rows)
    seen = {}
    for name in ("_rank_all", "_rank_survivors"):
        def spy(unit, rows, *args, rank=getattr(metrics, name), name=name):
            seen[name] |= set(rows.tolist())
            return rank(unit, rows, *args)
        monkeypatch.setattr(metrics, name, spy)
    expected = np.array(brute_force_topk_cosine(vals, v - 1))
    split_seen = set()
    for k in range(1, v - 1):
        seen.update(_rank_all=set(), _rank_survivors=set())
        assert np.array_equal(metrics._topk_neighbors(vals, k), expected[:, :k])
        # zero rows tie with every column, so they are scored against all
        assert {v - 3, v - 2} <= seen["_rank_all"]
        # the first axis keeps rows 0-5 through the screen and re-scores them
        if k <= 6:
            assert 6 in seen["_rank_survivors"]
        # a row whose k-th neighbour is one copy and whose next is the other
        for i in range(v):
            if {*expected[i, k - 1:k + 1]} == {9, v - 1}:
                split_seen |= {name for name in seen if i in seen[name]}
    assert split_seen == {"_rank_all", "_rank_survivors"}


def _gap_case(k, d=4):
    """Rows 0 and k + 2 are the first and third axes. Each is followed by
    k + 1 rows in its plane with the next axis, at float32 cosines 0.9,
    0.8, ... to it, the last 21 (row 0) or 20 (row k + 2) steps of 2**-24
    below the one before. Six zero rows follow."""
    cos = np.float32(0.9 - 0.1 * np.arange(k))
    def plane(axis, steps):
        c = np.append(cos, cos[-1] - np.float32(steps * 2.0 ** -24)).astype(np.float64)
        rows = np.zeros((k + 2, d))
        rows[0, axis] = 1
        rows[1:, axis], rows[1:, axis + 1] = c, np.sqrt(1 - c ** 2)
        return rows
    return np.concatenate([plane(0, 21), plane(2, 20), np.zeros((6, d))]).astype(np.float32)


@pytest.mark.parametrize("block_rows", [None, 3, 1])
def test_topk_float32_order_kept_where_gaps_exceed_slack(monkeypatch, rescored, block_rows):
    # the float32 scores of row 0 at positions k - 1 and k differ by just
    # more than the slack, those of row k + 2 by just less: only the second
    # needs float64
    k, d = 3, 4
    vals = _gap_case(k, d)
    v = len(vals)
    unit = vals[:2 * k + 4].astype(np.float64)
    unit = (unit / np.linalg.norm(unit, axis=1)[:, None]).astype(np.float32)
    slack = 2 * math.expm1((d + 6) * 2.0 ** -24)
    gaps = [float(unit[i + k] @ unit[i]) - float(unit[i + k + 1] @ unit[i]) for i in (0, k + 2)]
    assert gaps[1] < slack < gaps[0] and gaps[0] - gaps[1] == 2.0 ** -24
    if block_rows is not None:
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 8 * v * block_rows)
    assert np.array_equal(metrics._topk_neighbors(vals, k),
                          np.array(brute_force_topk_cosine(vals, k)))
    assert k + 2 in rescored and 0 not in rescored


def test_topk_keeps_what_float32_misorders():
    # row 0's nearest are 40 rows at cosine 0.9 + 2.5e-8 m, closer than
    # float32 scores resolve; 660 rows pointing away from row 0 follow
    d, m = 16, 40
    rng = np.random.default_rng(9)
    q = rng.normal(size=d)
    q /= np.linalg.norm(q)
    r = rng.normal(size=(m, d))
    r -= np.outer(r @ q, q)
    r /= np.linalg.norm(r, axis=1)[:, None]
    c = 0.9 + 2.5e-8 * np.arange(m)[:, None]
    far = rng.normal(size=(660, d))
    far -= np.outer(np.maximum(far @ q, 0) + 0.1, q)
    vals = np.concatenate([q[None], c * q + np.sqrt(1 - c**2) * r, far]).astype(np.float32)
    unit = vals[:m + 1].astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    neg32 = -(unit[1:].astype(np.float32) @ unit[0].astype(np.float32))
    neg64 = -(unit[1:] @ unit[0])
    dropped = 0
    for k in range(1, m, 2):
        # columns a screen without slack would keep against row 0's true top k
        kept = neg32 <= np.partition(neg32, k - 1)[k - 1]
        dropped += not kept[np.argsort(neg64, kind="stable")[:k]].all()
        assert np.array_equal(metrics._topk_neighbors(vals, k),
                              argpartition_topk_neighbors(vals, k))
    assert dropped


@pytest.mark.parametrize("block_rows", [None, 3, 1])
def test_topk_one_column_matches_brute_force(monkeypatch, block_rows):
    # at d = 1 every row re-scores its survivors, and for k > V/2 a group
    # of the screen holding only the diagonal makes its bound infinite
    vals = np.array([[0.5], [-1], [2], [0], [3], [-0.25], [1], [-2], [0], [4]], np.float32)
    v = len(vals)
    if block_rows is not None:
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 8 * v * block_rows)
    expected = np.array(brute_force_topk_cosine(vals, v - 1))
    for k in range(1, v):
        assert np.array_equal(metrics._topk_neighbors(vals, k), expected[:, :k])


def test_rescored_copies_tie_wherever_they_sit():
    # row 0's survivors end in a copy of column 1; a sum whose order
    # depends on position, such as BLAS's matrix-vector product, rounds
    # the copy apart from column 1 for some n
    rng = np.random.default_rng(10)
    for d in (8, 16, 64):
        for n in range(2, 40):
            unit = rng.normal(size=(n + 1, d))
            unit[n] = unit[1]
            ranked = metrics._rank_survivors(unit, np.zeros(n, np.intp), np.arange(1, n + 1),
                                             np.array([n]), n)[0].tolist()
            assert ranked.index(n) == ranked.index(1) + 1


def test_topk_memory_unit_copies_and_a_float32_block():
    # the float32 unit copy, one block of float32 scores and its keep mask
    # (a quarter block), with room for small arrays: no float64 copy
    rng = np.random.default_rng(7)
    v, d = 4000, 128
    a = rng.normal(size=(v, d)).astype(np.float32)
    block32 = 4 * v * metrics._block_rows(v)
    assert traced_peak(metrics._topk_neighbors, a, 10) < 4 * v * d + 1.5 * block32


def test_topk_memory_small_blocks_without_float64_unit_matrix(monkeypatch):
    # 64-row blocks shrink the screen's block below the float64 unit matrix
    # (8·v·d, 4 MB), so building that matrix when no row needs _rank_all
    # would show: the float32 unit copy, a block and its mask, the output
    rng = np.random.default_rng(7)
    v, d, k = 4000, 128, 10
    a = rng.normal(size=(v, d)).astype(np.float32)
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", 8 * v * 64)
    block32 = 4 * v * 64
    assert traced_peak(metrics._topk_neighbors, a, k) < 4 * v * d + 1.5 * block32 + 8 * v * k


def test_rank_all_memory_in_batches_of_16_mib(monkeypatch):
    # 819 zero rows at V = 8192 go to _rank_all, whose V-wide float64
    # scores and their argsort stay within 2**24 bytes each: 256-row
    # batches, not the screen's 512. Besides those and the float64 unit
    # matrix: the float32 unit copy, the output and 1 MiB of small arrays.
    rng = np.random.default_rng(12)
    v, d, k = 8192, 16, 10
    a = rng.normal(size=(v, d)).astype(np.float32)
    zero = rng.choice(v, v // 10, replace=False)
    a[zero] = 0.0
    ranked = set()
    def spy(unit, rows, k, rank=metrics._rank_all):
        ranked.update(rows.tolist())
        return rank(unit, rows, k)
    monkeypatch.setattr(metrics, "_rank_all", spy)
    peak = traced_peak(metrics._topk_neighbors, a, k)
    assert set(zero.tolist()) <= ranked
    assert peak < 8 * v * d + 2 * 2**24 + 4 * v * d + 8 * v * k + 2**20
