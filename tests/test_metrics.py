import tracemalloc

import numpy as np
import pytest

from gpq import DataError, EmbeddingMatrix, fidelity, metrics

from _oracles import brute_force_topk_cosine


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
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4000, 128)).astype(np.float32)
    e = emb(a)
    r = emb(a + rng.normal(scale=0.1, size=a.shape).astype(np.float32))
    tracemalloc.start()
    try:
        fidelity(e, r, k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4000 * 4000 * 8
