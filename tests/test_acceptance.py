"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json

import numpy as np
import pytest

from gpq import (EmbeddingMatrix, PartitionKind, PartitionScheme,
                 QuantizedEmbedding, ReconstructMode, RweConfig, codec,
                 compute_size_report, embio, fidelity, gpq_compress,
                 kmeans_best_of, load_raw, pq_compress, quantizer,
                 reconstruct, rwe_generate)
from gpq.cli import main
from gpq.errors import FormatError

from _oracles import brute_force_kmeans_objective

STRUCT = PartitionKind.STRUCTURED
UNIFIED = PartitionKind.UNIFIED


def ok(name):
    print(f"[PASS] {name}")


def mib2(bits):
    return round(bits / 8 / 2**20, 2)


def test_criterion_1_parameter_counts():
    pq_s = compute_size_report(32000, 512, PartitionScheme(STRUCT, 512), 50, False)
    pq_u = compute_size_report(32000, 512, PartitionScheme(UNIFIED, 512), 50, False)
    gpq_u = compute_size_report(32000, 512, PartitionScheme(UNIFIED, 512), 50, True)
    assert pq_s.float_params == 25_600
    assert pq_u.float_params == 50
    assert gpq_u.float_params == 100
    assert pq_s.int_params == pq_u.int_params == gpq_u.int_params == 16_384_000
    ok("criterion 1: parameter counts 25600/50/100 float, 16.384M int")


def test_criterion_2_size_table():
    cases = [
        # (rows, cols, kind, gpq, expected MiB)
        (32000, 512, STRUCT, False, 11.82),
        (32000, 512, STRUCT, True, 11.92),
        (32000, 512, UNIFIED, False, 11.72),
        (32000, 512, UNIFIED, True, 11.72),
        (37000, 512, STRUCT, False, 13.65),
        (37000, 512, STRUCT, True, 13.75),
        (37000, 512, UNIFIED, False, 13.54),
        (37000, 512, UNIFIED, True, 13.55),
        (32000, 256, STRUCT, False, 5.91),
        (32000, 256, STRUCT, True, 5.96),
        (32000, 256, UNIFIED, False, 5.86),
        (32000, 256, UNIFIED, True, 5.86),
    ]
    for rows, cols, kind, has_vars, expected in cases:
        rep = compute_size_report(rows, cols, PartitionScheme(kind, cols), 50, has_vars)
        got = mib2(rep.storable_bits)
        # +1e-9 absorbs float error in the 0.01 comparison itself
        assert abs(got - expected) <= 0.01 + 1e-9, (rows, cols, kind, has_vars, got, expected)
    # exact anchor cells in bytes
    assert compute_size_report(32000, 512, PartitionScheme(STRUCT, 512), 50,
                               False).storable_bytes == 12_390_400
    assert compute_size_report(32000, 512, PartitionScheme(UNIFIED, 512), 50,
                               True).storable_bytes == 12_288_400
    for rows, cols, expected in [(32000, 512, 62.5), (37000, 512, 72.27), (32000, 256, 31.25)]:
        rep = compute_size_report(rows, cols, PartitionScheme(UNIFIED, cols), 50, True)
        assert abs(mib2(rep.baseline_bits) - expected) <= 0.01
    ok("criterion 2: all 12 size cells + 3 baselines match at +/-0.01 MiB")


def test_criterion_3_compression_ratios():
    rep = compute_size_report(32000, 512, PartitionScheme(UNIFIED, 512), 50, True)
    assert abs(rep.compression_ratio - 5.33) <= 0.01
    for rows in (32000, 37000):
        rep = compute_size_report(rows, 512, PartitionScheme(UNIFIED, 256), 256, True)
        assert 7.85 <= rep.compression_ratio <= 8.05
    ok("criterion 3: compression ratios 5.33x and ~8.0x")


def test_criterion_4_kmeans_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        m = int(rng.integers(1, 9))
        d = int(rng.integers(1, 3))
        c = int(rng.integers(1, min(m, 3) + 1))
        pts = rng.normal(scale=rng.uniform(0.5, 5.0), size=(m, d))
        res = kmeans_best_of(pts, c, seed=trial, restarts=32)
        opt = brute_force_kmeans_objective(pts, c)
        assert res.objective <= opt * (1 + 1e-9) + 1e-12, (trial, res.objective, opt)
    ok("criterion 4: 200/200 instances reach the enumeration optimum")


def test_criterion_5_exact_reconstruction():
    rng = np.random.default_rng(7)
    for trial in range(100):
        kind = STRUCT if trial % 2 == 0 else UNIFIED
        rows = int(rng.integers(4, 17))
        g = int(rng.choice([1, 2, 4]))
        sub = int(rng.integers(1, 4))
        n_distinct = int(rng.integers(1, 5))
        cols = g * sub
        if kind is STRUCT:
            blocks = []
            for _ in range(g):
                base = rng.normal(size=(n_distinct, sub)).astype(np.float32)
                blocks.append(base[rng.integers(0, n_distinct, size=rows)])
            values = np.hstack(blocks)
        else:
            base = rng.normal(size=(n_distinct, sub)).astype(np.float32)
            values = np.hstack([base[rng.integers(0, n_distinct, size=rows)]
                                for _ in range(g)])
        # rows >= 4 >= n_distinct, so c stays within [n_distinct, rows]
        c = min(n_distinct + int(rng.integers(0, 2)), rows)
        e = EmbeddingMatrix(values)
        q = pq_compress(e, PartitionScheme(kind, g), c, seed=trial, restarts=32)
        recon = reconstruct(q)
        frob = float(np.sum((e.values.astype(np.float64) - recon.values) ** 2))
        assert frob < 1e-10, (trial, kind, frob)
    ok("criterion 5: 100/100 exactly clusterable matrices reconstruct bit-for-bit")


def test_criterion_6_gpq_degeneracy():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(3, 4)).astype(np.float32)
    e = EmbeddingMatrix(base[rng.integers(0, 3, size=12)])
    q = gpq_compress(e, PartitionScheme(STRUCT, 2), 3, seed=0, restarts=8)
    assert np.all(q.codebook_vars == 0.0)
    mean = reconstruct(q, ReconstructMode.MEAN)
    for seed in range(50):
        sample = reconstruct(q, ReconstructMode.SAMPLE, seed=seed)
        assert np.array_equal(sample.values, mean.values)
    ok("criterion 6: zero-variance sampling equals mean mode for 50 seeds")


def test_criterion_7_sampling_statistics():
    q = QuantizedEmbedding(
        PartitionScheme(UNIFIED, 1),
        np.zeros((1, 1), dtype=np.uint32),
        np.zeros((1, 1, 1), dtype=np.float32),
        np.ones((1, 1, 1), dtype=np.float32), 0)
    draws = np.array([
        reconstruct(q, ReconstructMode.SAMPLE, seed=s).values[0, 0]
        for s in range(10_000)
    ], dtype=np.float64)
    assert abs(draws.mean()) <= 0.05, draws.mean()
    assert 0.94 <= draws.var() <= 1.06, draws.var()
    ok(f"criterion 7: sampled mean {draws.mean():+.4f}, variance {draws.var():.4f}")


def test_criterion_8_codec():
    from test_codec import random_quantized
    rng = np.random.default_rng(99)
    for trial in range(500):
        q = random_quantized(rng)
        data = codec.encode(q)
        assert codec.decode(data) == q
        assert (len(data) - codec.HEADER_SIZE - 4) * 8 == quantizer.size_report(q).storable_bits
        pos = int(rng.integers(0, len(data)))
        corrupted = bytearray(data)
        corrupted[pos] ^= 1 << int(rng.integers(0, 8))
        with pytest.raises(FormatError):
            codec.decode(bytes(corrupted))
    ok("criterion 8: 500/500 round trips, sizes exact, corruption detected")


def test_criterion_9_rwe_invariants():
    e = rwe_generate(RweConfig(10_000, 64, seed=41))
    e2 = rwe_generate(RweConfig(10_000, 64, seed=41))
    assert e.values.tobytes() == e2.values.tobytes()
    vals = e.values.astype(np.float64)
    norms = np.linalg.norm(vals, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6)
    assert abs(vals.mean()) <= 0.005
    assert (1 / 64) * 0.9 <= vals.var() <= (1 / 64) * 1.1
    ok(f"criterion 9: 10000x64 rows unit-norm, mean {vals.mean():+.5f}, "
       f"var {vals.var():.5f} ~ 1/64")


def test_criterion_10_fidelity_monotonicity():
    rng = np.random.default_rng(64)
    centers = rng.normal(scale=3.0, size=(8, 8))
    vals = (centers[rng.integers(0, 8, size=64)]
            + rng.normal(scale=0.25, size=(64, 8))).astype(np.float32)
    e = EmbeddingMatrix(vals)
    rmses = []
    for c in (1, 2, 4, 8):
        q = gpq_compress(e, PartitionScheme(UNIFIED, 2), c, seed=0, restarts=32)
        recon = reconstruct(q)
        rmses.append(fidelity(e, recon, k=5).rmse)
    assert all(a >= b for a, b in zip(rmses, rmses[1:])), rmses
    ok(f"criterion 10: RMSE non-increasing over c=1,2,4,8: "
       + ", ".join(f"{r:.4f}" for r in rmses))


def test_criterion_11_end_to_end_determinism(tmp_path, capsys):
    rng = np.random.default_rng(5)
    e = EmbeddingMatrix(rng.normal(size=(1000, 64)).astype(np.float32))
    src = tmp_path / "in.raw"
    with open(src, "wb") as f:
        embio.save_raw(e, f)

    outputs = []
    for run_idx in range(2):
        cont = tmp_path / f"c{run_idx}.gpqe"
        rec = tmp_path / f"r{run_idx}.raw"
        assert main(["compress", "--input", str(src), "--format", "raw",
                     "--rows", "1000", "--cols", "64", "--method", "gpq",
                     "--scheme", "unified", "-g", "8", "-c", "16",
                     "--seed", "1", "-o", str(cont)]) == 0
        capsys.readouterr()
        assert main(["decompress", "--input", str(cont), "--mode", "mean",
                     "-o", str(rec)]) == 0
        assert main(["compare", "--original", str(src), "--reconstructed", str(rec),
                     "--format", "raw", "--rows", "1000", "--cols", "64",
                     "-k", "5", "--report", "json"]) == 0
        compare_json = capsys.readouterr().out
        outputs.append((cont.read_bytes(), rec.read_bytes(), compare_json))
    assert outputs[0] == outputs[1]

    # pipeline numbers equal the in-memory pipeline exactly
    q = gpq_compress(e, PartitionScheme(UNIFIED, 8), 16, seed=1)
    recon = reconstruct(q, ReconstructMode.MEAN)
    rep = fidelity(e, recon, k=5)
    cli_rep = json.loads(outputs[0][2])
    assert cli_rep["rmse"] == rep.rmse
    assert cli_rep["mean_cosine"] == rep.mean_cosine
    assert cli_rep["nn_overlap_at_k"] == rep.nn_overlap_at_k
    with open(tmp_path / "r0.raw", "rb") as f:
        assert np.array_equal(load_raw(f, 1000, 64).values, recon.values)
    ok("criterion 11: CLI pipeline byte-identical across runs and equal to library")
