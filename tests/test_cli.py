import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import gpq
from gpq import (EmbeddingMatrix, PartitionKind, PartitionScheme,
                 ReconstructMode, codec, embio, gpq_compress, load_raw,
                 quantizer, reconstruct)
from gpq.cli import main
from gpq.kmeans import _CHUNK_ROWS


@pytest.fixture
def w2v_file(tmp_path):
    rng = np.random.default_rng(0)
    e = EmbeddingMatrix(rng.normal(size=(32, 8)).astype(np.float32),
                        [f"tok{i}" for i in range(32)])
    path = tmp_path / "emb.w2v"
    with open(path, "wb") as f:
        embio.save_word2vec_text(e, f)
    return path, e


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compress_info_roundtrip(tmp_path, capsys, w2v_file):
    src, e = w2v_file
    out = tmp_path / "emb.gpqe"
    code, stdout, _ = run(capsys, "compress", "--input", str(src), "--method", "gpq",
                          "--scheme", "unified", "-g", "4", "-c", "6",
                          "--seed", "7", "--restarts", "2", "-o", str(out),
                          "--report", "json")
    assert code == 0
    report = json.loads(stdout)
    q = gpq_compress(e, PartitionScheme(PartitionKind.UNIFIED, 4), 6, seed=7, restarts=2)
    assert report["storable_bits"] == quantizer.size_report(q).storable_bits
    assert out.read_bytes() == codec.encode(q)

    code, stdout, _ = run(capsys, "info", "--input", str(out), "--report", "json")
    assert code == 0
    info = json.loads(stdout)
    assert (info["rows"], info["cols"], info["groups"], info["clusters"]) == (32, 8, 4, 6)
    assert info["scheme"] == "unified" and info["variances"] is True
    assert info["seed"] == 7


def test_decompress_matches_library(tmp_path, capsys, w2v_file):
    src, e = w2v_file
    container = tmp_path / "c.gpqe"
    recon_path = tmp_path / "r.raw"
    assert run(capsys, "compress", "--input", str(src), "--method", "pq",
               "--scheme", "structured", "-g", "2", "-c", "4",
               "-o", str(container))[0] == 0
    assert run(capsys, "decompress", "--input", str(container),
               "--mode", "mean", "-o", str(recon_path))[0] == 0
    with open(recon_path, "rb") as f:
        got = load_raw(f, 32, 8)
    q = codec.decode(container.read_bytes())
    assert np.array_equal(got.values, reconstruct(q, ReconstructMode.MEAN).values)


def test_compare_identity_and_pipeline(tmp_path, capsys, w2v_file):
    src, e = w2v_file
    code, stdout, _ = run(capsys, "compare", "--original", str(src),
                          "--reconstructed", str(src), "-k", "3",
                          "--report", "json")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["rmse"] == 0.0 and rep["nn_overlap_at_k"] == 1.0


def test_compare_mixed_formats(tmp_path, capsys, w2v_file):
    src, e = w2v_file
    raw = tmp_path / "same.raw"
    with open(raw, "wb") as f:
        embio.save_raw(e, f)
    code, stdout, _ = run(capsys, "compare", "--original", str(src),
                          "--reconstructed", str(raw), "--recon-format", "raw",
                          "--rows", "32", "--cols", "8", "-k", "2",
                          "--report", "json")
    assert code == 0
    assert json.loads(stdout)["rmse"] == 0.0


def test_text_and_json_carry_same_numbers(tmp_path, capsys, w2v_file):
    src, _ = w2v_file
    out = tmp_path / "x.gpqe"
    args = ["compress", "--input", str(src), "-g", "4", "-c", "3", "-o", str(out)]
    code, text_out, _ = run(capsys, *args, "--report", "text")
    assert code == 0
    code, json_out, _ = run(capsys, *args, "--report", "json")
    rep = json.loads(json_out)
    assert f"storable_bits        {rep['storable_bits']}" in text_out
    assert f"float_params         {rep['float_params']}" in text_out


def test_rwe_command(tmp_path, capsys):
    out = tmp_path / "rwe.raw"
    code, stdout, _ = run(capsys, "rwe", "--rows", "16", "--cols", "4",
                          "--seed", "1", "--projection-dim", "8",
                          "-o", str(out), "--report", "json")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["float_params"] == 2 + 4 * 8
    with open(out, "rb") as f:
        e = load_raw(f, 16, 4)
    norms = np.linalg.norm(e.values.astype(np.float64), axis=1)
    assert np.all(np.abs(norms - 1) < 1e-6)
    proj = np.frombuffer((tmp_path / "rwe.raw.proj").read_bytes(), dtype="<f4")
    assert proj.size == 4 * 8



# Every size here is at least 2**50 elements, which numpy refuses before it
# touches a page: beyond its index range (a DataError from RweConfig), or an
# allocation larger than the address space (MemoryError).
@pytest.mark.parametrize("size", [
    ["--rows", str(2**25), "--cols", str(2**25)],
    ["--rows", "1", "--cols", "1", "--projection-dim", str(2**50)],
    ["--rows", str(2**64), "--cols", "1"],
    ["--rows", "1", "--cols", "2", "--projection-dim", str(2**63)],
])
def test_rwe_too_large_is_data_error(tmp_path, capsys, size):
    code, _, err = run(capsys, "rwe", *size, "-o", str(tmp_path / "x"))
    assert code == 3
    assert err.startswith("error: data:") and err.count("\n") == 1


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("command", ["rwe", "decompress"])
def test_failed_command_leaves_output_alone(tmp_path, capsys, command, existing):
    # rwe: a 2**50-element projection, which numpy refuses. decompress: a
    # vocabulary token with a space, which word2vec text cannot carry.
    out = tmp_path / "out"
    if command == "rwe":
        argv = ["rwe", "--rows", "4", "--cols", "4", "--projection-dim", str(2**48)]
    else:
        e = EmbeddingMatrix(np.random.default_rng(0).normal(size=(4, 2)).astype(np.float32))
        (tmp_path / "c.gpqe").write_bytes(codec.encode(
            gpq_compress(e, PartitionScheme(PartitionKind.UNIFIED, 1), 2, seed=0)))
        (tmp_path / "vocab.txt").write_text("a\nb c\nd\ne\n")
        argv = ["decompress", "--input", str(tmp_path / "c.gpqe"), "--format", "w2v",
                "--vocab", str(tmp_path / "vocab.txt")]
    if existing:
        out.write_bytes(b"kept")
    before = sorted(tmp_path.iterdir())
    code, _, err = run(capsys, *argv, "-o", str(out))
    assert code == 3
    assert err.startswith("error: data:") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before
    if existing:
        assert out.read_bytes() == b"kept"


def test_sweep_ordered_output(tmp_path, capsys, w2v_file):
    src, _ = w2v_file
    code, stdout, _ = run(capsys, "sweep", "--input", str(src),
                          "--method", "gpq", "--scheme", "unified",
                          "--config", "4:2", "--config", "4:4", "--config", "2:3",
                          "--seed", "0", "--restarts", "2", "-k", "3")
    assert code == 0
    results = json.loads(stdout)
    assert [(r["groups"], r["clusters"]) for r in results] == [(4, 2), (4, 4), (2, 3)]
    for r in results:
        assert set(r) >= {"rmse", "mean_cosine", "nn_overlap_at_k", "size"}


def test_sweep_parallel_matches_sequential(tmp_path, capsys, w2v_file):
    src, _ = w2v_file
    args = ["sweep", "--input", str(src), "--config", "4:2", "--config", "2:2",
            "--restarts", "2"]
    _, seq, _ = run(capsys, *args)
    _, par, _ = run(capsys, *args, "--parallel")
    assert json.loads(seq) == json.loads(par)


def test_exit_code_data_error(tmp_path, capsys, w2v_file):
    src, _ = w2v_file
    code, _, err = run(capsys, "compress", "--input", str(src),
                       "-g", "3", "-c", "4", "-o", str(tmp_path / "x"))
    assert code == 3
    assert err.startswith("error: data:")


def test_exit_code_data_error_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.w2v"
    bad.write_bytes(b"1 2\n\xff\xfe 0.5 1\n")
    code, _, err = run(capsys, "compress", "--input", str(bad),
                       "-g", "1", "-c", "1", "-o", str(tmp_path / "x"))
    assert code == 3
    assert err.startswith("error: data:") and err.count("\n") == 1


def test_exit_code_data_error_header_larger_than_file(tmp_path, capsys):
    bad = tmp_path / "huge.w2v"
    bad.write_bytes(b"100000000000 100000\n")
    code, _, err = run(capsys, "compress", "--input", str(bad),
                       "-g", "1", "-c", "1", "-o", str(tmp_path / "x"))
    assert code == 3
    assert err.startswith("error: data:") and err.count("\n") == 1


def test_exit_code_data_error_rows_beyond_header(tmp_path, capsys):
    bad = tmp_path / "long.w2v"
    bad.write_bytes(b"1 2\na 1 2\nb 3 4\nnot even numbers\n")
    code, _, err = run(capsys, "compress", "--input", str(bad),
                       "-g", "1", "-c", "1", "-o", str(tmp_path / "x"))
    assert code == 3
    assert err == "error: data: row count mismatch: expected 1 rows, got more\n"


def cli_process(*argv, **env) -> subprocess.CompletedProcess:
    """Run the CLI in a child process, so that anything written to stderr,
    warnings included, reaches the captured stderr."""
    pythonpath = [str(Path(gpq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    return subprocess.run([sys.executable, "-m", "gpq.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=600)


def test_exit_code_data_error_value_beyond_binary32(tmp_path):
    bad = tmp_path / "big.w2v"
    bad.write_bytes(b"1 3\nw 1e39 2 3\n")
    for argv in (["compress", "--input", str(bad), "-g", "1", "-c", "1",
                  "-o", str(tmp_path / "x")],
                 ["compare", "--original", str(bad), "--reconstructed", str(bad)]):
        proc = cli_process(*argv)
        assert proc.returncode == 3
        assert proc.stderr == "error: data: non-finite value at row 0\n"


def test_gpq_variance_beyond_binary32_is_data_error(tmp_path):
    # finite binary32 input whose cluster variance (9e76) is not
    src, out = tmp_path / "wide.raw", tmp_path / "x.gpqe"
    src.write_bytes(np.array([[3e38, 1], [-3e38, 1], [3e38, 2], [-3e38, 2]],
                             dtype="<f4").tobytes())
    proc = cli_process("compress", "--input", str(src), "--format", "raw", "--rows", "4",
                       "--cols", "2", "--method", "gpq", "-g", "1", "-c", "1", "-o", str(out))
    assert proc.returncode == 3
    assert proc.stderr == "error: data: non-finite variance in codebook\n"
    assert not out.exists()


def test_exit_code_format_error_non_finite_variance(tmp_path, capsys):
    e = EmbeddingMatrix(np.random.default_rng(0).normal(size=(4, 2)).astype(np.float32))
    data = bytearray(codec.encode(gpq_compress(e, PartitionScheme(PartitionKind.UNIFIED, 1),
                                               2, seed=0)))
    struct.pack_into("<f", data, codec.HEADER_SIZE + 2 * 2 * 4, np.inf)  # first variance
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    bad = tmp_path / "c.gpqe"
    bad.write_bytes(bytes(data))
    for argv in (["info", "--input", str(bad)],
                 ["decompress", "--input", str(bad), "--mode", "sample",
                  "-o", str(tmp_path / "out.raw")]):
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert err == "error: format: non-finite variance in codebook\n"


def test_exit_code_data_error_vocab_not_utf8(tmp_path, capsys):
    container, vocab = tmp_path / "c.gpqe", tmp_path / "vocab.txt"
    rng = np.random.default_rng(0)
    e = EmbeddingMatrix(rng.normal(size=(4, 2)).astype(np.float32))
    container.write_bytes(codec.encode(gpq_compress(e, PartitionScheme(PartitionKind.UNIFIED, 1),
                                                    2, seed=0)))
    vocab.write_bytes(b"a\n\xff\xfe\nc\nd\n")
    code, _, err = run(capsys, "decompress", "--input", str(container), "--format", "w2v",
                       "--vocab", str(vocab), "-o", str(tmp_path / "out.w2v"))
    assert code == 3
    assert err.startswith("error: data: vocabulary") and err.count("\n") == 1


@pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
def test_seed_outside_64_bits_is_usage_error(tmp_path, capsys, w2v_file, seed):
    src, _ = w2v_file
    out = tmp_path / "x.gpqe"
    with pytest.raises(SystemExit) as exc:
        main(["compress", "--input", str(src), "-g", "4", "-c", "3",
              "--seed", seed, "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: usage: gpq compress: argument --seed")
    assert err.count("\n") == 1


def test_exit_code_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.gpqe"
    bad.write_bytes(b"not a container")
    code, _, err = run(capsys, "info", "--input", str(bad))
    assert code == 4
    assert err.startswith("error: format:")


def test_exit_code_usage_error(capsys):
    # missing flags, no subcommand, unknown subcommand, stray newline token
    for argv in (["compress"], [], ["nope"], ["info", "--input", "x", "a\nb"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: usage: gpq") and out.err.count("\n") == 1


def test_compress_deterministic(tmp_path, capsys, w2v_file):
    src, _ = w2v_file
    a, b = tmp_path / "a.gpqe", tmp_path / "b.gpqe"
    args = ["compress", "--input", str(src), "-g", "4", "-c", "5", "--seed", "9"]
    assert run(capsys, *args, "-o", str(a))[0] == 0
    assert run(capsys, *args, "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_compress_bytes_independent_of_blas_threads(tmp_path):
    # 40000 rows x 4 groups = 160000 stacked 2-D points: several dense blocks
    rows, cols, groups = 40000, 8, 4
    assert rows * groups > _CHUNK_ROWS
    src = tmp_path / "in.raw"
    src.write_bytes(np.random.default_rng(5).normal(size=(rows, cols)).astype("<f4").tobytes())
    containers = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.gpqe"
        cli_process("compress", "--input", str(src), "--format", "raw", "--rows", str(rows),
                    "--cols", str(cols), "-g", str(groups), "-c", "16", "--seed", "1",
                    "-o", str(out), OPENBLAS_NUM_THREADS=threads).check_returncode()
        containers.append(out.read_bytes())
    assert containers[0] == containers[1]
