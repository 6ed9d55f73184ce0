import importlib
import json
import os
import shlex
import struct
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest

import gpq
from gpq import (EmbeddingMatrix, PartitionKind, PartitionScheme,
                 ReconstructMode, cli, codec, embio, gpq_compress, load_raw,
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
    # each text line is a JSON entry in JSON order, a nested dict's entries in its place
    src, _ = w2v_file
    out = tmp_path / "x.gpqe"
    for args in (["compress", "--input", str(src), "-g", "4", "-c", "3", "-o", str(out)],
                 ["info", "--input", str(out)],
                 ["compare", "--original", str(src), "--reconstructed", str(src), "-k", "3"],
                 ["rwe", "--rows", "8", "--cols", "4", "-o", str(tmp_path / "r.raw")]):
        code, text_out, _ = run(capsys, *args, "--report", "text")
        assert code == 0
        code, json_out, _ = run(capsys, *args, "--report", "json")
        entries = [(k, v) for key, value in json.loads(json_out).items()
                   for k, v in (value.items() if isinstance(value, dict) else [(key, value)])]
        assert text_out.splitlines() == [f"{k:<21}{v}" for k, v in entries]


@pytest.mark.parametrize("scheme,total_clusters", [("structured", 3 * 4), ("unified", 3)])
def test_compress_and_info_size_entries(tmp_path, capsys, w2v_file, scheme, total_clusters):
    src, _ = w2v_file
    out = tmp_path / "x.gpqe"
    code, stdout, _ = run(capsys, "compress", "--input", str(src), "--scheme", scheme,
                          "-g", "4", "-c", "3", "-o", str(out), "--report", "json")
    assert code == 0
    rep = json.loads(stdout)
    assert "header_and_crc_bytes" not in rep
    assert rep["container_bytes"] == rep["storable_bytes"] + 39 == out.stat().st_size
    code, stdout, _ = run(capsys, "info", "--input", str(out), "--report", "json")
    assert code == 0
    info = json.loads(stdout)
    assert info["total_clusters"] == total_clusters
    assert info["size"] == {k: rep[k] for k in info["size"]}


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


def test_rwe_projection_output_requires_projection_dim(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rwe", "--rows", "4", "--cols", "4", "--projection-output",
              str(tmp_path / "w.proj"), "-o", str(tmp_path / "rwe.raw")])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("error: usage: gpq rwe:")
    assert "--projection-output" in out.err and "--projection-dim" in out.err
    assert list(tmp_path.iterdir()) == []


def test_rwe_bad_projection_dim_writes_nothing(tmp_path, capsys):
    # projection_init, the one check of a projection's width, runs before
    # the matrix is generated or any output is opened
    code, stdout, err = run(capsys, "rwe", "--rows", "4", "--cols", "4",
                            "--projection-dim", "0", "-o", str(tmp_path / "x"))
    assert (code, stdout) == (3, "")
    assert err == "error: data: projection dimensions must be >= 1\n"
    assert list(tmp_path.iterdir()) == []



# Every size here is at least 2**50 elements, which numpy refuses before it
# touches a page: beyond its index range (a DataError from RweConfig or
# projection_init), or an allocation larger than the address space
# (MemoryError).
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


@pytest.mark.parametrize("argv", [
    ["rwe", "--rows", str(2**31), "--cols", str(2**31)],
    ["rwe", "--rows", "4", "--cols", "4", "--projection-dim", str(2**60)],
    ["decompress", "--input", "big.gpqe"],
], ids=["rwe", "projection", "decompress"])
def test_array_beyond_numpy_bytes_is_data_error(tmp_path, capsys, monkeypatch, argv):
    # each largest array has fewer elements than the largest intp but more
    # bytes; numpy refuses it with a ValueError, before allocating anything.
    # big.gpqe is a valid 103-byte container: c = 1 stores no index bits,
    # so 2**59 rows x 16 cols need no more file than one codebook.
    monkeypatch.chdir(tmp_path)
    q = gpq.QuantizedEmbedding(PartitionScheme(PartitionKind.UNIFIED, 1),
                               np.broadcast_to(np.uint32(0), (2**59, 1)),
                               np.ones((1, 1, 16), dtype=np.float32), None, 0)
    (tmp_path / "big.gpqe").write_bytes(codec.encode(q))
    assert run(capsys, "info", "--input", "big.gpqe")[0] == 0
    code, _, err = run(capsys, *argv, "-o", "out")
    assert code == 3
    assert err.startswith("error: data:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.gpqe"]


@pytest.mark.parametrize("argv", [
    ["compress", "--rep", "json"],
    ["compress", "--s", "1"],
    ["rwe", "--rows", "4", "--cols", "4", "--projection-d", "3"],
], ids=["--rep", "--s", "--projection-d"])
def test_options_only_by_full_name(tmp_path, capsys, w2v_file, argv):
    if argv[0] == "compress":
        argv = ["compress", "--input", str(w2v_file[0]), "-g", "4", "-c", "3"] + argv[1:]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists() and not (tmp_path / "out.proj").exists()
    err = capsys.readouterr().err
    assert err == f"error: usage: gpq: unrecognized arguments: {' '.join(argv[-2:])}\n"


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


def test_sweep_ranks_the_original_once(capsys, monkeypatch, w2v_file):
    # one ranking of the original and one per configuration, where a
    # fidelity call per configuration would rank the original each time
    metrics = importlib.import_module("gpq.metrics")
    ranked, topk = [], metrics._topk_neighbors
    monkeypatch.setattr(metrics, "_topk_neighbors",
                        lambda values, k: ranked.append(values) or topk(values, k))
    src, e = w2v_file
    configs = ["4:2", "4:4", "2:3"]
    code, _, _ = run(capsys, "sweep", "--input", str(src), "-k", "3",
                     *[a for c in configs for a in ("--config", c)])
    assert code == 0
    assert len(ranked) == 1 + len(configs)
    assert sum(np.array_equal(values, e.values) for values in ranked) == 1


def test_sweep_bad_config_is_data_error(capsys, w2v_file):
    src, _ = w2v_file
    code, _, err = run(capsys, "sweep", "--input", str(src), "--config", "8-16")
    assert code == 3
    assert err == "error: data: bad --config '8-16', expected G:C\n"


def test_sweep_rejects_k_before_clustering(tmp_path, capsys, monkeypatch):
    # k is checked when the sweep's fidelity is set up, so a k out of range
    # costs no compress; at paper size one is about a second of clustering
    compressed = []
    compress = quantizer.gpq_compress
    monkeypatch.setattr(quantizer, "gpq_compress",
                        lambda *a, **kw: compressed.append(a) or compress(*a, **kw))
    src = tmp_path / "e.raw"
    with open(src, "wb") as f:
        embio.save_raw(gpq.rwe_generate(gpq.RweConfig(64, 8, 0)), f)
    code, out, err = run(capsys, "sweep", "--input", str(src), "--format", "raw",
                         "--rows", "64", "--cols", "8", "--config", "2:4", "--config", "4:8",
                         "-k", "64")
    assert (code, out, err) == (3, "", "error: data: k=64 out of range [1, 64)\n")
    assert compressed == []


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


def python_process(*argv, **env) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's gpq."""
    pythonpath = [str(Path(gpq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=600)


def cli_process(*argv, **env) -> subprocess.CompletedProcess:
    """Run the CLI in a child process, so that anything written to stderr,
    warnings included, reaches the captured stderr."""
    return python_process("-m", "gpq.cli", *argv, **env)


def workflow_step_script(name: str) -> str:
    """The `run: |` block of the step called name in the tests workflow,
    dedented: the lines after `run: |` that are blank or indented deeper
    than it. Read by indentation, so no YAML library is needed."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    lines = workflow.read_text(encoding="utf-8").splitlines()
    step = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {name}")
    run = next(i for i in range(step + 1, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)) + "\n"


def test_workflow_console_script_step(tmp_path):
    # the step as GitHub's `shell: bash` runs it, with `gpq` a shell function
    # for this checkout's `python -m gpq.cli` in place of the installed entry
    # point; its must_fail checks fail the step when their contract breaks
    script = workflow_step_script("Console script")
    assert script.count('must_fail "$RUNNER_TEMP/nan.gpqe" compress --input') == 2
    assert 'must_fail "" sweep --input' in script
    src = str(Path(gpq.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
    shim = (f'gpq() {{ PYTHONPATH={shlex.quote(pythonpath)} '
            f'{shlex.quote(sys.executable)} -m gpq.cli "$@"; }}\n')
    (tmp_path / "step.sh").write_text(shim + script, encoding="utf-8")
    proc = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "step.sh"],
                          cwd=tmp_path, env={**os.environ, "RUNNER_TEMP": str(tmp_path)},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_cli_imports_only_stdlib_and_numpy():
    # numpy is the only runtime dependency; the modules site loaded before
    # the import (certifi, _distutils_hack, ...) are not the CLI's
    proc = python_process("-c", "import sys; before = set(sys.modules); import gpq.cli; "
                          "print(*{m.split('.')[0] for m in set(sys.modules) - before})")
    assert proc.returncode == 0, proc.stderr
    new = set(proc.stdout.split())
    assert "gpq" in new
    assert new - sys.stdlib_module_names <= {"numpy", "gpq"}
    assert not new & {"concurrent", "logging"}


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


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("argv", [
    ["compress", "--input", "emb", "-g", "4", "-c", "3"],
    ["decompress", "--input", "emb"],
    ["rwe", "--rows", "4", "--cols", "4"],
    ["sweep", "--input", "emb", "--config", "4:3"],
], ids=lambda argv: argv[0])
def test_every_seed_option_is_checked(tmp_path, capsys, argv, seed):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", seed] + (["-o", str(out)] if argv[0] != "sweep" else []))
    assert exc.value.code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: usage: gpq {argv[0]}: argument --seed")
    assert err.count("\n") == 1


@pytest.mark.parametrize("method,scheme", [("gpq", "unified"), ("pq", "structured")])
def test_sweep_equals_compress_decompress_compare(tmp_path, capsys, w2v_file, method, scheme):
    src, _ = w2v_file
    container, recon = tmp_path / "c.gpqe", tmp_path / "r.raw"
    shared = ["--input", str(src), "--method", method, "--scheme", scheme,
              "--seed", "5", "--restarts", "3"]  # 3 restarts beat 1 here, on both schemes
    code, stdout, _ = run(capsys, "sweep", *shared, "--config", "2:6", "-k", "4")
    assert code == 0
    [swept] = json.loads(stdout)
    code, stdout, _ = run(capsys, "compress", *shared, "-g", "2", "-c", "6",
                          "-o", str(container), "--report", "json")
    assert code == 0
    size = json.loads(stdout)
    assert swept["size"] == {k: size[k] for k in swept["size"]}
    assert run(capsys, "decompress", "--input", str(container), "-o", str(recon))[0] == 0
    code, stdout, _ = run(capsys, "compare", "--original", str(src), "--reconstructed", str(recon),
                          "--recon-format", "raw", "--rows", "32", "--cols", "8", "-k", "4",
                          "--report", "json")
    assert code == 0
    compared = json.loads(stdout)
    assert {k: swept[k] for k in compared} == compared


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


def test_main_calls_share_one_parser(tmp_path, capsys, w2v_file):
    # subcommands whose --format defaults differ (compress w2v, decompress
    # raw), a usage error, and calls after it: one process's parser gives the
    # exit codes, output and files of a parser built for each call
    src = str(w2v_file[0])

    def results(fresh):
        work = tmp_path / ("fresh" if fresh else "reused")
        work.mkdir()
        c, out = work / "c.gpqe", work / "out.raw"
        calls = [
            ["compress", "--input", src, "-g", "4", "-c", "3", "-o", str(c)],
            ["decompress", "--input", str(c), "-o", str(out)],
            ["compress", "--input", src, "-g", "4"],
            ["info", "--input", str(c), "--report", "json"],
            ["compare", "--original", src, "--reconstructed", str(out), "--recon-format",
             "raw", "--rows", "32", "--cols", "8", "--report", "json"],
            ["compress", "--input", src, "-g", "2", "-c", "4", "-o", str(c), "--seed", "3"],
            ["decompress", "--input", str(c), "-o", str(out), "--mode", "sample"],
        ]
        got = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            std = capsys.readouterr()
            got.append((code, std.out, std.err, c.read_bytes(), out.read_bytes()
                        if out.exists() else None))
        return got

    cli._parser.cache_clear()
    reused = results(fresh=False)
    assert cli._parser.cache_info().misses == 1
    assert [r[0] for r in reused] == [0, 0, 2, 0, 0, 0, 0]
    assert reused[2][2].startswith("error: usage: gpq compress:")
    assert results(fresh=True) == reused


def test_compress_deterministic(tmp_path, capsys, w2v_file):
    src, _ = w2v_file
    a, b = tmp_path / "a.gpqe", tmp_path / "b.gpqe"
    args = ["compress", "--input", str(src), "-g", "4", "-c", "5", "--seed", "9"]
    assert run(capsys, *args, "-o", str(a))[0] == 0
    assert run(capsys, *args, "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_compress_bytes_independent_of_blas_threads(tmp_path):
    # unified over 40000 rows: 4 groups stack 160000 2-D points, more than
    # one seeding pass of _CHUNK_ROWS and many dense assignment blocks of
    # 2**20 // (8 c) rows; 8 groups stack 320000 1-D points for the sorted
    # kernel
    rows, cols = 40000, 8
    src = tmp_path / "in.raw"
    src.write_bytes(np.random.default_rng(5).normal(size=(rows, cols)).astype("<f4").tobytes())
    for groups in (4, 8):
        assert rows * groups > _CHUNK_ROWS
        if groups == 4:
            assert rows * groups > 2**20 // (8 * 16)
        containers = []
        for threads in ("1", "2"):
            out = tmp_path / f"g{groups}threads{threads}.gpqe"
            cli_process("compress", "--input", str(src), "--format", "raw", "--rows", str(rows),
                        "--cols", str(cols), "--scheme", "unified", "-g", str(groups),
                        "-c", "16", "--seed", "1", "-o", str(out),
                        OPENBLAS_NUM_THREADS=threads).check_returncode()
            containers.append(out.read_bytes())
        assert containers[0] == containers[1], groups


def test_structured_d16_bytes_independent_of_blas_threads(tmp_path):
    # 3000 rows in sub-vectors of d = 16 at c = 256: the dense assignment
    # scores blocks of 512 rows, five whole ones and a partial one
    rows, cols = 3000, 32
    src = tmp_path / "in.raw"
    src.write_bytes(np.random.default_rng(6).normal(size=(rows, cols)).astype("<f4").tobytes())
    containers = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.gpqe"
        cli_process("compress", "--input", str(src), "--format", "raw", "--rows", str(rows),
                    "--cols", str(cols), "--scheme", "structured", "-g", "2", "-c", "256",
                    "--seed", "1", "-o", str(out),
                    OPENBLAS_NUM_THREADS=threads).check_returncode()
        containers.append(out.read_bytes())
    assert containers[0] == containers[1]


def test_compare_output_independent_of_blas_threads(tmp_path):
    # 3000 rows make five blocks of 699. Rows near row 5's 60 copies, and
    # the zero rows, keep more than V/d = 46 columns through the float32
    # screen and are scored against every row; the rest re-score their
    # survivors
    rows, cols = 3000, 64
    rng = np.random.default_rng(7)
    a = rng.normal(size=(rows, cols)).astype(np.float32)
    a[100:160] = a[5]
    a[2000:2003] = 0.0
    b = (a + rng.normal(scale=0.3, size=a.shape)).astype(np.float32)
    paths = []
    for name, m in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.raw")
        paths[-1].write_bytes(m.astype("<f4").tobytes())
    outputs = []
    for threads in ("1", "2"):
        proc = cli_process("compare", "--original", str(paths[0]), "--reconstructed",
                           str(paths[1]), "--format", "raw", "--rows", str(rows),
                           "--cols", str(cols), "--report", "json",
                           OPENBLAS_NUM_THREADS=threads)
        proc.check_returncode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
