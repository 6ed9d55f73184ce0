"""Property tests of the CLI's exit contract: whatever the argv, the
container bytes or the word2vec text, the exit code is 0, 2, 3 or 4, a
nonzero exit writes exactly one "error:" line to stderr (no traceback, no
warning) and exit 0 writes nothing to stderr."""

import argparse
import contextlib
import io
import os
import struct
import tempfile
import warnings
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gpq import (EmbeddingMatrix, PartitionKind, PartitionScheme, embio, encode,
                 gpq_compress, pq_compress)
from gpq.cli import build_parser, main
from test_codec import HEADER_FIELDS

ROWS, COLS = 16, 4
MATRIX = EmbeddingMatrix(np.random.default_rng(0).normal(size=(ROWS, COLS)).astype(np.float32),
                         [f"t{i}" for i in range(ROWS)])
CONTAINERS = [encode(compress(MATRIX, PartitionScheme(kind, 2), 3, seed=1))
              for compress in (pq_compress, gpq_compress) for kind in PartitionKind]


def _files() -> dict[str, bytes]:
    w2v, raw = io.BytesIO(), io.BytesIO()
    embio.save_word2vec_text(MATRIX, w2v)
    embio.save_raw(MATRIX, raw)
    return {"emb.w2v": w2v.getvalue(), "emb.raw": raw.getvalue(), "c.gpqe": CONTAINERS[3],
            "vocab.txt": "\n".join(MATRIX.vocab).encode()}


FILES = _files()


INTS = ["-1", "0", "1", "2", "3", "4", "16", "x"]
STRINGS = sorted(FILES) + ["missing", "out", ".", "", "-", "2:2", "4:3", "2:", "a\nb"]


def _options():
    """Per subcommand, each option's flag and the values worth trying for it."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {}
    for command, parser in sub.choices.items():
        options[command] = {}
        for action in parser._actions:
            if not action.option_strings or isinstance(action, argparse._HelpAction):
                continue
            if action.nargs == 0:
                values = [None]
            elif action.choices:
                values = sorted(action.choices) + ["x"]
            else:
                values = INTS if action.type is not None else STRINGS
            options[command][action.option_strings[-1]] = values
    return options


OPTIONS = _options()
TOKENS = sorted({flag for opts in OPTIONS.values() for flag in opts}
                | set(OPTIONS) | set(INTS) | set(STRINGS) | {"-h", "w2v", "sample"})


def run_cli(argv: list[str], cwd: str) -> tuple[int, str]:
    """Run the CLI in cwd, where relative paths such as "out" land. Every
    warning raised counts as stderr output, as it would be printed there."""
    err, home = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(home)
    return code, err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)


def check_exit(argv: list[str], cwd: str) -> None:
    code, err = run_cli(argv, cwd)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), \
            (argv, err)


@st.composite
def mutated_containers(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(CONTAINERS)))
    how = draw(st.sampled_from(["flip", "field", "truncate", "append"]))
    if how == "flip":
        for pos in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=4)):
            data[pos] ^= draw(st.integers(1, 255))
    elif how == "field":
        offset, code = draw(st.sampled_from(HEADER_FIELDS))
        top = 2 ** (8 * struct.calcsize(code)) - 1
        struct.pack_into("<" + code, data, offset,
                         draw(st.one_of(st.integers(0, 8), st.integers(0, top))))
        struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    elif how == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    else:
        data += draw(st.binary(min_size=1, max_size=16))
    return bytes(data)


@given(mutated_containers())
@settings(max_examples=200, deadline=None)
def test_mutated_container_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "c.gpqe"), "wb") as f:
            f.write(data)
        for argv in (["info", "--input", "c.gpqe"],
                     ["decompress", "--input", "c.gpqe", "-o", "out.raw"],
                     ["decompress", "--input", "c.gpqe", "--mode", "sample", "-o", "out.raw"]):
            check_exit(argv, tmp)


# a valid value of every required option, per subcommand
VALID = {
    "compress": {"--input": "emb.w2v", "--groups": "2", "--clusters": "3", "--output": "out"},
    "decompress": {"--input": "c.gpqe", "--output": "out"},
    "info": {"--input": "c.gpqe"},
    "rwe": {"--rows": "4", "--cols": "2", "--output": "out"},
    "compare": {"--original": "emb.w2v", "--reconstructed": "emb.w2v"},
    "sweep": {"--input": "emb.w2v", "--config": "2:2"},
}


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand whose required options mostly keep a valid value and
    whose other options are mostly left out, each given otherwise a value
    from its pool; then a few stray tokens. Or stray tokens alone."""
    command = draw(st.sampled_from(sorted(OPTIONS) + [None]))
    argv = [] if command is None else [command]
    for flag, values in OPTIONS.get(command, {}).items():
        valid = VALID[command].get(flag)
        how = draw(st.sampled_from(["omit", "pool"] if valid is None
                                   else ["valid", "valid", "valid", "omit", "pool"]))
        if how != "omit":
            value = valid if how == "valid" else draw(st.sampled_from(values))
            argv += [flag] if value is None else [flag, value]
    return argv + draw(st.lists(st.sampled_from(TOKENS), max_size=2))


@given(argvs())
@settings(max_examples=200, deadline=None)
def test_argv_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in FILES.items():
            with open(os.path.join(tmp, name), "wb") as f:
                f.write(content)
        check_exit(argv, tmp)


# values at and beyond binary32 range, non-finite, Python-only syntax, junk
W2V_VALUES = [b"0", b"1", b"-2.5", b"1e-50", b"3.4028235e38", b"-3.4028235e38", b"1e39",
              b"-1e39", b"nan", b"inf", b"-inf", b"1_0", b"", b"x", b"\xff"]
W2V_TOKENS = [b"a", b"b", b"c", b"\xff\xfe", b""]


@st.composite
def word2vec_texts(draw) -> bytes:
    """A header, then rows of a token and values drawn from the pools, with
    one field more or fewer now and then; tokens repeat."""
    rows, dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    header = draw(st.sampled_from([f"{rows} {dim}".encode(), f"{rows + 1} {dim}".encode(),
                                   f"{rows} {dim} 1".encode(), b"x 1"]))
    lines = [header]
    for _ in range(rows):
        width = dim + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        fields = [draw(st.sampled_from(W2V_TOKENS))]
        fields += [draw(st.sampled_from(W2V_VALUES)) for _ in range(max(width, 0))]
        lines.append(b" ".join(fields))
    return b"\n".join(lines) + b"\n"


@given(word2vec_texts())
@settings(max_examples=200, deadline=None)
def test_word2vec_exit_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "emb.w2v"), "wb") as f:
            f.write(text)
        for argv in (["compress", "--input", "emb.w2v", "--method", "pq",
                      "-g", "1", "-c", "1", "-o", "out"],
                     ["compress", "--input", "emb.w2v", "--method", "gpq",
                      "-g", "1", "-c", "1", "-o", "out"],
                     ["compare", "--original", "emb.w2v", "--reconstructed", "emb.w2v",
                      "-k", "1"]):
            check_exit(argv, tmp)
