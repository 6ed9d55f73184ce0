import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _memory import traced_peak
from _oracles import load_word2vec_text as reference_load
from gpq import (DataError, EmbeddingMatrix, PartitionKind, PartitionScheme, QuantizedEmbedding,
                 embio, load_raw, load_word2vec_text, save_raw, save_word2vec_text)
from gpq.kmeans import kmeans


def w2v_bytes(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


def codebook(means: np.ndarray, variances: np.ndarray | None = None) -> QuantizedEmbedding:
    """A one-row QuantizedEmbedding of one unified group over the (c, d)
    table means, with the variance table variances."""
    return QuantizedEmbedding(PartitionScheme(PartitionKind.UNIFIED, 1),
                              np.zeros((1, 1), dtype=np.uint32), means[None],
                              None if variances is None else variances[None], 0)


def w2v_of(v: np.ndarray) -> io.BytesIO:
    """Word2vec text of the rows of v, tokens w0, w1, ..."""
    rows = "".join(f"w{i} {' '.join(map(str, row))}\n" for i, row in enumerate(v))
    return w2v_bytes(f"{v.shape[0]} {v.shape[1]}\n{rows}")


class TestWord2vecLoad:
    def test_basic(self):
        e = load_word2vec_text(w2v_bytes("2 3\na 1 0 0\nb 0 1 0\n"))
        assert e.rows == 2 and e.cols == 3
        assert e.vocab == ["a", "b"]
        assert np.array_equal(e.values, [[1, 0, 0], [0, 1, 0]])

    def test_minimal(self):
        e = load_word2vec_text(w2v_bytes("1 1\nx 0.5\n"))
        assert e.values.shape == (1, 1)
        assert e.values[0, 0] == np.float32(0.5)

    def test_crlf(self):
        e = load_word2vec_text(w2v_bytes("1 2\r\nx 1 2\r\n"))
        assert np.array_equal(e.values, [[1, 2]])

    def test_trailing_blank_lines(self):
        e = load_word2vec_text(w2v_bytes("1 2\nx 1 2\n\n  \r\n\n"))
        assert np.array_equal(e.values, [[1, 2]])

    def test_row_count_mismatch(self):
        with pytest.raises(DataError, match="row count mismatch"):
            load_word2vec_text(w2v_bytes("3 2\na 1 2\nb 3 4\n"))
        with pytest.raises(DataError, match="row count mismatch"):
            load_word2vec_text(w2v_bytes("1 2\na 1 2\nb 3 4\nnot even numbers\n"))

    def test_header_larger_than_file(self):
        with pytest.raises(DataError, match="row count mismatch"):
            load_word2vec_text(w2v_bytes("100000000000 100000\n"))

    def test_dim_mismatch(self):
        with pytest.raises(DataError, match="dim mismatch"):
            load_word2vec_text(w2v_bytes("1 3\na 1 2\n"))

    def test_duplicate_token(self):
        with pytest.raises(DataError, match="duplicate"):
            load_word2vec_text(w2v_bytes("2 1\na 1\na 2\n"))

    def test_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            load_word2vec_text(w2v_bytes("1 1\na nan\n"))

    @pytest.mark.parametrize("header", ["", "2", "a b", "2 3 4", "-1 2"])
    def test_malformed_header(self, header):
        with pytest.raises(DataError):
            load_word2vec_text(w2v_bytes(header + "\n"))

    @pytest.mark.parametrize("data", [b"2 1\na 0.5\n\xff\xfe 1\n", b"\xff\xfe 1\nx 0.5\n"])
    def test_not_utf8(self, data):
        with pytest.raises(DataError):
            load_word2vec_text(io.BytesIO(data))


# separators str.split() takes; numpy's C parser ends a line at a bare CR
W2V_SEPARATORS = ["  ", "\t", "\r", "\x0b", "\xa0", "\u3000"]
# syntax float() takes and the C parser refuses, values beyond binary32
# range either way, non-finite, and junk
W2V_SPECIAL_VALUES = ["1_000.5", "\u0663", "-0", "1e-46", "3.4028235e38", "1e39",
                      "Infinity", "nan", "-inf", "0x10", "x", "1e"]


@st.composite
def word2vec_cases(draw) -> tuple[bytes, int]:
    """word2vec text and its header's dim: mostly valid rows, with now and
    then a repeated token, a field more or fewer, a blank line, a special
    value or separator, and a header count one off."""
    rows, dim = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    count = max(1, rows + draw(st.sampled_from([0] * 8 + [-1, 1])))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    lines = [f"{count} {dim}"]
    for i in range(rows):
        if draw(st.integers(0, 39)) == 0:
            lines.append("")
        token = f"w{i}" if draw(st.integers(0, 7)) else draw(st.sampled_from(["a", "\u00e9"]))
        fields = [token]
        for _ in range(dim + draw(st.sampled_from([0] * 29 + [-1, 1]))):
            if draw(st.integers(0, 19)):
                x = draw(st.floats(allow_nan=False, allow_infinity=False, width=32))
                fields.append(f"{x:.9g}")
            else:
                fields.append(draw(st.sampled_from(W2V_SPECIAL_VALUES)))
        line = fields[0]
        for field in fields[1:]:
            line += (" " if draw(st.integers(0, 9)) else draw(st.sampled_from(W2V_SEPARATORS)))
            line += field
        lines.append(line)
    return newline.join(lines).encode() + newline.encode(), dim


def load_outcome(load, text: bytes):
    """The values' bits, shape and vocab of a load, or its error message."""
    try:
        e = load(io.BytesIO(text))
    except DataError as exc:
        return str(exc)
    return e.values.tobytes(), e.values.shape, e.vocab


class TestWord2vecLoadMatchesReference:
    """The chunked loader against one float() per value: bit-equal values
    and vocab when it accepts, the same first error when it does not, at
    chunks of 1 and 3 rows and the default."""

    @pytest.mark.parametrize("chunk_rows", [1, 3, None])
    @given(word2vec_cases())
    @settings(max_examples=150, deadline=None)
    @example(case=(b"2 2\na 1_000.5 2\nb 3 4\n", 2))
    @example(case=("2 2\na \u0663 1\nb 3 4\n".encode(), 2))
    @example(case=(b"2 2\na 1\r2\nb\r3 4\n", 2))
    @example(case=(b"2 1\na 1\r2\nb 3\n", 1))
    @example(case=(b"2 2\na 1\x0b2\nb\x0b3 4\n", 2))
    @example(case=("2 2\na 1\xa02\nb\xa03 4\n".encode(), 2))
    @example(case=("2 2\na 1\u30002\nb\u30003 4\n".encode(), 2))
    @example(case=(b"2 1\na 1\nb 1e39\n", 1))
    @example(case=(b"2 2\na 1e-46 -0\nb -0 0\n", 2))
    @example(case=(b"2 1\na 1\nb Infinity\n", 1))
    @example(case=(b"3 1\na 1\nb nan\na 2\n", 1))
    @example(case=(b"5 2\na 1 2\nb 3 4\nc 5 6\nd 7 8\ne 9\n", 2))
    @example(case=(b"3 1\na 1\n\nb 2\nc 3\n", 1))
    @example(case=(b"1 1\na 1\nb 2\n", 1))
    @example(case=(b"100000000000 1\na 1\n", 1))
    @example(case=(b"4 1\na 1\nb\nc 3\nd 4\n", 1))
    @example(case=(b"3 1\na 1\n\xff 2\n\nc 3\n", 1))
    @example(case=(b"3 1\na 1\n\na 2\n", 1))
    def test_matches_reference(self, chunk_rows, case):
        text, dim = case
        chunk = embio._CHUNK_VALUES if chunk_rows is None else chunk_rows * dim
        with mock.patch.object(embio, "_CHUNK_VALUES", chunk):
            got = load_outcome(load_word2vec_text, text)
        assert got == load_outcome(reference_load, text)

    @pytest.mark.parametrize("special, slow_chunks", [("0.25", 0), ("1_000.5", 1)])
    def test_valid_chunks_take_the_fast_path(self, special, slow_chunks):
        # three chunks of 4 rows, CRLF line ends, tab separators; the per-row
        # parse runs only for a chunk numpy refuses (row 5, the second chunk)
        rng = np.random.default_rng(5)
        rows = [[f"{x:.9g}" for x in rng.standard_normal(2)] for _ in range(12)]
        rows[5][1] = special
        text = "12 2\r\n" + "".join(f"w{i}\t{a}\t{b}\r\n" for i, (a, b) in enumerate(rows))
        calls, parse_rows = [], embio._parse_rows

        def spy(*args):
            calls.append(args[1])
            return parse_rows(*args)

        with mock.patch.object(embio, "_CHUNK_VALUES", 8), \
                mock.patch.object(embio, "_parse_rows", spy):
            got = load_outcome(load_word2vec_text, text.encode())
        assert calls == [4] * slow_chunks
        assert got == load_outcome(reference_load, text.encode())
        assert got[1] == (12, 2)

    def test_peak_memory_within_reference(self):
        # reading the whole file (15 MB here), or parsing the whole matrix
        # into one float64 buffer, would peak above the per-value parse
        rng = np.random.default_rng(3)
        row = " ".join(["%.9g"] * 64)
        text = "20000 64\n" + "".join(f"w{i} {row % tuple(v)}\n" for i, v in
                                      enumerate(rng.standard_normal((20000, 64)).tolist()))
        data = text.encode()
        assert (traced_peak(lambda: load_word2vec_text(io.BytesIO(data)))
                <= 1.1 * traced_peak(lambda: reference_load(io.BytesIO(data))))


class TestRaw:
    def test_basic(self):
        data = np.array([1.0, 2.0], dtype="<f4").tobytes()
        e = load_raw(io.BytesIO(data), 1, 2)
        assert np.array_equal(e.values, [[1.0, 2.0]])
        assert e.vocab is None

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            load_raw(io.BytesIO(b"\x00" * 7), 1, 2)

    @pytest.mark.parametrize("rows, cols", [(0, 8), (1, 0)])
    def test_invalid_shape(self, rows, cols):
        with pytest.raises(DataError, match=f"invalid shape {rows}x{cols}"):
            load_raw(io.BytesIO(b""), rows, cols)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        e = EmbeddingMatrix(rng.normal(size=(5, 4)).astype(np.float32))
        buf = io.BytesIO()
        save_raw(e, buf)
        buf.seek(0)
        assert load_raw(buf, 5, 4) == e
        assert e != "e"

    def test_identity_bytes(self):
        e = EmbeddingMatrix(np.eye(3, dtype=np.float32))
        b1, b2 = io.BytesIO(), io.BytesIO()
        save_raw(e, b1)
        buf = io.BytesIO(b1.getvalue())
        save_raw(load_raw(buf, 3, 3), b2)
        assert b1.getvalue() == b2.getvalue()

    @given(arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                  elements=st.floats(-1e6, 1e6, width=32)))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, values):
        e = EmbeddingMatrix(values)
        buf = io.BytesIO()
        save_raw(e, buf)
        buf.seek(0)
        assert np.array_equal(load_raw(buf, *values.shape).values, e.values)


class TestWord2vecSave:
    def test_requires_vocab(self):
        e = EmbeddingMatrix(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(DataError, match="vocab"):
            save_word2vec_text(e, io.BytesIO())

    def test_round_trip_tenth(self):
        e = EmbeddingMatrix(np.array([[0.1]], dtype=np.float32), ["x"])
        buf = io.BytesIO()
        save_word2vec_text(e, buf)
        buf.seek(0)
        assert load_word2vec_text(buf).values[0, 0] == np.float32(0.1)

    @given(arrays(np.float32, (4, 3),
                  elements=st.floats(allow_nan=False, allow_infinity=False, width=32)))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_exact_binary32(self, values):
        e = EmbeddingMatrix(values, ["a", "b", "c", "d"])
        buf = io.BytesIO()
        save_word2vec_text(e, buf)
        buf.seek(0)
        back = load_word2vec_text(buf)
        assert np.array_equal(back.values, e.values)
        assert back.vocab == e.vocab


class TestEmbeddingMatrix:
    def test_vocab_length_check(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(np.zeros((2, 2), dtype=np.float32), ["a"])

    def test_duplicate_vocab(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(np.zeros((2, 2), dtype=np.float32), ["a", "a"])

    def test_rejects_whitespace_token(self):
        # an empty token is rejected too: its word2vec line would start with a value
        for token in ["a b", ""]:
            with pytest.raises(DataError, match="whitespace"):
                EmbeddingMatrix(np.zeros((1, 1), dtype=np.float32), [token])

    @pytest.mark.parametrize("vocab, token", [
        ([1, 2], "1"), (["a", None], "None"), ([b"a", b"b"], "b'a'"), (["a", 3.0], "3.0"),
        (["a", ["b"]], "['b']"), (["a b", "a b", 7], "7")])
    def test_rejects_token_not_str(self, vocab, token):
        # checked before the duplicate and whitespace checks (the last case
        # fails both), and before hashing: a list token is unhashable
        with pytest.raises(DataError) as err:
            EmbeddingMatrix(np.zeros((len(vocab), 1), dtype=np.float32), vocab)
        assert str(err.value) == f"token {token} is not a str"

    def test_vocab_is_copied(self):
        # the tokens are checked once, here: the caller's list may change later
        vocab = ["a", "b"]
        e = EmbeddingMatrix(np.zeros((2, 1), dtype=np.float32), vocab)
        vocab[1] = "b c"
        assert e.vocab == ["a", "b"]

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(np.array([[np.nan]], dtype=np.float32))

    @pytest.mark.parametrize("check", [
        EmbeddingMatrix, lambda v: kmeans(v, 1, seed=0), codebook,
        lambda v: codebook(np.zeros_like(v), v), lambda v: load_word2vec_text(w2v_of(v)),
    ], ids=["EmbeddingMatrix", "kmeans", "means", "variances", "word2vec"])
    @pytest.mark.parametrize("at", [0, 5, 11])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_each_non_finite_value_anywhere(self, check, at, value):
        v = np.linspace(-1, 1, 12, dtype=np.float32)
        v[at] = value
        # a floating-point warning would be an error here, on any numpy
        with np.errstate(all="raise"), pytest.raises(DataError, match="non-finite"):
            check(v.reshape(3, 4))

    def test_rejects_value_beyond_binary32(self):
        # casts to inf: a data error, with no overflow warning
        with pytest.raises(DataError, match="non-finite"):
            EmbeddingMatrix(np.array([[1e300, 1.0]]))

    def test_finiteness_check_makes_no_mask(self):
        # a bool mask of the matrix would be a quarter of its float32 bytes
        x = np.ones((512, 512), dtype=np.float32)
        assert traced_peak(EmbeddingMatrix, x) <= x.nbytes // 16

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(np.zeros((0, 3), dtype=np.float32))
