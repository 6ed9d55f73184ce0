import numpy as np
import pytest

import gpq.rwe
from gpq import DataError, RweConfig, projection_init, rwe_generate, rwe_param_counts
from gpq.rng import SplitMix64


def test_rows_are_unit_norm():
    e = rwe_generate(RweConfig(200, 16, seed=1))
    norms = np.linalg.norm(e.values.astype(np.float64), axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6)


def test_deterministic():
    a = rwe_generate(RweConfig(50, 8, seed=123))
    b = rwe_generate(RweConfig(50, 8, seed=123))
    assert a.values.tobytes() == b.values.tobytes()
    c = rwe_generate(RweConfig(50, 8, seed=124))
    assert a.values.tobytes() != c.values.tobytes()


def test_statistics_large():
    e = rwe_generate(RweConfig(10000, 64, seed=0))
    vals = e.values.astype(np.float64)
    assert abs(vals.mean()) <= 0.005
    assert (1 / 64) * 0.9 <= vals.var() <= (1 / 64) * 1.1


def test_projection_bounds_and_mean():
    w = projection_init(512, 512, seed=3)
    bound = np.sqrt(6 / 1024)
    assert w.shape == (512, 512)
    assert np.all(np.abs(w) <= bound)
    assert abs(float(w.mean())) <= 0.002


def test_projection_minimal():
    w = projection_init(1, 1, seed=0)
    assert abs(w[0, 0]) <= np.sqrt(3)


def test_projection_deterministic():
    assert np.array_equal(projection_init(8, 4, seed=9), projection_init(8, 4, seed=9))


def test_param_counts():
    assert rwe_param_counts(RweConfig(32000, 512, seed=0))["float_params"] == 2
    counts = rwe_param_counts(RweConfig(32000, 512, seed=0), 512)
    assert counts["float_params"] == 2 + 512 * 512
    assert counts["int_params"] == 0


@pytest.mark.parametrize("n, m", [(0, 4), (4, 0)])
def test_projection_validation(n, m):
    with pytest.raises(DataError, match="projection dimensions"):
        projection_init(n, m, seed=0)


def test_projection_beyond_numpy_bytes_is_data_error():
    # 2**62 float64 values: fewer elements than the largest intp, but more
    # bytes, which numpy refuses with a ValueError before allocating
    with pytest.raises(DataError, match="more than numpy can address"):
        projection_init(2**31, 2**31, 0)


def test_zero_row_resampled(monkeypatch):
    # a zero row is redrawn from the same stream: the first draw's row 1 is
    # zeroed, so the result is the first draw with row 1 replaced by the
    # next draw, normalised
    rows, cols, seed = 3, 4, 5
    draws = []

    class FirstDrawRowOneZero(SplitMix64):
        def normals(self, n):
            out = super().normals(n)
            if not draws:
                out[cols:2 * cols] = 0.0
            draws.append(n)
            return out

    monkeypatch.setattr(gpq.rwe, "SplitMix64", FirstDrawRowOneZero)
    got = rwe_generate(RweConfig(rows, cols, seed)).values
    assert draws == [rows * cols, cols]
    rng = SplitMix64(seed)
    s = rng.normals(rows * cols).reshape(rows, cols)
    s[1] = rng.normals(cols)
    assert np.array_equal(got, (s / np.linalg.norm(s, axis=1)[:, None]).astype(np.float32))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_data_error(seed):
    # taken mod 2**64, these would alias 2**64 - 1 and 0; no stream does that
    with pytest.raises(DataError, match="64 bits"):
        RweConfig(4, 4, seed)
    with pytest.raises(DataError, match="64 bits"):
        projection_init(4, 4, seed)
    last = 2**64 - 1
    assert rwe_generate(RweConfig(4, 4, last)).values.shape == (4, 4)
    assert projection_init(4, 4, last).shape == (4, 4)


@pytest.mark.parametrize("rows,cols", [(0, 4), (4, 0)])
def test_config_validation(rows, cols):
    with pytest.raises(DataError):
        RweConfig(rows, cols, seed=0)
