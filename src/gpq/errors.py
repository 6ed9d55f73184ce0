"""Exception hierarchy shared across the package, and the one array-size
check and the one finiteness check."""

import sys

import numpy as np


class GpqError(Exception):
    """Base class for all errors raised by this package."""


class DataError(GpqError):
    """Invalid numeric data or parameters: malformed embedding files,
    non-finite values, impossible cluster counts, shape mismatches."""


class FormatError(GpqError):
    """Malformed GPQE container: bad magic/version, CRC mismatch,
    truncated stream, out-of-range indices."""


def check_nbytes(nbytes: int, what: str) -> None:
    """DataError if an array of nbytes is larger than numpy can address:
    numpy refuses one with more bytes than the largest intp with a
    ValueError, before it allocates anything."""
    if nbytes > sys.maxsize:
        raise DataError(f"{what} takes {nbytes} bytes, more than numpy can address")


def check_finite(values: np.ndarray, message: str) -> None:
    """DataError(message) unless every value is finite. A NaN reaches both
    min and max, so their two scalars decide it and no mask is built; no
    numpy build warns on a NaN there."""
    with np.errstate(invalid="ignore"):
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise DataError(message)
