"""Product quantization of embedding matrices, with optional Gaussian
codebooks, under two partition schemes.

Structured partitioning splits the matrix into g column groups and
clusters each group independently. Unified partitioning clusters the
sub-vectors of all g groups as one set, so all groups share one codebook.
Gaussian codebooks additionally keep per-dimension intra-cluster
variances, enabling sampled reconstruction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .embio import EmbeddingMatrix, to_float32
from .errors import DataError, check_finite, check_nbytes
from .kmeans import kmeans_best_of
from .rng import SplitMix64, check_seed, derive_seed

FLOAT_BITS = 32  # bit width of one stored floating-point parameter
_GATHER_BYTES = 1 << 17  # output bytes per reconstruct chunk. In a fresh
# process, 256 KiB chunks took 2.6x as long at 2000x64, d = 1, where the
# chunk's intp index is twice the output; 32 KiB ones took 1.4x as long at
# 4000x128, d = 16.


class PartitionKind(enum.Enum):
    STRUCTURED = "structured"
    UNIFIED = "unified"


class ReconstructMode(enum.Enum):
    MEAN = "mean"
    SAMPLE = "sample"


@dataclass(frozen=True)
class PartitionScheme:
    kind: PartitionKind
    groups: int

    def __post_init__(self):
        if not isinstance(self.kind, PartitionKind):
            raise DataError(f"partition kind {self.kind!r} is not a PartitionKind")
        if self.groups < 1:
            raise DataError("group count must be >= 1")

    @property
    def blocks(self) -> int:
        """Number of codebooks: one per group if structured, one shared
        by all groups if unified. The matrix and its index are both read
        as (rows, blocks, groups // blocks) groups, and block b of either
        goes to codebook b."""
        return self.groups if self.kind is PartitionKind.STRUCTURED else 1

    def check_divides(self, cols: int) -> None:
        if cols % self.groups != 0:
            raise DataError(
                f"group count {self.groups} does not divide dimension {cols}")


@dataclass(frozen=True)
class QuantizedEmbedding:
    """Index matrix plus codebook(s); the compressed form of a matrix.

    codebook_means has shape (blocks, c, n/g), with blocks and the
    codebook each group reads given by PartitionScheme.blocks.
    codebook_vars, when present, is shape-identical and carries
    per-dimension intra-cluster variances. The index is uint32 and the
    codebooks float32, so they hold what a container holds. rows, cols and
    clusters come from the arrays' shapes. Construction raises DataError
    unless a GPQE container can carry the value.
    """

    scheme: PartitionScheme
    index_matrix: np.ndarray           # (rows, groups) uint32
    codebook_means: np.ndarray         # (blocks, c, n/g) float32
    codebook_vars: np.ndarray | None   # same shape, float32, or None
    seed: int

    def __post_init__(self):
        g, blocks = self.scheme.groups, self.scheme.blocks
        if self.index_matrix.dtype != np.uint32:
            raise DataError(f"index matrix dtype {self.index_matrix.dtype} is not uint32")
        for name, table in (("codebook", self.codebook_means), ("variance", self.codebook_vars)):
            if table is not None and table.dtype != np.float32:
                raise DataError(f"{name} dtype {table.dtype} is not float32")
        if self.index_matrix.ndim != 2 or self.index_matrix.shape[1] != g:
            raise DataError(f"index matrix shape {self.index_matrix.shape} != (rows, {g})")
        if self.codebook_means.ndim != 3 or self.codebook_means.shape[0] != blocks:
            raise DataError(
                f"codebook shape {self.codebook_means.shape} != ({blocks}, clusters, cols/{g})")
        size_report(self)  # checks the header numbers
        # a broadcast axis (stride 0, as in a decoded c = 1 index) repeats
        # one entry, so one entry along it is checked
        index = self.index_matrix[tuple(slice(None) if s else slice(1)
                                        for s in self.index_matrix.strides)]
        if index.max() >= self.clusters:
            raise DataError("index matrix entry out of range")
        check_finite(self.codebook_means, "non-finite mean in codebook")
        if self.codebook_vars is not None:
            if self.codebook_vars.shape != self.codebook_means.shape:
                raise DataError("variance table shape differs from codebook")
            check_finite(self.codebook_vars, "non-finite variance in codebook")
            if self.codebook_vars.min() < 0:
                raise DataError("negative variance in codebook")
        check_seed(self.seed)

    @property
    def rows(self) -> int:
        return self.index_matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.codebook_means.shape[2] * self.scheme.groups

    @property
    def clusters(self) -> int:
        return self.codebook_means.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantizedEmbedding):
            return NotImplemented
        if (self.codebook_vars is None) != (other.codebook_vars is None):
            return False
        return (self.scheme == other.scheme and self.seed == other.seed
                and np.array_equal(self.index_matrix, other.index_matrix)
                and np.array_equal(self.codebook_means, other.codebook_means)
                and (self.codebook_vars is None
                     or np.array_equal(self.codebook_vars, other.codebook_vars)))


@dataclass(frozen=True)
class SizeReport:
    """Bit-exact accounting of a compressed matrix.

    theoretical_bits uses exact log2(c) per index; storable_bits uses
    ceil(log2 c) bits per index, packed matrix-level and padded to a byte
    boundary, plus 32 bits per codebook float.
    """

    theoretical_bits: float
    storable_bits: int
    storable_bytes: int
    float_params: int
    int_params: int
    baseline_bits: int
    compression_ratio: float


def index_bit_width(clusters: int) -> int:
    """Stored bits per index: ceil(log2 c); 0 for a single cluster."""
    return 0 if clusters <= 1 else (clusters - 1).bit_length()


def partition(e: EmbeddingMatrix, scheme: PartitionScheme) -> np.ndarray:
    """Split the matrix into a view of shape (blocks, groups // blocks
    * rows, n/g) in its own row-major order: in block b (see
    PartitionScheme.blocks), sub-vector j of row r is entry
    r * (groups // blocks) + j, and its label the index's entry (r, b, j).
    Neither scheme copies a row-major matrix.
    """
    scheme.check_divides(e.cols)
    return (e.values.reshape(e.rows, scheme.blocks, -1).transpose(1, 0, 2)
            .reshape(scheme.blocks, -1, e.cols // scheme.groups))


def _compress(e: EmbeddingMatrix, scheme: PartitionScheme, c: int, seed: int,
              restarts: int, with_vars: bool) -> QuantizedEmbedding:
    compute_size_report(e.rows, e.cols, scheme, c, with_vars)  # checks c and g up front
    blocks = partition(e, scheme)
    if c > blocks.shape[1]:
        raise DataError(f"cluster count {c} exceeds {blocks.shape[1]} sub-vectors per codebook")
    index = np.empty((e.rows, scheme.groups), dtype=np.uint32)
    means = np.empty((len(blocks), c, blocks.shape[2]), dtype=np.float32)
    vars_ = np.empty_like(means) if with_vars else None

    for b, block in enumerate(blocks):
        res = kmeans_best_of(block, c, derive_seed(seed, b), restarts)
        index.reshape(e.rows, len(blocks), -1)[:, b] = res.assignments.reshape(e.rows, -1)
        # a mean lies within its cluster's float32 range; a variance beyond
        # binary32 range casts to inf, which QuantizedEmbedding rejects
        means[b] = res.centroids
        if with_vars:
            vars_[b] = to_float32(res.variances)
    return QuantizedEmbedding(scheme, index, means, vars_, seed)


def pq_compress(e: EmbeddingMatrix, scheme: PartitionScheme, c: int,
                seed: int, restarts: int = 1) -> QuantizedEmbedding:
    """Plain product quantization: index matrix + centroid codebook."""
    return _compress(e, scheme, c, seed, restarts, with_vars=False)


def gpq_compress(e: EmbeddingMatrix, scheme: PartitionScheme, c: int,
                 seed: int, restarts: int = 1) -> QuantizedEmbedding:
    """Same clustering as pq_compress, plus per-dimension intra-cluster
    variances so each cluster carries a diagonal Gaussian."""
    return _compress(e, scheme, c, seed, restarts, with_vars=True)


def reconstruct(q: QuantizedEmbedding, mode: ReconstructMode = ReconstructMode.MEAN,
                seed: int = 0) -> EmbeddingMatrix:
    """Rebuild the dense matrix by codebook lookup.

    MEAN substitutes each sub-vector with its cluster mean. SAMPLE first
    draws one codebook with every entry ~ Normal(mean, variance) from the
    given seed, then looks up as in MEAN mode.
    """
    if not isinstance(mode, ReconstructMode):
        raise DataError(f"reconstruct mode {mode!r} is not a ReconstructMode")
    check_nbytes(4 * q.rows * q.cols, f"a {q.rows}x{q.cols} float32 matrix")
    if mode is ReconstructMode.SAMPLE:
        if q.codebook_vars is None:
            raise DataError("sample mode requires a variance table")
        rng = SplitMix64(seed)
        z = rng.normals(q.codebook_means.size).reshape(q.codebook_means.shape)
        book = (q.codebook_means.astype(np.float64)
                + np.sqrt(q.codebook_vars.astype(np.float64)) * z).astype(np.float32)
    else:
        book = q.codebook_means

    blocks, c, sub = book.shape
    table = book.reshape(blocks * c, sub)  # codebook b's rows start at row b·c
    offsets = np.arange(0, blocks * c, c)[:, None]
    index = q.index_matrix.reshape(q.rows, blocks, -1)  # column block b reads codebook b
    out = np.empty((q.rows, q.cols), dtype=np.float32)
    step = max(1, _GATHER_BYTES // out[:1].nbytes)
    for lo in range(0, q.rows, step):
        # np.take's default mode="raise" fails on an entry past the last
        # codebook, where mode="clip" would read the table's last row
        out[lo:lo + step] = np.take(table, index[lo:lo + step] + offsets,
                                    axis=0).reshape(-1, q.cols)
    return EmbeddingMatrix(out)


def compute_size_report(rows: int, cols: int, scheme: PartitionScheme,
                        clusters: int, has_vars: bool) -> SizeReport:
    """Size accounting from parameters alone (no codebook needed). The one
    check of a container header's numbers: raises DataError unless the
    matrix is non-empty, c >= 1 and the group count divides cols."""
    if rows < 1 or cols < 1:
        raise DataError(f"empty matrix: rows={rows} cols={cols}")
    if clusters < 1:
        raise DataError("cluster count must be >= 1")
    scheme.check_divides(cols)
    g = scheme.groups
    mean_params = clusters * (cols // g) * scheme.blocks
    float_params = 2 * mean_params if has_vars else mean_params
    int_params = rows * g

    theoretical_bits = math.log2(clusters) * rows * g + float_params * FLOAT_BITS
    index_bits = index_bit_width(clusters) * rows * g
    storable_bits = 8 * ((index_bits + 7) // 8) + float_params * FLOAT_BITS
    baseline_bits = rows * cols * FLOAT_BITS
    return SizeReport(
        theoretical_bits=theoretical_bits,
        storable_bits=storable_bits,
        storable_bytes=storable_bits // 8,
        float_params=float_params,
        int_params=int_params,
        baseline_bits=baseline_bits,
        compression_ratio=baseline_bits / storable_bits,
    )


def size_report(q: QuantizedEmbedding) -> SizeReport:
    return compute_size_report(q.rows, q.cols, q.scheme, q.clusters,
                               q.codebook_vars is not None)
