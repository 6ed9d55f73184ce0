"""Product quantization of embedding matrices, with optional Gaussian
codebooks, under two partition schemes.

Structured partitioning splits the matrix into g column groups and
clusters each group independently. Unified partitioning stacks the g
groups row-wise and clusters once, so all groups share one codebook.
Gaussian codebooks additionally keep per-dimension intra-cluster
variances, enabling sampled reconstruction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .embio import EmbeddingMatrix
from .errors import DataError
from .kmeans import kmeans_best_of
from .rng import SplitMix64, derive_seed

FLOAT_BITS = 32  # bit width of one stored floating-point parameter


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
        if self.groups < 1:
            raise DataError("group count must be >= 1")

    @property
    def blocks(self) -> int:
        """Number of codebooks: one per group if structured, one shared
        by all groups if unified. Group i reads codebook i // (groups // blocks)."""
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
        if not np.all(np.isfinite(self.codebook_means)):
            raise DataError("non-finite mean in codebook")
        if self.codebook_vars is not None:
            if self.codebook_vars.shape != self.codebook_means.shape:
                raise DataError("variance table shape differs from codebook")
            if not np.all(np.isfinite(self.codebook_vars)):
                raise DataError("non-finite variance in codebook")
            if np.any(self.codebook_vars < 0):
                raise DataError("negative variance in codebook")
        if not 0 <= self.seed < 2**64:
            raise DataError(f"seed {self.seed} does not fit the header's 64 bits")

    @property
    def rows(self) -> int:
        return self.index_matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.codebook_means.shape[2] * self.scheme.groups

    @property
    def clusters(self) -> int:
        return self.codebook_means.shape[1]

    @property
    def total_clusters(self) -> int:
        """Number of Gaussians/centroids overall: c*g structured, c unified."""
        return self.clusters * self.scheme.blocks

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
    float_params: int
    int_params: int
    baseline_bits: int
    compression_ratio: float

    @property
    def storable_bytes(self) -> int:
        return self.storable_bits // 8

    def to_dict(self) -> dict:
        return {
            "theoretical_bits": self.theoretical_bits,
            "storable_bits": self.storable_bits,
            "storable_bytes": self.storable_bytes,
            "float_params": self.float_params,
            "int_params": self.int_params,
            "baseline_bits": self.baseline_bits,
            "compression_ratio": self.compression_ratio,
        }


def index_bit_width(clusters: int) -> int:
    """Stored bits per index: ceil(log2 c); 0 for a single cluster."""
    return 0 if clusters <= 1 else (clusters - 1).bit_length()


def partition(e: EmbeddingMatrix, scheme: PartitionScheme) -> np.ndarray:
    """Split the matrix into an array of shape (blocks, groups // blocks
    * rows, n/g): block b stacks the contiguous column ranges of the
    groups it serves row-wise, in group order.

    Structured: one block per group, a view of the matrix. Unified: a
    single block holding all g groups, a copy.
    """
    scheme.check_divides(e.cols)
    sub = e.cols // scheme.groups
    return (e.values.reshape(e.rows, scheme.groups, sub).transpose(1, 0, 2)
            .reshape(scheme.blocks, -1, sub))


def _compress(e: EmbeddingMatrix, scheme: PartitionScheme, c: int, seed: int,
              restarts: int, with_vars: bool) -> QuantizedEmbedding:
    compute_size_report(e.rows, e.cols, scheme, c, with_vars)  # checks c and g up front
    g, blocks = scheme.groups, scheme.blocks
    per = g // blocks  # groups stacked row-wise into each block
    if c > per * e.rows:
        raise DataError(f"cluster count {c} exceeds {per * e.rows} sub-vectors per codebook")
    index = np.empty((e.rows, g), dtype=np.uint32)
    means = np.empty((blocks, c, e.cols // g), dtype=np.float32)
    vars_ = np.empty_like(means) if with_vars else None

    for b, block in enumerate(partition(e, scheme)):
        res = kmeans_best_of(block, c, derive_seed(seed, b), restarts)
        index[:, b * per:(b + 1) * per] = res.assignments.reshape(per, e.rows).T
        # a variance beyond binary32 range casts to inf, which
        # QuantizedEmbedding rejects
        with np.errstate(over="ignore"):
            means[b] = res.centroids
            if with_vars:
                vars_[b] = res.variances
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
    if mode is ReconstructMode.SAMPLE:
        if q.codebook_vars is None:
            raise DataError("sample mode requires a variance table")
        rng = SplitMix64(seed)
        z = rng.normals(q.codebook_means.size).reshape(q.codebook_means.shape)
        book = (q.codebook_means.astype(np.float64)
                + np.sqrt(q.codebook_vars.astype(np.float64)) * z).astype(np.float32)
    else:
        book = q.codebook_means

    g = q.scheme.groups
    codebook_of_group = np.arange(g) // (g // q.scheme.blocks)
    return EmbeddingMatrix(book[codebook_of_group, q.index_matrix].reshape(q.rows, q.cols))


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
        float_params=float_params,
        int_params=int_params,
        baseline_bits=baseline_bits,
        compression_ratio=baseline_bits / storable_bits,
    )


def size_report(q: QuantizedEmbedding) -> SizeReport:
    return compute_size_report(q.rows, q.cols, q.scheme, q.clusters,
                               q.codebook_vars is not None)
