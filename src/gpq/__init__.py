"""Embedding-matrix compression: product quantization with optional
Gaussian codebooks, random word embeddings, and bit-exact size accounting."""

from .embio import (EmbeddingMatrix, load_raw, load_word2vec_text, save_raw,
                    save_word2vec_text)
from .errors import DataError, FormatError, GpqError
from .kmeans import ClusterResult, kmeans_best_of
from .metrics import FidelityReport, fidelity
from .quantizer import (PartitionKind, PartitionScheme, QuantizedEmbedding,
                        ReconstructMode, SizeReport, compute_size_report,
                        gpq_compress, partition, pq_compress, reconstruct,
                        size_report)
from .rwe import RweConfig, projection_init, rwe_generate, rwe_param_counts
from .codec import decode, encode

__all__ = [
    "ClusterResult", "DataError", "EmbeddingMatrix", "FidelityReport",
    "FormatError", "GpqError", "PartitionKind", "PartitionScheme",
    "QuantizedEmbedding", "ReconstructMode", "RweConfig", "SizeReport",
    "compute_size_report", "decode", "encode", "fidelity", "gpq_compress",
    "kmeans_best_of", "load_raw", "load_word2vec_text",
    "partition", "pq_compress", "projection_init", "reconstruct",
    "rwe_generate", "rwe_param_counts", "save_raw", "save_word2vec_text",
    "size_report",
]

__version__ = "0.1.0"
