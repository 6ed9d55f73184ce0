"""Command-line interface: compress, decompress, info, rwe, compare, sweep.

Exit codes: 0 success, 2 usage error, 3 data error, 4 container format or
CRC error. Errors print a single machine-parsable line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import codec, embio, metrics, quantizer, rwe
from .errors import DataError, FormatError
from .quantizer import PartitionKind, PartitionScheme, ReconstructMode

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_FORMAT = 4


def _mib(n_bytes: float) -> str:
    return f"{n_bytes / 2**20:.2f} MiB"


def _load_embedding(path: str, fmt: str, rows: int | None, cols: int | None):
    with open(path, "rb") as f:
        if fmt == "w2v":
            return embio.load_word2vec_text(f)
        if rows is None or cols is None:
            raise DataError("raw format requires --rows and --cols")
        return embio.load_raw(f, rows, cols)


def _save_embedding(e, path: str, fmt: str, vocab_path: str | None):
    if fmt == "w2v" and e.vocab is None:
        if vocab_path is None:
            raise DataError("w2v output requires a vocabulary (--vocab)")
        try:
            with open(vocab_path, "r", encoding="utf-8") as f:
                tokens = [line.rstrip("\n") for line in f if line.strip()]
        except UnicodeDecodeError:
            raise DataError(f"vocabulary {vocab_path} is not UTF-8 text") from None
        e = embio.EmbeddingMatrix(e.values, tokens)
    save = embio.save_word2vec_text if fmt == "w2v" else embio.save_raw
    with open(path, "wb") as f:
        save(e, f)


def _size_lines(report: quantizer.SizeReport) -> list[str]:
    return [
        f"theoretical_bits     {report.theoretical_bits:.2f}",
        f"storable_bits        {report.storable_bits}",
        f"storable_size        {report.storable_bytes} B ({_mib(report.storable_bytes)})",
        f"float_params         {report.float_params}",
        f"int_params           {report.int_params}",
        f"baseline_size        {report.baseline_bits // 8} B ({_mib(report.baseline_bits / 8)})",
        f"compression_ratio    {report.compression_ratio:.2f}x",
    ]


def _print_report(report_dict: dict, lines: list[str], fmt: str):
    print(json.dumps(report_dict, indent=2) if fmt == "json" else "\n".join(lines))


def _seed(text: str) -> int:
    """argparse type of every --seed: an integer in [0, 2**64)."""
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"{seed} is outside [0, 2**64)")
    return seed


def _quantize(e, method: str, scheme: PartitionScheme, c: int, seed: int, restarts: int):
    compress = quantizer.gpq_compress if method == "gpq" else quantizer.pq_compress
    return compress(e, scheme, c, seed, restarts)


def cmd_compress(args) -> int:
    e = _load_embedding(args.input, args.format, args.rows, args.cols)
    q = _quantize(e, args.method, PartitionScheme(PartitionKind(args.scheme), args.groups),
                  args.clusters, args.seed, args.restarts)
    data = codec.encode(q)
    with open(args.output, "wb") as f:
        f.write(data)
    report = quantizer.size_report(q)
    extra = {"container_bytes": len(data),
             "header_and_crc_bytes": len(data) - codec.payload_length(data)}
    _print_report({**report.to_dict(), **extra},
                  _size_lines(report) + [
                      f"container_size       {len(data)} B ({_mib(len(data))})",
                      f"header_and_crc       {extra['header_and_crc_bytes']} B"],
                  args.report)
    return EXIT_OK


def cmd_decompress(args) -> int:
    with open(args.input, "rb") as f:
        q = codec.decode(f.read())
    e = quantizer.reconstruct(q, ReconstructMode(args.mode), args.seed)
    _save_embedding(e, args.output, args.format, args.vocab)
    return EXIT_OK


def cmd_info(args) -> int:
    with open(args.input, "rb") as f:
        data = f.read()
    q = codec.decode(data)
    report = quantizer.size_report(q)
    header = {
        "rows": q.rows,
        "cols": q.cols,
        "groups": q.scheme.groups,
        "clusters": q.clusters,
        "scheme": q.scheme.kind.value,
        "variances": q.codebook_vars is not None,
        "seed": q.seed,
        "f_p": quantizer.FLOAT_BITS,
        "total_clusters": q.total_clusters,
    }
    lines = [f"{k:<21}{v}" for k, v in header.items()] + _size_lines(report)
    _print_report({**header, "size": report.to_dict()}, lines, args.report)
    return EXIT_OK


def cmd_rwe(args) -> int:
    cfg = rwe.RweConfig(args.rows, args.cols, args.seed, args.projection_dim)
    e = rwe.rwe_generate(cfg)
    if args.projection_dim is not None:  # computed before any output is opened
        w = rwe.projection_init(args.cols, args.projection_dim, args.seed)
        proj = w.astype("<f4").tobytes()
    with open(args.output, "wb") as f:
        embio.save_raw(e, f)
    if args.projection_dim is not None:
        with open(args.projection_output or args.output + ".proj", "wb") as f:
            f.write(proj)
    counts = rwe.rwe_param_counts(cfg)
    _print_report(counts,
                  [f"{k:<21}{v}" for k, v in counts.items()],
                  args.report)
    return EXIT_OK


def cmd_compare(args) -> int:
    a = _load_embedding(args.original, args.format, args.rows, args.cols)
    b = _load_embedding(args.reconstructed, args.recon_format or args.format,
                        args.rows, args.cols)
    rep = metrics.fidelity(a, b, args.k)
    _print_report(rep.to_dict(),
                  [f"rmse                 {rep.rmse!r}",
                   f"mean_cosine          {rep.mean_cosine!r}",
                   f"nn_overlap_at_k      {rep.nn_overlap_at_k!r}",
                   f"k                    {rep.k}"],
                  args.report)
    return EXIT_OK


def _sweep_one(e, method, scheme_kind, g, c, seed, restarts, k):
    q = _quantize(e, method, PartitionScheme(scheme_kind, g), c, seed, restarts)
    rep = metrics.fidelity(e, quantizer.reconstruct(q), k)
    return {"groups": g, "clusters": c, **rep.to_dict(),
            "size": quantizer.size_report(q).to_dict()}


def cmd_sweep(args) -> int:
    e = _load_embedding(args.input, args.format, args.rows, args.cols)
    configs = []
    for spec_str in args.config:
        try:
            g_str, c_str = spec_str.split(":")
            configs.append((int(g_str), int(c_str)))
        except ValueError:
            raise DataError(f"bad --config {spec_str!r}, expected G:C") from None
    kind = PartitionKind(args.scheme)
    results = [_sweep_one(e, args.method, kind, g, c, args.seed, args.restarts, args.k)
               for g, c in configs]
    json.dump(results, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits 2."""

    def error(self, message):
        line = " ".join(message.splitlines())
        self.exit(EXIT_USAGE, f"error: usage: {self.prog}: {line}\n")


def _add_embedding_input(p, name="--input"):
    p.add_argument(name, required=True)
    p.add_argument("--format", choices=["w2v", "raw"], default="w2v")
    p.add_argument("--rows", type=int, help="row count for raw input")
    p.add_argument("--cols", type=int, help="column count for raw input")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gpq",
                     description="Embedding compression with (Gaussian) product quantization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="quantize an embedding file into a GPQE container")
    _add_embedding_input(p)
    p.add_argument("--method", choices=["pq", "gpq"], default="gpq")
    p.add_argument("--scheme", choices=["structured", "unified"], default="unified")
    p.add_argument("-g", "--groups", type=int, required=True)
    p.add_argument("-c", "--clusters", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="reconstruct an embedding file from a container")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["mean", "sample"], default="mean")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=["w2v", "raw"], default="raw")
    p.add_argument("--vocab", help="token file for w2v output")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("info", help="print container header and size report")
    p.add_argument("--input", required=True)
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("rwe", help="generate random row-normalized embeddings")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--projection-dim", type=int)
    p.add_argument("--projection-output")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_rwe)

    p = sub.add_parser("compare", help="fidelity metrics between two embedding files")
    p.add_argument("--original", required=True)
    p.add_argument("--reconstructed", required=True)
    p.add_argument("--format", choices=["w2v", "raw"], default="w2v")
    p.add_argument("--recon-format", choices=["w2v", "raw"],
                   help="format of the reconstructed file if it differs")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="compress/evaluate a list of (groups, clusters) configs")
    _add_embedding_input(p)
    p.add_argument("--method", choices=["pq", "gpq"], default="gpq")
    p.add_argument("--scheme", choices=["structured", "unified"], default="unified")
    p.add_argument("--config", action="append", required=True,
                   help="G:C pair; repeatable")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("-k", type=int, default=5)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: data: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
