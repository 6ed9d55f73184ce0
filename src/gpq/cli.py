"""Command-line interface: compress, decompress, info, rwe, compare, sweep.

Exit codes: 0 success, 2 usage error, 3 data error, 4 container format or
CRC error. Errors print a single machine-parsable line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import codec, embio, metrics, quantizer, rng, rwe
from .errors import DataError, FormatError
from .quantizer import PartitionKind, PartitionScheme, ReconstructMode

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_FORMAT = 4


def _load_embedding(path: str, fmt: str, rows: int | None, cols: int | None):
    with open(path, "rb") as f:
        if fmt == "w2v":
            return embio.load_word2vec_text(f)
        if rows is None or cols is None:
            raise DataError("raw format requires --rows and --cols")
        return embio.load_raw(f, rows, cols)


def _save_embedding(e, path: str, fmt: str, vocab_path: str | None):
    """Write reconstruct's output e, which has no vocabulary, in format fmt;
    word2vec text takes its tokens from the file vocab_path."""
    if fmt == "w2v":
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


def _print_report(report, fmt: str):
    """report as JSON, or as one text line per entry, a nested dict's
    entries in its place."""
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        for k, v in value.items() if isinstance(value, dict) else [(key, value)]:
            print(f"{k:<21}{v}")


def _seed(text: str) -> int:
    """argparse type of every --seed: an integer that rng.check_seed takes."""
    try:
        return rng.check_seed(int(text))
    except DataError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _quantize(e, args, g: int, c: int):
    """e compressed by args.method on an args.scheme partition, g groups, c clusters."""
    compress = quantizer.gpq_compress if args.method == "gpq" else quantizer.pq_compress
    return compress(e, PartitionScheme(PartitionKind(args.scheme), g), c, args.seed, args.restarts)


def cmd_compress(args):
    e = _load_embedding(args.input, args.format, args.rows, args.cols)
    q = _quantize(e, args, args.groups, args.clusters)
    data = codec.encode(q)
    with open(args.output, "wb") as f:
        f.write(data)
    _print_report({**dataclasses.asdict(quantizer.size_report(q)), "container_bytes": len(data)},
                  args.report)


def cmd_decompress(args):
    with open(args.input, "rb") as f:
        q = codec.decode(f.read())
    e = quantizer.reconstruct(q, ReconstructMode(args.mode), args.seed)
    _save_embedding(e, args.output, args.format, args.vocab)


def cmd_info(args):
    with open(args.input, "rb") as f:
        q = codec.decode(f.read())
    report = {
        "rows": q.rows,
        "cols": q.cols,
        "groups": q.scheme.groups,
        "clusters": q.clusters,
        "scheme": q.scheme.kind.value,
        "variances": q.codebook_vars is not None,
        "seed": q.seed,
        "f_p": quantizer.FLOAT_BITS,
        "total_clusters": q.clusters * q.scheme.blocks,
        "size": dataclasses.asdict(quantizer.size_report(q)),
    }
    _print_report(report, args.report)


def cmd_rwe(args):
    if args.projection_output is not None and args.projection_dim is None:
        args.usage_error("argument --projection-output: requires --projection-dim")
    cfg = rwe.RweConfig(args.rows, args.cols, args.seed)
    if args.projection_dim is not None:  # checked and computed before any other work
        w = rwe.projection_init(args.cols, args.projection_dim, args.seed)
        proj = w.astype("<f4").tobytes()
    e = rwe.rwe_generate(cfg)
    with open(args.output, "wb") as f:
        embio.save_raw(e, f)
    if args.projection_dim is not None:
        with open(args.projection_output or args.output + ".proj", "wb") as f:
            f.write(proj)
    _print_report(rwe.rwe_param_counts(cfg, args.projection_dim), args.report)


def cmd_compare(args):
    a = _load_embedding(args.original, args.format, args.rows, args.cols)
    b = _load_embedding(args.reconstructed, args.recon_format or args.format,
                        args.rows, args.cols)
    _print_report(dataclasses.asdict(metrics.fidelity(a, b, args.k)), args.report)


def _sweep_one(e, args, g: int, c: int, against):
    q = _quantize(e, args, g, c)
    rep = against(quantizer.reconstruct(q))
    return {"groups": g, "clusters": c, **dataclasses.asdict(rep),
            "size": dataclasses.asdict(quantizer.size_report(q))}


def cmd_sweep(args):
    e = _load_embedding(args.input, args.format, args.rows, args.cols)
    configs = []
    for spec_str in args.config:
        try:
            g_str, c_str = spec_str.split(":")
            configs.append((int(g_str), int(c_str)))
        except ValueError:
            raise DataError(f"bad --config {spec_str!r}, expected G:C") from None
    against = metrics.fidelity_against(e, args.k)
    _print_report([_sweep_one(e, args, g, c, against) for g, c in configs], "json")


class _Parser(argparse.ArgumentParser):
    """Takes options only by their full names, and reports a usage error as
    one line on stderr and exits 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        line = " ".join(message.splitlines())
        self.exit(EXIT_USAGE, f"error: usage: {self.prog}: {line}\n")


def _add_embedding_input(p, name="--input"):
    p.add_argument(name, required=True)
    p.add_argument("--format", choices=["w2v", "raw"], default="w2v")
    p.add_argument("--rows", type=int, help="row count for raw input")
    p.add_argument("--cols", type=int, help="column count for raw input")


def build_parser() -> argparse.ArgumentParser:
    # options that mean the same in every command that takes them
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=0)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", choices=["text", "json"], default="text")
    quantize = argparse.ArgumentParser(add_help=False, parents=[seed])
    quantize.add_argument("--method", choices=["pq", "gpq"], default="gpq")
    quantize.add_argument("--scheme", choices=["structured", "unified"], default="unified")
    quantize.add_argument("--restarts", type=int, default=1)

    parser = _Parser(prog="gpq",
                     description="Embedding compression with (Gaussian) product quantization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", parents=[quantize, report],
                       help="quantize an embedding file into a GPQE container")
    _add_embedding_input(p)
    p.add_argument("-g", "--groups", type=int, required=True)
    p.add_argument("-c", "--clusters", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", parents=[seed],
                       help="reconstruct an embedding file from a container")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["mean", "sample"], default="mean")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=["w2v", "raw"], default="raw")
    p.add_argument("--vocab", help="token file for w2v output")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("info", parents=[report], help="print container header and size report")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("rwe", parents=[seed, report],
                       help="generate random row-normalized embeddings")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--projection-dim", type=int)
    p.add_argument("--projection-output")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_rwe, usage_error=p.error)

    p = sub.add_parser("compare", parents=[report],
                       help="fidelity metrics between two embedding files")
    _add_embedding_input(p, "--original")
    p.add_argument("--reconstructed", required=True)
    p.add_argument("--recon-format", choices=["w2v", "raw"],
                   help="format of the reconstructed file if it differs")
    p.add_argument("-k", type=int, default=10)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", parents=[quantize],
                       help="compress/evaluate a list of (groups, clusters) configs")
    _add_embedding_input(p)
    p.add_argument("--config", action="append", required=True,
                   help="G:C pair; repeatable")
    p.add_argument("-k", type=int, default=5)
    p.set_defaults(func=cmd_sweep)

    return parser


# one parser per process, built on the first main() call, not at import:
# in-process callers (tests, benchmarks) call main() many times
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
        return EXIT_OK
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
