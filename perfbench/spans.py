"""Out-of-program tracing for the benchmark's traced run.

Timing wrappers are set on the module attribute each caller looks up
(``gpq.quantizer.kmeans_best_of``, not ``gpq.kmeans.kmeans_best_of``), so
the program's own call paths go through them without any change under
``src/``. Each wrapped call records a span: name, start, end, parent span,
peak ``tracemalloc`` bytes above the level at entry, and counts taken from
its arguments and result. Spans stay in memory and are written out at the
end of the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict

MIB = 2**20


def _kmeans_counts(result, points, c, seed, max_iter=None, rel_tol=None):
    kmeans_mod = importlib.import_module("gpq.kmeans")
    limit = kmeans_mod.DEFAULT_MAX_ITER if max_iter is None else max_iter
    m, d = points.shape
    return {"iterations": result.iterations,
            "max_iter_hits": int(result.iterations >= limit),
            "dist_terms": m * c * d * result.iterations}


# (module, attribute, span name, counts(result, *args, **kwargs) -> dict)
BINDINGS = [
    ("gpq.quantizer", "kmeans_best_of", "kmeans.best_of",
     lambda r, *a, **k: {"objective": r.objective}),
    ("gpq.kmeans", "kmeans", "kmeans.kmeans", _kmeans_counts),
    ("gpq.quantizer", "partition", "quantizer.partition", None),
    ("gpq.quantizer", "gpq_compress", "quantizer.gpq_compress", None),
    ("gpq.quantizer", "pq_compress", "quantizer.pq_compress", None),
    ("gpq.quantizer", "reconstruct", "quantizer.reconstruct", None),
    ("gpq.codec", "encode", "codec.encode", None),
    ("gpq.codec", "decode", "codec.decode", None),
    ("gpq.codec", "pack_indices", "codec.pack",
     lambda r, *a, **k: {"bytes": len(r)}),
    ("gpq.codec", "unpack_indices", "codec.unpack", None),
    ("gpq.embio", "load_word2vec_text", "embio.load_word2vec_text",
     lambda r, source, *a, **k: {"bytes": source.tell()}),
    ("gpq.embio", "load_raw", "embio.load_raw",
     lambda r, source, *a, **k: {"bytes": source.tell()}),
    ("gpq.embio", "save_raw", "embio.save_raw",
     lambda r, e, dest, *a, **k: {"bytes": dest.tell()}),
    ("gpq.metrics", "fidelity", "metrics.fidelity",
     lambda r, e, *a, **k: {"pairs": e.rows * e.rows}),
    ("gpq.rwe", "rwe_generate", "rwe.generate", None),
]


class Tracer:
    """Records spans while ``active``; the wrappers call straight through
    when it is not, so untraced repetitions can share the process."""

    def __init__(self, clock_origin: float):
        self.origin = clock_origin
        self.active = False
        self.group = None          # (op kind, op index) the spans belong to
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patched = []

    # -- spans ------------------------------------------------------------
    def _enter(self, name: str) -> dict:
        mem = 0
        if tracemalloc.is_tracing():
            mem, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "group": self.group, "counts": {}, "_mem0": mem, "_peak": mem,
                "start": time.perf_counter() - self.origin}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.origin
        self._stack.pop()
        if tracemalloc.is_tracing():
            span["_peak"] = max(span["_peak"], tracemalloc.get_traced_memory()[1])
            if self._stack:
                parent = self._stack[-1]
                parent["_peak"] = max(parent["_peak"], span["_peak"])
            tracemalloc.reset_peak()
        span["peak_bytes"] = span.pop("_peak") - span.pop("_mem0")

    def run(self, name: str, fn, *args):
        """Call fn inside a span when active (used for the benchmark's ops)."""
        return self._wrap(fn, name, None)(*args)

    # -- wrappers ---------------------------------------------------------
    def install(self) -> None:
        for module, attr, name, counts in BINDINGS:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr)
            setattr(mod, attr, self._wrap(orig, name, counts))
            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, orig, name, counts):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            span = self._enter(name)
            try:
                result = orig(*args, **kwargs)
                if counts is not None:
                    span["counts"].update(counts(result, *args, **kwargs))
                return result
            finally:
                self._exit(span)
        return wrapper

    def calls(self) -> Counter:
        return Counter(s["name"] for s in self.spans)


# -- per-layer metrics ------------------------------------------------------

def _group_stats(spans: list[dict]) -> dict:
    """Per-name duration, self time, peak and summed counts of one group."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    stats: dict = defaultdict(lambda: {"n": 0, "s": 0.0, "self_s": 0.0,
                                       "peak": 0, "counts": defaultdict(int)})
    for s in spans:
        st = stats[s["name"]]
        dur = s["end"] - s["start"]
        st["n"] += 1
        st["s"] += dur
        st["self_s"] += dur - child_time[s["id"]]
        st["peak"] = max(st["peak"], s["peak_bytes"])
        for k, v in s["counts"].items():
            st["counts"][k] += v
    return stats


def _layer_values(stats) -> dict[str, float]:
    """Per-layer metrics of one group of spans (one op or one set-up)."""
    def get(name, field="s"):
        return stats[name][field] if name in stats else 0

    def count(name, key):
        return stats[name]["counts"].get(key, 0) if name in stats else 0

    return {
        "kmeans.calls": get("kmeans.kmeans", "n"),
        "kmeans.s": get("kmeans.kmeans"),
        "kmeans.iterations": count("kmeans.kmeans", "iterations"),
        "kmeans.max_iter_hits": count("kmeans.kmeans", "max_iter_hits"),
        "kmeans.objective": count("kmeans.best_of", "objective"),
        "kmeans.dist_terms": count("kmeans.kmeans", "dist_terms"),
        "kmeans.peak_mib": get("kmeans.kmeans", "peak") / MIB,
        "kmeans.best_of.self_s": get("kmeans.best_of", "self_s"),
        "quantizer.partition_s": get("quantizer.partition"),
        "quantizer.compress.self_s": (get("quantizer.gpq_compress", "self_s")
                                      + get("quantizer.pq_compress", "self_s")),
        "quantizer.reconstruct_s": get("quantizer.reconstruct"),
        "quantizer.reconstruct.peak_mib": get("quantizer.reconstruct", "peak") / MIB,
        "codec.pack_s": get("codec.pack"),
        "codec.unpack_s": get("codec.unpack"),
        "codec.pack.peak_mib": get("codec.pack", "peak") / MIB,
        "codec.unpack.peak_mib": get("codec.unpack", "peak") / MIB,
        "codec.encode.self_s": get("codec.encode", "self_s"),
        "codec.decode.self_s": get("codec.decode", "self_s"),
        "codec.index_bytes": count("codec.pack", "bytes"),
        "metrics.fidelity_s": get("metrics.fidelity"),
        "metrics.fidelity.peak_mib": get("metrics.fidelity", "peak") / MIB,
        "metrics.fidelity.pairs": count("metrics.fidelity", "pairs"),
        "embio.load_s": get("embio.load_word2vec_text") + get("embio.load_raw"),
        "embio.load_bytes": (count("embio.load_word2vec_text", "bytes")
                             + count("embio.load_raw", "bytes")),
        "embio.save_s": get("embio.save_raw"),
        "embio.save_bytes": count("embio.save_raw", "bytes"),
        "rwe.generate_s": get("rwe.generate"),
        "cli.compress.self_s": get("cli.compress", "self_s"),
        "cli.decompress.self_s": get("cli.decompress", "self_s"),
        "cli.compare.self_s": get("cli.compare", "self_s"),
    }


PER_LAYER_UNITS = {
    "kmeans.calls": "count", "kmeans.s": "s", "kmeans.iterations": "count",
    "kmeans.max_iter_hits": "count", "kmeans.s_per_iter": "s", "kmeans.peak_mib": "MiB",
    "kmeans.objective": "1", "kmeans.dist_terms_per_s": "1/s",
    "kmeans.best_of.self_s": "s",
    "quantizer.partition_s": "s", "quantizer.compress.self_s": "s",
    "quantizer.reconstruct_s": "s", "quantizer.reconstruct.peak_mib": "MiB",
    "codec.pack_s": "s", "codec.unpack_s": "s", "codec.pack.peak_mib": "MiB",
    "codec.unpack.peak_mib": "MiB", "codec.encode.self_s": "s",
    "codec.decode.self_s": "s", "codec.index_bytes": "B",
    "metrics.fidelity_s": "s", "metrics.fidelity.peak_mib": "MiB",
    "metrics.fidelity.pairs": "count",
    "embio.load_s": "s", "embio.load_bytes": "B", "embio.save_s": "s",
    "embio.save_bytes": "B",
    "rwe.generate_s": "s",
    "cli.compress.self_s": "s", "cli.decompress.self_s": "s", "cli.compare.self_s": "s",
    "trace.overhead_s": "s",
}

def _per_pass(spans: list[dict]) -> dict[str, float]:
    """Spans are grouped by op (set-up repetition, compress, decompress,
    compare).
    Each metric is the median over the ops of one kind, then summed over
    kinds (maxed for peaks), so a pass counts each op kind once however many
    repetitions ran."""
    groups: dict = defaultdict(list)
    for s in spans:
        groups[s["group"]].append(s)
    by_kind: dict = defaultdict(list)
    for (kind, _), members in groups.items():
        by_kind[kind].append(_layer_values(_group_stats(members)))
    out: dict[str, float] = defaultdict(float)
    for rows in by_kind.values():
        for name in rows[0]:
            med = statistics.median(r[name] for r in rows)
            out[name] = max(out[name], med) if name.endswith("peak_mib") else out[name] + med
    return out


def layer_metrics(timed: list[dict], memory: list[dict]) -> dict[str, float]:
    """Per-layer metrics for one pass of the workload's pipeline: times and
    counts from span-only passes, peaks from passes under tracemalloc."""
    out = _per_pass(timed)
    peaks = _per_pass(memory)
    for name in out:
        if name.endswith("peak_mib"):
            out[name] = peaks[name]
    dist_terms = out.pop("kmeans.dist_terms")
    out["kmeans.s_per_iter"] = (out["kmeans.s"] / out["kmeans.iterations"]
                                if out["kmeans.iterations"] else 0.0)
    out["kmeans.dist_terms_per_s"] = dist_terms / out["kmeans.s"] if out["kmeans.s"] else 0.0
    return dict(out)
