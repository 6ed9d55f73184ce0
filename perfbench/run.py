"""gpq benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload unified-d1 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Inputs come from ``--seed``; each pass of the pipeline drives the program
in-process through ``gpq.cli.main(argv)``, checks every output, and the last
stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones from perfbench/spans.py. See
perfbench/README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()   # origin of span times

import os  # noqa: E402
import sys  # noqa: E402

# Compile the program on every run instead of caching bytecode in the
# checkout, so set-up costs the same on the first run and the later ones.
sys.dont_write_bytecode = True

# Only BLAS threads run, one of them unless set otherwise; set before numpy
# loads. A second thread makes every BLAS call wait for the slower core,
# which on a shared host times the neighbours more than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

try:
    import numpy as np
    import gpq
    from gpq import cli as gpq_cli, codec as gpq_codec, rwe as gpq_rwe
    from gpq.quantizer import PartitionKind, size_report
except ImportError as exc:
    sys.exit(f"error: cannot import the program from {ROOT / 'src'}: {exc}")
if Path(gpq.__file__).resolve().parent != ROOT / "src" / "gpq":
    sys.exit(f"error: gpq imported from {gpq.__file__}, not from {ROOT / 'src'}")

from spans import PER_LAYER_UNITS, Tracer, layer_metrics  # noqa: E402

CONTAINER_OVERHEAD = gpq_codec.HEADER_SIZE + 4   # header plus CRC-32
SETUP_REPS = 6
K = 10

# Each workload: one RWE input; each cycle runs its ops in
# order, an op `repeat` times (default once) so short ops get enough
# samples within a run, and an op with `every` n only on every n-th cycle,
# so a long op that feeds no other does not crowd out the rest.
WORKLOADS = {
    # The paper's reference shape (d=1, c=50) at m=128k stacked points;
    # k-means dominates and its O(m*c) assignment sets peak RSS.
    "unified-d1": dict(rows=2000, cols=64, fmt="raw", method="gpq",
                       scheme="unified", groups=64, clusters=50,
                       repeat={"decompress": 60}),
    # d=16 bypasses any 1-D fast path; 8 independent k-means jobs at c=256,
    # and a V=4000 word2vec compare that stresses top-k.
    "structured-d16": dict(rows=4000, cols=128, fmt="w2v", method="pq",
                           scheme="structured", groups=8, clusters=256,
                           repeat={"decompress": 60}, every={"compare": 2}),
}

END_TO_END = {"setup_s": "s", "compress_s": "s", "decompress_s": "s",
              "compare_s": "s", "peak_rss_mib": "MiB", "recon_rmse": "1",
              "nn_overlap": "1"}

# Wrappers that must record calls on each workload's traced run.
_CLI_CALLS = {"kmeans.best_of", "kmeans.kmeans", "quantizer.partition",
              "quantizer.reconstruct", "codec.encode", "codec.decode", "codec.pack",
              "codec.unpack", "embio.save_raw", "metrics.fidelity", "rwe.generate"}
EXPECTED_CALLS = {
    "unified-d1": _CLI_CALLS | {"quantizer.gpq_compress", "embio.load_raw"},
    "structured-d16": _CLI_CALLS | {"quantizer.pq_compress", "embio.load_word2vec_text",
                                    "embio.load_raw"},
}


# Times a fresh interpreter importing the program, the part of set-up that
# cannot be repeated inside one process. numpy is loaded first and not
# timed: it is not the program's, and its load time swings by half between
# otherwise equal runs on a shared host.
_IMPORT_PROBE = ("import sys, time; sys.dont_write_bytecode = True; "
                 "sys.path.insert(0, sys.argv[1]); import numpy; t = time.perf_counter(); "
                 "import gpq.cli; print(time.perf_counter() - t)")


def import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


class CheckFailed(Exception):
    """An op exited nonzero or its output failed a check."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = gpq_cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    if rc != 0:
        raise CheckFailed(f"gpq {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def mean_lookup(q) -> np.ndarray:
    """codebook[index] for every (row, group), in the container's layout."""
    g = q.scheme.groups
    if q.scheme.kind is PartitionKind.STRUCTURED:
        sub_vectors = q.codebook_means[np.arange(g), q.index_matrix]
    else:
        sub_vectors = q.codebook_means[0][q.index_matrix]
    return sub_vectors.reshape(q.rows, q.cols)


def same_as_first(seen: dict, key: str, value) -> None:
    if seen.setdefault(key, value) != value:
        raise CheckFailed(f"{key} differs between repetitions")


# -- workloads ---------------------------------------------------------------

class Workload:
    """compress -> decompress --mode mean -> compare, through gpq.cli.main."""

    def __init__(self, spec: dict, work: Path):
        self.spec = spec
        self.input = work / f"input.{spec['fmt']}"
        self.container = work / "out.gpqe"
        self.recon = work / "recon.raw"
        self.seen: dict = {}

    def setup(self, seed: int) -> None:
        s = self.spec
        e = gpq_rwe.rwe_generate(gpq_rwe.RweConfig(s["rows"], s["cols"], seed))
        self.original = e.values
        with open(self.input, "wb") as f:
            if s["fmt"] == "w2v":
                # %.9g round-trips binary32; one format per row keeps set-up
                # short next to the program's per-value formatter.
                row = " ".join(["%.9g"] * s["cols"])
                f.write(f"{s['rows']} {s['cols']}\n".encode())
                for i, v in enumerate(e.values):
                    f.write(f"w{i} {row % tuple(v.tolist())}\n".encode())
            else:
                f.write(e.values.astype("<f4").tobytes())

    def _shape_args(self) -> list[str]:
        return ["--rows", str(self.spec["rows"]), "--cols", str(self.spec["cols"])]

    def compress(self) -> None:
        s = self.spec
        fmt = ["--format", "raw", *self._shape_args()] if s["fmt"] == "raw" else []
        run_cli(["compress", "--input", str(self.input), *fmt, "--method", s["method"],
                 "--scheme", s["scheme"], "-g", str(s["groups"]), "-c", str(s["clusters"]),
                 "-o", str(self.container), "--report", "json"])

    def check_compress(self) -> None:
        data = self.container.read_bytes()
        try:
            self.q = gpq_codec.decode(data)
        except gpq.FormatError as exc:
            raise CheckFailed(f"container does not decode: {exc}") from None
        s = self.spec
        if (self.q.rows, self.q.cols, self.q.scheme.groups, self.q.clusters) != \
                (s["rows"], s["cols"], s["groups"], s["clusters"]):
            raise CheckFailed("container shape differs from the flags")
        if len(data) != size_report(self.q).storable_bytes + CONTAINER_OVERHEAD:
            raise CheckFailed(f"container length {len(data)} != storable bytes + 39")
        if gpq_codec.encode(self.q) != data:
            raise CheckFailed("encode(decode(container)) != container")
        same_as_first(self.seen, "container_sha256", sha256(data))

    def decompress(self) -> None:
        run_cli(["decompress", "--input", str(self.container), "--mode", "mean",
                 "-o", str(self.recon)])

    def check_decompress(self) -> None:
        out = self.recon.read_bytes()
        self.expected = mean_lookup(self.q)
        if out != self.expected.astype("<f4").tobytes():
            raise CheckFailed("mean-mode output differs from codebook[index]")
        same_as_first(self.seen, "output_sha256", sha256(out))

    def compare(self) -> None:
        self.report = run_cli(
            ["compare", "--original", str(self.input), "--format", self.spec["fmt"],
             "--reconstructed", str(self.recon), "--recon-format", "raw",
             *self._shape_args(), "-k", str(K), "--report", "json"])

    def check_compare(self) -> dict:
        rep = json.loads(self.report)
        diff = self.original.astype(np.float64) - self.expected.astype(np.float64)
        rmse = float(np.sqrt(np.mean(diff ** 2)))
        if not abs(rep["rmse"] - rmse) <= 1e-9 * rmse:
            raise CheckFailed(f"compare rmse {rep['rmse']} != {rmse}")
        if rep["k"] != K or not 0.0 <= rep["nn_overlap_at_k"] <= 1.0:
            raise CheckFailed("compare nn_overlap_at_k out of range")
        quality = {"recon_rmse": rep["rmse"], "nn_overlap": rep["nn_overlap_at_k"]}
        same_as_first(self.seen, "quality", quality)
        return quality

    def ops(self):
        return [("compress", self.compress, self.check_compress, "cli.compress"),
                ("decompress", self.decompress, self.check_decompress, "cli.decompress"),
                ("compare", self.compare, self.check_compare, "cli.compare")]


# -- environment -------------------------------------------------------------

def _blas_threads() -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "git_commit": _git_commit()}


# -- the run -----------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool,
        spec: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    spec = spec or WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    tracer = Tracer(T0)
    if trace:
        tracer.install()
    try:
        wl = Workload(spec, work)
        return _drive(name, wl, spec, seed, seconds, trace, tracer)
    finally:
        tracer.uninstall()
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        shutil.rmtree(work, ignore_errors=True)


UNTRACED, SPANS, MEMORY = "untraced", "spans", "spans+tracemalloc"


def _drive(name, wl, spec, seed, seconds, trace, tracer):
    # Set-up runs SETUP_REPS times spread over the run (once first, then
    # after the first cycle past each 1/SETUP_REPS of --seconds), so its
    # median does not hang on the moment the run started. It is timed
    # untraced on an untraced run, and under spans on a traced one, where
    # it gives rwe.generate_s.
    imports, setup_times, setup_spans = [], [], []

    def set_up() -> None:
        if not trace:
            imports.append(import_seconds())
        first = len(tracer.spans)
        tracer.active, tracer.group = trace, ("setup", len(setup_times))
        t = time.perf_counter()
        tracer.run("bench.setup", wl.setup, seed)
        setup_times.append(time.perf_counter() - t)
        tracer.active = False
        setup_spans.extend(tracer.spans[first:])

    set_up()

    # A traced run rotates span+tracemalloc, untraced and span-only passes:
    # layer times come from span-only passes, peaks from tracemalloc ones,
    # and the span-only minus untraced difference is the tracing overhead.
    # The tracemalloc pass goes first so the cold first pass is not timed.
    phases = [MEMORY, UNTRACED, SPANS] if trace else [UNTRACED]
    times: dict = {p: {kind: [] for kind, *_ in wl.ops()} for p in phases}
    spans_of: dict = {p: [] for p in phases}
    attempted = failed = 0
    errors: list[str] = []
    quality: dict = {}
    cycle_walls: list[float] = []
    start = time.perf_counter()
    cycle = 0
    while cycle < len(phases) or (time.perf_counter() - start
                                  + statistics.median(cycle_walls) <= seconds):
        phase = phases[cycle % len(phases)]
        if phase == MEMORY:
            tracemalloc.start()
        first_span = len(tracer.spans)
        wall = time.perf_counter()
        schedule = [op for op in wl.ops()
                    if cycle % spec.get("every", {}).get(op[0], 1) == 0
                    for _ in range(spec.get("repeat", {}).get(op[0], 1))]
        cycle_failed = False
        for i, (kind, fn, check, span) in enumerate(schedule):
            attempted += 1
            if cycle_failed:     # an op it depends on failed
                failed += 1
                continue
            tracer.active, tracer.group = phase != UNTRACED, (kind, f"{cycle}.{i}")
            try:
                t = time.perf_counter()
                tracer.run(span, fn)
                dt = time.perf_counter() - t
                tracer.active = False
                quality = check() or quality
            except Exception as exc:     # any escape from the program is a failed op
                tracer.active = False
                failed += 1
                cycle_failed = True
                errors.append(f"cycle {cycle}: {kind}: {type(exc).__name__}: {exc}")
                continue
            times[phase][kind].append(dt)
        if phase == MEMORY:
            tracemalloc.stop()
        spans_of[phase] += tracer.spans[first_span:]
        cycle_walls.append(time.perf_counter() - wall)
        cycle += 1
        if (len(setup_times) < SETUP_REPS
                and time.perf_counter() - start >= len(setup_times) * seconds / SETUP_REPS):
            set_up()

    def med(v):
        return statistics.median(v) if v else 0.0

    # End-to-end timings are each op's fastest repetition: on a shared host
    # the same op slows by up to 40% for tens of seconds at a time, and
    # contention only adds time. Medians are in the details line.
    def fastest(v):
        return min(v) if v else 0.0

    # One pass of the pipeline: the median of each op kind, summed.
    pipeline = {p: sum(med(v) for v in t.values()) for p, t in times.items()}
    details = {"workload": name, "seed": seed, "trace": int(trace),
               "environment": environment(), "cycles": cycle,
               "samples_s": times[UNTRACED],
               "median_s": {k: med(v) for k, v in times[UNTRACED].items()},
               "import_s": imports,
               "setup_reps_s": setup_times, "error_rate": failed / attempted,
               "errors": errors[:10],
               **{k: v for k, v in wl.seen.items() if k != "quality"}}
    if trace:
        calls = tracer.calls()
        missing = sorted(n for n in EXPECTED_CALLS[name] if not calls.get(n))
        if missing:
            raise SystemExit(f"error: traced run of {name} recorded no calls to "
                             f"{', '.join(missing)}; a wrapper is bound where no "
                             "caller looks it up")
        values = layer_metrics(setup_spans + spans_of[SPANS], spans_of[MEMORY])
        values["trace.overhead_s"] = pipeline[SPANS] - pipeline[UNTRACED]
        details["pipeline_s_by_phase"] = pipeline
        trace_file = WORK / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps({"details": details, "spans": tracer.spans}))
        details["trace_file"] = str(trace_file.relative_to(ROOT))
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        values = {"setup_s": statistics.median(imports) + statistics.median(setup_times),
                  **{f"{kind}_s": fastest(v) for kind, v in times[UNTRACED].items()},
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "recon_rmse": quality.get("recon_rmse", 0.0),
                  "nn_overlap": quality.get("nn_overlap", 0.0)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
