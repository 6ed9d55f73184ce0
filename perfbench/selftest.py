"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that a clean run of every workload emits exactly the metrics
BENCHMARK.json names, that a flipped container byte and a perturbed
reconstruction are each counted as failed ops, and that the traced run
fails loudly when a wrapper is bound where no caller looks it up.
"""

from __future__ import annotations

import json
import sys
from unittest import mock

import run
import spans
from gpq import codec, quantizer
from gpq.embio import EmbeddingMatrix

TINY = {
    "unified-d1": dict(run.WORKLOADS["unified-d1"], rows=60, cols=8, groups=8,
                       clusters=4, repeat={"decompress": 2}),
    "structured-d16": dict(run.WORKLOADS["structured-d16"], rows=80, cols=32, groups=2,
                           clusters=8, repeat={"decompress": 2}),
}
SEED = 7
SECONDS = 0.1


def _tiny(name: str, trace: bool) -> dict:
    result, _ = run.run(name, SEED, SECONDS, trace, spec=TINY[name])
    return result


def _flip_byte(data: bytes) -> bytes:
    out = bytearray(data)
    out[len(out) // 2] ^= 0x01
    return bytes(out)


def _perturb(e: EmbeddingMatrix) -> EmbeddingMatrix:
    values = e.values.copy()
    values[0, 0] += 1e-3
    return EmbeddingMatrix(values, e.vocab)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json names the workloads run.py runs")
    for name in TINY:
        for trace in (False, True):
            r = _tiny(name, trace)
            emitted = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                   f"{name} trace={int(trace)}: clean run has no failed op")
            expect(emitted == declared[trace],
                   f"{name} trace={int(trace)}: emits every declared metric with its unit")

    encode = codec.encode
    reconstruct = quantizer.reconstruct
    for name in TINY:
        with mock.patch.object(codec, "encode", lambda q: _flip_byte(encode(q))):
            r = _tiny(name, False)
        expect(not r["correct"] and r["failed"] > 0,
               f"{name}: a flipped container byte counts as a failed op")
        with mock.patch.object(quantizer, "reconstruct",
                               lambda *a, **k: _perturb(reconstruct(*a, **k))):
            r = _tiny(name, False)
        expect(not r["correct"] and r["failed"] > 0,
               f"{name}: a perturbed reconstruction counts as a failed op")

    # kmeans_best_of bound on gpq.kmeans, which quantizer does not look up.
    misbound = [("gpq.kmeans", *b[1:]) if b[:2] == ("gpq.quantizer", "kmeans_best_of")
                else b for b in spans.BINDINGS]
    with mock.patch.object(spans, "BINDINGS", misbound):
        try:
            _tiny("unified-d1", True)
            loud = False
        except SystemExit as exc:
            loud = "kmeans.best_of" in str(exc)
    expect(loud, "a wrapper bound where no caller looks it up fails the traced run")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
