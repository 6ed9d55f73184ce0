import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest():
    # the traced run wraps gpq module attributes; a refactor that stops
    # calling one of them through its module fails here
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.stdout.rstrip().endswith("\n0 failed"), proc.stdout + proc.stderr
    assert proc.returncode == 0
