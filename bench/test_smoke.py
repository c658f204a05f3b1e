"""Smoke test of the benchmark itself: every workload at a tiny size,
untraced and traced, reports every metric of BENCHMARK.json with its unit
and fails no operation.

    python3 -m pytest -q bench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
