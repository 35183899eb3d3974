"""Smoke test of the benchmark: one task of every workload, every output
check, no timing.  Not part of the package's test suite; run it with

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path


def test_smoke_runs_every_workload_with_all_checks():
    run = Path(__file__).with_name("run.py")
    out = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True
    assert doc["attempted"] == 4
    assert doc["failed"] == 0
