"""Smoke run of the benchmark at small sizes.

The benchmark under bench/ drives the program through its public names;
running each workload once here catches a rename or deletion in src/
that would break it. bench/test_bench.py holds the benchmark's own,
longer self-test.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["backfill", "live", "history"])
def test_benchmark_workload_runs_correctly(workload, tmp_path):
    cmd = [
        sys.executable, str(ROOT / "bench" / "run.py"),
        "--workload", workload, "--seed", "5", "--seconds", "2", "--trace", "0",
        "--size", "small", "--workdir", str(tmp_path),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
