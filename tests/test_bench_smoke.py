"""Smoke run of the benchmark at small sizes.

The benchmark under bench/ drives the program through its public names;
running each workload once here catches a rename or deletion in src/
that would break it. One traced backfill run does the same for what the
tracer's probes read (``TableStore._tables``, ``BatchResult``'s fields,
the results of the wrapped calls). bench/test_bench.py holds the benchmark's own,
longer self-test.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_bench(workload, trace, workdir):
    cmd = [
        sys.executable, str(ROOT / "bench" / "run.py"),
        "--workload", workload, "--seed", "5", "--seconds", "2", "--trace", str(trace),
        "--size", "small", "--workdir", str(workdir),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["backfill", "live", "history"])
def test_benchmark_workload_runs_correctly(workload, tmp_path):
    run_bench(workload, 0, tmp_path)


def test_traced_backfill_probes_read_the_program(tmp_path):
    metrics = run_bench("backfill", 1, tmp_path)["metrics"]
    for name in (
        "models.logistic_iters",
        "models.predict_rows",
        "storage.upsert_rows",
        "storage.replayed_rows",
        "streamproc.batches",
    ):
        assert metrics[name]["value"] > 0, name
    # `report` computes its correlation from category codes, so no command
    # one-hot encodes a row through featstore.encode_matrix
    assert metrics["featstore.encode_rows"]["value"] == 0
    # only `ingest` writes through TableStore.upsert_rows: the stream
    # appends its alerts to the alerts table's journal itself
    assert metrics["storage.upsert_rows"]["value"] == 3000
