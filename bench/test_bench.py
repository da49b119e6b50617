"""Self-test of the benchmark at small sizes.

    python3 -m pytest bench/test_bench.py -q

Runs backfill, live and history at a few thousand rows, with tracing off
and on, and checks that every metric is emitted with its unit and that
every correctness check passes. It also checks that the benchmark fails
cleanly where the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workdir, workload, trace=0, seed=5, root=ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
           "--size", "small", "--workdir", str(workdir)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "FAILED" not in proc.stdout
    return result, lines[:-1]


def test_benchmark_json_matches_the_metric_tables():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench_run.PER_LAYER


@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_workload_emits_every_metric_and_passes_its_checks(tmp_path, workload):
    result, lines = result_of(invoke(tmp_path, workload, trace=0))
    assert set(result["metrics"]) == set(bench_run.END_TO_END)
    for name, unit in bench_run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    for name in bench_run.NAMED[workload]:
        unit = bench_run.UNITS[name]
        assert any(line.split()[1:2] == [name] and line.endswith(unit) for line in lines), name
    assert any(line.startswith("environment: ") for line in lines)

    traced, lines = result_of(invoke(tmp_path, workload, trace=1))
    assert set(traced["metrics"]) == set(bench_run.PER_LAYER)
    for name, unit in bench_run.PER_LAYER.items():
        assert traced["metrics"][name]["unit"] == unit
    assert traced["metrics"]["bench.spans"]["value"] > 0
    assert traced["metrics"]["models.predict_calls"]["value"] > 0


def test_history_reports_the_resume_defect(tmp_path):
    _, lines = result_of(invoke(tmp_path, "history"))
    assert any(line.startswith("known defect resume_alert_diff") for line in lines)


def test_backfill_bundle_repeats_across_runs(tmp_path):
    result_of(invoke(tmp_path, "backfill", seed=9))
    assert list((tmp_path / "out" / "bundles").glob("backfill-*-s9-*.json"))
    _, lines = result_of(invoke(tmp_path, "backfill", seed=9))
    assert "check backfill.report_bundle_repeats: ok" in lines


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = invoke(tmp_path / "work", "backfill", root=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
