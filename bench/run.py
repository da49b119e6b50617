"""amlstream benchmark: one workload per run, or all three in turn.

    python3 bench/run.py --workload backfill --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                 # backfill, live and history, seed 1

Each run prints the workload's named metrics with their units, then one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off; with ``--trace 1`` they are the per-layer
metrics of a traced repeat of the timed work. Data dirs live under
``.bench_work/`` in the checkout (on disk, so fsync costs are real) and
are removed when the run ends; results and span files stay in
``.bench_work/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("backfill", "live", "history")

# One thread for numpy's BLAS as well, so that the two cores of the box do
# not contend and the figures repeat; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Gated end-to-end metrics. They must exist on every workload, so each is
# defined for all three; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_s": "s",
    "stream_rps": "records/s",
}

# The workload-specific end-to-end metrics, printed with their units.
NAMED = {
    "backfill": ("setup_s", "ingest_rps", "train_s", "drain_rps", "report_s",
                 "peak_rss_mb", "failed_ratio"),
    "live": ("setup_s", "alert_p50_ms.low", "alert_p99_ms.low", "alert_p50_ms.high",
             "alert_p99_ms.high", "sustained_rps", "peak_rss_mb", "failed_ratio"),
    "history": ("setup_s", "resume_s", "report_s", "peak_rss_mb", "failed_ratio"),
}

PER_LAYER = {
    "models.fit_s.logistic_regression": "s",
    "models.fit_s.decision_tree": "s",
    "models.fit_s.random_forest": "s",
    "models.logistic_iters": "count",
    "models.predict_s": "s",
    "models.predict_calls": "count",
    "models.predict_rows": "rows",
    "models.load_s": "s",
    "models.load_calls": "count",
    "streamproc.drain_self_s": "s",
    "streamproc.decode_s": "s",
    "streamproc.decode_calls": "count",
    "streamproc.rules_s": "s",
    "streamproc.batches": "count",
    "streamproc.batch_records_mean": "records",
    "streamproc.queue_wait_p50_ms": "ms",
    "streamproc.latency_ticks_p95": "ticks",
    "streamproc.alerts_per_record": "ratio",
    "streamproc.dead_letters": "count",
    "streamproc.rules_only_batches": "count",
    "streamproc.resume_alert_diff": "count",
    "eventlog.publish_s": "s",
    "eventlog.publish_calls": "count",
    "eventlog.poll_s": "s",
    "eventlog.poll_calls": "count",
    "eventlog.commit_s": "s",
    "eventlog.commit_calls": "count",
    "eventlog.open_s": "s",
    "eventlog.open_calls": "count",
    "eventlog.partition_max_share": "fraction",
    "eventlog.backlog_max": "records",
    "storage.open_s": "s",
    "storage.open_calls": "count",
    "storage.replayed_rows": "rows",
    "storage.upsert_s": "s",
    "storage.upsert_rows": "rows",
    "storage.query_s": "s",
    "storage.query_calls": "count",
    "txgen.from_dict_s": "s",
    "txgen.from_dict_calls": "count",
    "featstore.encode_s": "s",
    "featstore.encode_rows": "rows",
    "featstore.report_agg_s": "s",
    "lifecycle.registry_s": "s",
    "lifecycle.registry_calls": "count",
    "lifecycle.profile_s": "s",
    "cli.self_s": "s",
    "bench.gen_late_p99_ms": "ms",
    "bench.trace_overhead.work_s": "fraction",
    "bench.trace_overhead.stream_rps": "fraction",
    "bench.failed_ratio": "fraction",
    "bench.spans": "count",
    "input.history_rows": "rows",
    "input.forest_nodes": "count",
    "input.served_is_forest": "flag",
}

UNITS = {
    **END_TO_END,
    "ingest_rps": "records/s",
    "train_s": "s",
    "drain_rps": "records/s",
    "report_s": "s",
    "resume_s": "s",
    "alert_p50_ms.low": "ms",
    "alert_p99_ms.low": "ms",
    "alert_p50_ms.high": "ms",
    "alert_p99_ms.high": "ms",
    "sustained_rps": "records/s",
    "failed_ratio": "fraction",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the open-loop stretches; closed-loop work runs once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="input sizes; small is for the self-test")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".bench_work",
                        help="where data dirs and results go (default .bench_work)")
    return parser.parse_args(argv)


def import_program():
    """Import amlstream from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(src))
    import amlstream

    if Path(amlstream.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"amlstream imported from {amlstream.__file__}, not from {src}")


def environment(run) -> dict:
    import numpy
    from workloads import source_digest

    data = run.workdir.resolve()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "data_dir_fs": filesystem_type(data),
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "size": run.size,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def filesystem_type(path: Path) -> str:
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) >= 3 and str(path).startswith(fields[1]) and len(fields[1]) > len(best):
                    best, fs = fields[1], fields[2]
    except OSError:
        pass
    return fs


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_one(args) -> int:
    import_program()
    import workloads

    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.size, args.workdir)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        run.cleanup()
    rss_mb = run.peak_rss_mb if run.peak_rss_mb is not None else workloads.peak_rss_mb()
    run.metric("peak_rss_mb", rss_mb, "MB")
    failed_ratio = run.failed / max(1, run.attempted)
    run.metric("failed_ratio", failed_ratio, "fraction")
    run.layers["bench.failed_ratio"] = failed_ratio
    correct = run.failed == 0 and all(run.checks.values())

    for name in NAMED[args.workload]:
        value, unit = run.metrics[name]
        print(f"{args.workload:9s} {name:20s} {value:14.4f} {unit}")
    for name in ("work_s", "stream_rps"):
        value, unit = run.metrics[name]
        print(f"{args.workload:9s} {name:20s} {value:14.4f} {unit}  (gated)")
    for name, ok in run.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, value in run.defects.items():
        print(f"known defect {name}: {value}")
    print(f"inputs: {json.dumps(run.inputs, sort_keys=True)}")

    if args.trace:
        layers = {name: run.layers.get(name, 0) for name in PER_LAYER}
        for name, value in layers.items():
            print(f"{args.workload:9s} {name:36s} {value:14.4f} {PER_LAYER[name]}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": run.metrics[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {
        "environment": environment(run),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in run.metrics.items()},
        "layers": run.layers,
        "inputs": run.inputs,
        "checks": run.checks,
        "known_defects": run.defects,
        "samples": run.samples(),
        "probes": [[t - run.t0, seconds] for t, seconds in run.probes],
        "attempted": run.attempted,
        "failed": run.failed,
    }
    run.outdir.mkdir(parents=True, exist_ok=True)
    result_path = run.outdir / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    ok = True
    totals = {"attempted": 0, "failed": 0}
    combined = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--workdir", str(args.workdir)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        ok &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        combined.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": ok, **totals, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
