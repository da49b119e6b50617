"""The three benchmark workloads: backfill, live and history.

Each workload builds its inputs from the seed it is given, times its work
with tracing off, and checks the program's outputs. A traced run repeats
the timed work with the tracer installed and derives per-layer metrics.
The benchmark drives only public entry points: ``cli.main``,
``EventLog``, ``StreamProcessor``, ``ModelRegistry`` (with the
``BlobStore`` it needs) and the ``models``/``featstore`` functions.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import time
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

from amlstream import cli, featstore, lifecycle, models, storage, streamproc, txgen
from amlstream.config import PipelineConfig
from amlstream.eventlog import EventLog

from tracer import Tracer, nearest_rank

# Input sizes. "full" is what the benchmark measures; "small" is the
# self-test's size, which exercises every path in a few seconds.
SIZES = {
    "full": {
        "backfill_rows": 20_000,
        "live_baseline_rows": 20_000,
        "history_rows": 50_000,
        "history_model_rows": 10_000,
        "feed_rows": 5_000,
    },
    "small": {
        "backfill_rows": 3_000,
        "live_baseline_rows": 3_000,
        "history_rows": 6_000,
        "history_model_rows": 3_000,
        "feed_rows": 1_000,
    },
}

# Set-ups per run; setup_s is their median. The history set-up is the
# ingest and drain of the whole history, so it runs once.
SETUP_REPS = {"backfill": 5, "live": 3, "history": 1}
# Timed repeats of the short closed-loop stages; each metric is the median
# of its repeats, in CPU seconds where it is gated (see "host speed").
STREAM_REPS = 7  # backfill: `stream`, each on its own copy of the trained dir
REPORT_REPS = 5  # backfill: `report`
HISTORY_ROUNDS = 5  # history: ingest -> stream -> report, each on a copy
LIVE_SEGMENTS = 5  # live: alternating segments at each fixed rate

# Open loop: records come due on a fixed schedule and the stream is
# drained on a fixed micro-batch trigger. A greedy drain-when-possible
# loop made the latencies depend on where batch boundaries happened to
# fall, and they did not repeat from run to run.
TRIGGER_S = 0.025
LOW_RPS = 2_000
HIGH_RPS = 5_000
LADDER_RPS = (4_000, 6_000, 8_000, 10_000, 12_000, 14_000, 16_000, 20_000, 24_000)
LATENCY_LIMIT_MS = 100.0
# share of --seconds spent at each fixed rate (in LIVE_SEGMENTS segments
# that alternate between the two rates), and on each ladder rung
FIXED_SHARE = 0.5
RUNG_SHARE = 0.1

# The served forest of live and history is trained on rows generated from
# the pipeline's default seed, not the workload seed: its node count sets
# the cost of every prediction and ranged from 2,300 to 3,700 across
# workload seeds. The workload seed drives every record the system serves.
MODEL_SEED = PipelineConfig().seed

FEED_ID_BASE = 100_000_000  # new records never reuse an id of the history
LIVE_ID_STRIDE = 10_000_000


class BenchError(Exception):
    """A workload step failed; the run cannot go on."""


class Timed(NamedTuple):
    """One timed piece of work: wall seconds, the process's CPU seconds,
    when it ran (perf_counter) and the command's stdout."""

    wall: float
    cpu: float
    start: float
    end: float
    output: str = ""


class Summary(NamedTuple):
    """Medians over the repeats of one stage; ``ref`` is CPU seconds at the
    reference host speed (see speed_probe)."""

    wall: float
    cpu: float
    ref: float


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
#
# The gated timings are CPU seconds, in backfill and history scaled to a
# reference host speed. The benchmark runs one thread, numpy's BLAS
# included, so a command's CPU time is its wall time less its disk waits
# and less the time the shared host ran other tenants on this machine's
# CPUs; on a shared 2-core host, nine identical `stream` repeats in one run
# took 1.25 to 2.49 s of wall time and 1.18 to 1.24 s of CPU time. CPU time
# still follows the host's own speed, which changed by up to 1.8 times from
# one second or one run to the next and moved every Python-heavy stage
# together. So each timed piece of work runs between two speed probes, a
# fixed task of the benchmark's own, and its CPU seconds are scaled by the
# probes' reference time over the time they took around it.

PROBE_REF_S = 0.06  # CPU seconds of one probe at the reference speed
# A piece of work is scaled by the median of the probes taken within this
# many seconds of it: the two around it, and for a short stage those of its
# neighbours, so that one stray probe does not set the scale.
PROBE_WINDOW_S = 1.5
# The probe follows Python-heavy work. Work that runs longer than this is
# counted in plain CPU seconds: probes at its ends say little about its
# middle, and the long pieces (`train`, the history build) are mostly numpy
# training, whose CPU time moved far less than the probe's (8% against 22%
# between two backfill runs). So is all of live, whose triggers are mostly
# the forest walk's small numpy operations: within one run its cost per
# trigger moved 18% while the probe moved 40%.
PROBE_MAX_WORK_S = 5.0
SCALED_WORKLOADS = frozenset({"backfill", "history"})


class _ProbeRow:
    __slots__ = ("id", "sender", "receiver", "amount", "day", "payment_type", "flagged")

    def __init__(self, fields: dict):
        for name in self.__slots__:
            setattr(self, name, fields[name])


def _probe_lines(count: int = 2_000) -> list[str]:
    rng = random.Random(0)
    kinds = ("cash", "wire", "card", "cheque")
    return [
        json.dumps({
            "id": i,
            "sender": f"acct{rng.randrange(500):04d}",
            "receiver": f"acct{rng.randrange(500):04d}",
            "amount": round(rng.uniform(1.0, 5_000.0), 2),
            "day": rng.randrange(365),
            "payment_type": rng.choice(kinds),
            "flagged": rng.random() < 0.1,
        })
        for i in range(count)
    ]


PROBE_LINES = _probe_lines()


def speed_probe(loops: int = 5) -> float:
    """CPU seconds of a fixed pure-Python task of the kinds the pipeline
    does most: decode JSON records into objects, aggregate them in dicts,
    sort them and format them as text. It uses no code of the program."""
    start = time.process_time()
    chars = 0
    for _ in range(loops):
        rows = [_ProbeRow(json.loads(line)) for line in PROBE_LINES]
        totals: dict = {}
        for row in rows:
            key = (row.sender, row.day // 30)
            totals[key] = totals.get(key, 0.0) + row.amount
        rows.sort(key=lambda row: (row.sender, -row.amount))
        chars += len("\n".join(f"{k[0]},{k[1]},{v:.2f}" for k, v in sorted(totals.items())))
    assert chars > 0
    return time.process_time() - start


class Run:
    """Bookkeeping shared by every workload of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: str, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = SIZES[size]
        self.size = size
        self.workdir = workdir
        self.outdir = workdir / "out"
        self.rundir = workdir / f"{workload}-s{seed}-p{os.getpid()}"
        self.config = PipelineConfig()
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.metrics: dict[str, tuple[float, str]] = {}  # named end-to-end metrics
        self.layers: dict[str, float] = {}
        self.inputs: dict[str, object] = {}
        self.defects: dict[str, object] = {}
        self.tracer: Tracer | None = None
        self.group_starts: dict[int, float] = {}
        self.peak_rss_mb: float | None = None
        self.timings: dict[str, list[Timed]] = {}  # every timed command, by name
        self.t0 = time.perf_counter()
        self.scaled = workload in SCALED_WORKLOADS
        self.probes: list[tuple[float, float]] = []  # (perf_counter, seconds) of every probe

    # -- accounting ----------------------------------------------------

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.checks[name] = bool(ok)
        if not ok:
            self.failed += 1

    def count_records(self, processed: int, dead_letters: int) -> None:
        self.attempted += processed
        self.failed += dead_letters

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    # -- driving the CLI -----------------------------------------------

    def cli(self, data_dir: Path, *argv: str, report_dir: Path | None = None) -> str:
        """Run one command through ``cli.main``; returns its stdout."""
        args = ["--data-dir", str(data_dir)]
        if report_dir is not None:
            args += ["--report-dir", str(report_dir)]
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.current_group += 1
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(args + list(argv))
        if self.tracer is not None:
            self.group_starts[self.tracer.current_group] = start
        if code != 0:
            self.failed += 1
            raise BenchError(f"`{' '.join(argv)}` exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    # -- host speed (see speed_probe) ----------------------------------

    def probe(self) -> None:
        if self.scaled:
            start = time.perf_counter()
            self.probes.append((start, speed_probe()))

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per CPU second for work that ran from start to end."""
        if not self.scaled or end - start > PROBE_MAX_WORK_S:
            return 1.0
        near = [s for t, s in self.probes if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        return PROBE_REF_S / statistics.median(near)

    def timed(self, work) -> tuple[Timed, object]:
        """Run work(), between two speed probes where the workload is
        scaled; returns its timing and result."""
        self.probe()
        start = time.perf_counter()
        cpu_start = time.process_time()
        result = work()
        cpu = time.process_time() - cpu_start
        end = time.perf_counter()
        self.probe()
        return Timed(end - start, cpu, start, end), result

    def summary(self, samples: list[Timed]) -> Summary:
        return Summary(
            statistics.median(t.wall for t in samples),
            statistics.median(t.cpu for t in samples),
            statistics.median(t.cpu * self.scale(t.start, t.end) for t in samples),
        )

    def stage(self, data_dir: Path, *argv: str, report_dir: Path | None = None) -> Timed:
        """A timed command. Dirty pages of earlier steps are written out
        first, so that an fsync inside the command does not wait for them."""
        os.sync()
        gc.collect()
        timed, output = self.timed(lambda: self.cli(data_dir, *argv, report_dir=report_dir))
        self.timings.setdefault(argv[0], []).append(timed)
        return timed._replace(output=output)

    def timed_setup(self, build) -> object:
        """Build the inputs SETUP_REPS times; setup_s is the median."""
        state = None
        for _ in range(SETUP_REPS[self.workload]):
            timed, state = self.timed(build)
            self.timings.setdefault("setup", []).append(timed)
            os.sync()
        self.metric("setup_s", self.summary(self.timings["setup"]).ref, "s")
        return state

    def samples(self) -> dict[str, list[float]]:
        """Every timed piece of work by name, in wall, CPU and reference seconds."""
        out = {}
        for name, timings in self.timings.items():
            out[name] = [t.wall for t in timings]
            out[f"{name}.cpu"] = [t.cpu for t in timings]
            out[f"{name}.ref"] = [t.cpu * self.scale(t.start, t.end) for t in timings]
        return out

    # -- tracing -------------------------------------------------------

    def start_trace(self) -> None:
        self.tracer = Tracer()
        self.tracer.install()

    def stop_trace(self) -> None:
        tracer = self.tracer
        tracer.uninstall()
        self.layers.update(tracer.layer_metrics())
        self.outdir.mkdir(parents=True, exist_ok=True)
        tracer.save(self.outdir / f"spans-{self.workload}-s{self.seed}.npz")

    def fresh_dir(self, name: str) -> Path:
        path = self.rundir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.rundir, ignore_errors=True)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def new_records(seed: int, count: int, id_base: int) -> list:
    """Generated records whose ids start after id_base."""
    config = txgen.GeneratorConfig(seed=seed, count=count)
    return [dataclasses.replace(t, id=t.id + id_base) for t in txgen.generate(config)]


def forest_nodes(model) -> int:
    def count(node) -> int:
        if node.column is None:
            return 1
        return 1 + count(node.left) + count(node.right)

    return sum(count(t) for t in model.trees) if model.kind == "random_forest" else 0


def log_shape(log: EventLog, topic: str, group: str) -> tuple[list[int], list[int]]:
    parts = range(log.topic(topic).partition_count)
    lengths = [log.partition_length(topic, p) for p in parts]
    committed = [log.position(group, topic, p).committed_offset for p in parts]
    return lengths, committed


def record_log_inputs(run: Run, lengths: list[int]) -> None:
    run.inputs["partition_records"] = lengths
    run.layers["eventlog.partition_max_share"] = max(lengths) / max(1, sum(lengths))


def served_model(data_dir: Path):
    registry = cli.Workspace(PipelineConfig(data_dir=str(data_dir))).registry
    active = registry.active()
    return active, registry.load_model(active.version)


def record_served(run: Run, data_dir: Path) -> None:
    active, model = served_model(data_dir)
    run.inputs["served_kind"] = active.kind
    run.layers["input.served_is_forest"] = 1 if active.kind == "random_forest" else 0
    run.layers["input.forest_nodes"] = forest_nodes(model)


def drained_batches(stream_output: str) -> tuple[int, int]:
    """(records, batches) from the `stream` command's summary line."""
    for line in stream_output.splitlines():
        if line.startswith("drained "):
            words = line.split()
            return int(words[1]), int(words[4])
    raise BenchError("stream printed no drain summary")


def alert_keys(alerts, ids=None) -> set:
    return {
        (a.transaction_id, a.source)
        for a in alerts
        if ids is None or a.transaction_id in ids
    }


def closed_loop_queue_wait(run: Run) -> None:
    waits = run.tracer.queue_waits(run.group_starts)
    run.layers["streamproc.queue_wait_p50_ms"] = (
        statistics.median(waits) * 1000.0 if waits else 0.0
    )


# ---------------------------------------------------------------------------
# backfill: ingest -> train -> stream -> report on a fresh data dir
# ---------------------------------------------------------------------------

def backfill(run: Run) -> None:
    rows = run.sizes["backfill_rows"]
    dataset = run.rundir / "input" / "transactions.jsonl"

    def build():
        dataset.parent.mkdir(parents=True, exist_ok=True)
        run.cli(run.rundir / "gen", "--seed", str(run.seed), "generate",
                "--count", str(rows), "--out", str(dataset))

    run.timed_setup(build)
    stages = {k: run.summary(v) for k, v in
              backfill_pass(run, dataset, rows, "pass", STREAM_REPS, REPORT_REPS).items()}
    run.metric("ingest_rps", rows / stages["ingest"].wall, "records/s")
    run.metric("train_s", stages["train"].wall, "s")
    run.metric("drain_rps", rows / stages["stream"].wall, "records/s")
    run.metric("report_s", stages["report"].wall, "s")
    run.metric("work_s", sum(t.ref for t in stages.values()), "s")
    run.metric("stream_rps", rows / stages["stream"].ref, "records/s")
    run.layers["input.history_rows"] = 0
    run.layers["eventlog.backlog_max"] = rows
    if run.trace:
        run.start_trace()
        traced = {k: run.summary(v) for k, v in
                  backfill_pass(run, dataset, rows, "traced", 1, 1).items()}
        run.stop_trace()
        closed_loop_queue_wait(run)
        trace_overhead(run, sum(t.ref for t in traced.values()), rows / traced["stream"].ref,
                       run.metrics["work_s"][0], run.metrics["stream_rps"][0])


def backfill_pass(run: Run, dataset: Path, rows: int, name: str,
                  stream_reps: int, report_reps: int) -> dict[str, list[Timed]]:
    """ingest -> train -> stream -> report; the stream is timed
    `stream_reps` times, each on its own copy of the trained dir, and the
    report `report_reps` times. The two alternate, so that the repeats of
    each spread over the whole timed part."""
    data = run.fresh_dir(name)
    reports = data / "reports"
    ingest = run.stage(data, "ingest", "--input", str(dataset))
    train = run.stage(data, "train")
    # `train` activates the best validation F1, whose kind depends on the
    # seed, and a forest's prediction cost on its node count, which also
    # depends on the seed. The logistic model costs the same on every seed,
    # so the drain here measures the stream's own path; live and history
    # serve a fixed forest.
    pin_kind(data, "logistic_regression")
    copies = [data] + [run.rundir / f"{name}-copy{i}" for i in range(1, stream_reps)]
    for copy in copies[1:]:
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(data, copy)
    stream, report = [], []
    for i, copy in enumerate(copies):
        stream.append(run.stage(copy, "stream"))
        if i < report_reps:
            report.append(run.stage(data, "report", report_dir=reports))
    if run.tracer is None:
        backfill_checks(run, data, reports, rows, stream[0].output)
        for copy, timed in zip(copies[1:], stream[1:]):
            records, _ = drained_batches(timed.output)
            run.count_records(records, count_lines(copy / "dead_letter.jsonl"))
    for copy in copies[1:]:
        shutil.rmtree(copy, ignore_errors=True)
    return {"ingest": [ingest], "train": [train], "stream": stream, "report": report}


def pin_kind(data: Path, kind: str) -> None:
    registry = cli.Workspace(PipelineConfig(data_dir=str(data))).registry
    record = next(r for r in registry.records() if r.kind == kind)
    registry.activate(record.version, tick=0)


def backfill_checks(run: Run, data: Path, reports: Path, rows: int, stream_out: str) -> None:
    ws = cli.Workspace(PipelineConfig(data_dir=str(data)))
    alerts = streamproc.read_alerts(ws.alerts_path)
    records, batches = drained_batches(stream_out)
    dead = count_lines(ws.dead_letter_path)
    run.count_records(records, dead)
    run.check("backfill.warehouse_rows", ws.tables.count("transactions") == rows)
    run.check("backfill.all_records_drained", records == rows)
    run.check("backfill.alert_table_matches_log",
              ws.tables.count("alerts") == len(alert_keys(alerts)))
    with open(reports / "alerts_per_month.csv", newline="") as handle:
        month_total = sum(int(row["total"]) for row in csv.DictReader(handle))
    run.check("backfill.alerts_per_month_total", month_total == len(alerts))
    versions = ws.registry.records()
    run.check("backfill.three_versions_one_active",
              len(versions) == 3 and sum(r.status == "active" for r in versions) == 1)
    run.check("backfill.report_bundle_repeats", bundle_repeats(run, reports, rows))
    lengths, _ = log_shape(ws.log, run.config.topic.name, cli.STREAM_GROUP)
    ws.tables.close()
    ws.log.close()
    record_log_inputs(run, lengths)
    record_served(run, data)
    run.layers["streamproc.batch_records_mean"] = records / max(1, batches)
    run.layers["streamproc.alerts_per_record"] = len(alerts) / max(1, records)
    run.layers["streamproc.dead_letters"] = dead


def bundle_repeats(run: Run, reports: Path, rows: int) -> bool:
    """Compare the report bundle with the one an earlier run on the same
    seed and size, program source and workload code left behind
    (acceptance guarantee 9).
    The first run for a seed records the bundle's digests."""
    digests = {
        name: hashlib.sha256((reports / name).read_bytes()).hexdigest()
        for name in cli.REPORT_FILES
    }
    bench = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()
    key = f"backfill-{rows}-s{run.seed}-{source_digest()[:16]}-{bench[:16]}.json"
    path = run.outdir / "bundles" / key
    if path.exists():
        return json.loads(path.read_text()) == digests
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digests, sort_keys=True))
    return True


def source_digest() -> str:
    src = Path(cli.__file__).parent
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def count_lines(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def trace_overhead(run: Run, traced_work_s: float, traced_stream_rps: float,
                   work_s: float, stream_rps: float) -> None:
    """Traced against untraced figures of the same work."""
    run.layers["bench.trace_overhead.work_s"] = traced_work_s / work_s - 1.0
    run.layers["bench.trace_overhead.stream_rps"] = stream_rps / traced_stream_rps - 1.0


# ---------------------------------------------------------------------------
# live: open-loop publish at fixed rates, fixed micro-batch trigger
# ---------------------------------------------------------------------------

class LiveSystem:
    """A data dir with a pinned forest and one stream processor."""

    def __init__(self, run: Run, root: Path):
        config = run.config
        baseline = list(txgen.generate(
            txgen.GeneratorConfig(seed=MODEL_SEED, count=run.sizes["live_baseline_rows"])))
        schema = featstore.build_schema(baseline)
        X, y, _ = featstore.encode_matrix(baseline, schema)
        idx_train, idx_val, _ = featstore.split_indices(len(baseline), config.split_seed)
        over = featstore.oversample_indices(y[idx_train], config.oversample_seed)
        model = models.train_forest(
            X[idx_train][over], y[idx_train][over],
            config.models.overrides_for("random_forest"),
            schema_hash=schema.schema_hash, seed=config.forest_seed,
        )
        val = models.evaluate(
            models.predict_proba(model, X[idx_val]), y[idx_val], config.stream.alert_threshold)
        profile = lifecycle.feature_profile([baseline[i] for i in idx_train])
        self.registry = lifecycle.ModelRegistry(
            str(root / "registry.jsonl"), storage.BlobStore(root / "blobs"))
        record = self.registry.register(model, val, profile, tick=0)
        self.registry.activate(record.version, tick=0)
        self.config = config
        self.schema = schema
        self.root = root
        self.topic = config.topic.name
        self.log = EventLog(root / "log")
        self.log.create_topic(self.topic, partition_count=config.topic.partitions)
        self.processor = self.new_processor(cli.STREAM_GROUP, "alerts")

    def model_source(self):
        cache = {}

        def source():
            active = self.registry.active()
            if cache.get("version") != active.version:
                cache["model"] = self.registry.load_model(active.version)
                cache["version"] = active.version
            return active.version, self.schema, cache["model"]

        return source

    def new_processor(self, group: str, name: str) -> streamproc.StreamProcessor:
        config = self.config
        return streamproc.StreamProcessor(
            self.log,
            self.topic,
            group,
            alerts_path=str(self.root / f"{name}.jsonl"),
            dead_letter_path=str(self.root / f"{name}_dead.jsonl"),
            rule_config=config.rules.rule_config(),
            alert_threshold=config.stream.alert_threshold,
            batch_max=config.stream.batch_max,
            model_source=self.model_source(),
        )

    def close(self) -> None:
        self.processor.close()
        self.log.close()


class Phase:
    """Outcome of one fixed-rate stretch of the open loop."""

    def __init__(self):
        self.latencies: list[float] = []  # due -> alerts fsynced and offsets committed
        self.waits: list[float] = []  # due -> start of the draining batch
        self.late: list[float] = []  # trigger start - scheduled trigger time
        self.busy: list[float] = []  # per trigger: publish + drain, CPU seconds
        self.drain: list[float] = []  # per trigger: drain only, CPU seconds
        self.records = 0
        self.batches = 0
        self.backlog_end = 0
        self.backlog_max = 0


def run_phase(system: LiveSystem, rate: int, records: list, duration: float) -> Phase:
    """Publish records as they come due and drain on the fixed trigger,
    until every record is committed."""
    processor = system.processor
    batch_max = processor.batch_max
    phase = Phase()
    pending = [deque() for _ in range(system.log.topic(system.topic).partition_count)]
    n = len(records)
    clock = time.perf_counter
    cpu = time.process_time
    t0 = clock() + TRIGGER_S
    published = committed = 0
    k = 0
    while committed < n:
        scheduled = t0 + k * TRIGGER_S
        k += 1
        now = clock()
        if now < scheduled:
            time.sleep(scheduled - now)
            now = clock()
        phase.late.append(now - scheduled)
        begin = cpu()
        while published < n and t0 + published / rate <= now:
            partition, offset = streamproc.publish_transaction(
                system.log, system.topic, records[published])
            pending[partition].append((offset, t0 + published / rate))
            published += 1
        drain_begin = cpu()
        while True:
            batch_start = clock()
            result = processor.drain_once()
            done = clock()
            for partition, high in result.watermark.items():
                queue = pending[partition]
                while queue and queue[0][0] <= high:
                    _, due = queue.popleft()
                    phase.latencies.append(done - due)
                    phase.waits.append(batch_start - due)
                    committed += 1
            if result.record_count:
                phase.batches += 1
            if result.record_count < batch_max:
                break
        phase.busy.append(cpu() - begin)
        phase.drain.append(cpu() - drain_begin)
        end = clock()
        due_now = min(n, int((end - t0) * rate) + 1)
        backlog = max(0, due_now - committed)
        phase.backlog_max = max(phase.backlog_max, backlog)
        if scheduled <= t0 + duration:
            phase.backlog_end = backlog
    phase.records = n
    return phase


def live(run: Run) -> None:
    built: list[LiveSystem] = []

    def build():
        if built:
            built.pop().close()
        built.append(LiveSystem(run, run.fresh_dir("live")))
        return built[-1]

    system = run.timed_setup(build)
    run.layers["input.history_rows"] = 0
    run.inputs["baseline_rows"] = run.sizes["live_baseline_rows"]
    low, high, ladder = live_session(run, system, 0, with_ladder=True)
    run.metric("alert_p50_ms.low", latency_ms(low, 0.50), "ms")
    run.metric("alert_p99_ms.low", latency_ms(low, 0.99), "ms")
    run.metric("alert_p50_ms.high", latency_ms(high, 0.50), "ms")
    run.metric("alert_p99_ms.high", latency_ms(high, 0.99), "ms")
    run.metric("sustained_rps", ladder, "records/s")
    work_s, stream_rps = live_work(low, high)
    run.metric("work_s", work_s, "s")
    run.metric("stream_rps", stream_rps, "records/s")
    phases = low + high
    run.inputs["fixed_rate_segments"] = [
        {"records": ph.records, "busy_cpu_p50": statistics.median(ph.busy),
         "drain_cpu_p50": statistics.median(ph.drain)}
        for ph in phases
    ]
    if run.trace:
        run.start_trace()
        traced_low, traced_high, _ = live_session(run, system, 1, with_ladder=False)
        run.stop_trace()
        trace_overhead(run, *live_work(traced_low, traced_high), work_s, stream_rps)
        phases += traced_low + traced_high
    waits = [w for ph in phases for w in ph.waits]
    late = [x for ph in phases for x in ph.late]
    run.layers["streamproc.queue_wait_p50_ms"] = statistics.median(waits) * 1000.0
    run.layers["bench.gen_late_p99_ms"] = nearest_rank(late, 0.99) * 1000.0
    run.layers["eventlog.backlog_max"] = max(ph.backlog_max for ph in phases)
    records = sum(ph.records for ph in phases)
    run.layers["streamproc.batch_records_mean"] = records / max(1, sum(ph.batches for ph in phases))
    live_checks(run, system)
    run.layers["streamproc.alerts_per_record"] = (
        system.processor.alerts_emitted / max(1, system.processor.records_processed))
    run.layers["streamproc.dead_letters"] = system.processor.dead_letter_count
    active = system.registry.active()
    run.inputs["served_kind"] = active.kind
    run.layers["input.served_is_forest"] = 1
    run.layers["input.forest_nodes"] = forest_nodes(system.registry.load_model(active.version))
    system.close()


def latency_ms(segments: list[Phase], q: float) -> float:
    return nearest_rank([t for ph in segments for t in ph.latencies], q) * 1000.0


def live_work(low: list[Phase], high: list[Phase]) -> tuple[float, float]:
    """Busy CPU seconds and drain rate for the fixed-rate work. Each rate's
    cost per trigger is the median over all its triggers."""
    work_s = drain_s = 0.0
    for segments in (low, high):
        busy = [t for ph in segments for t in ph.busy]
        drain = [t for ph in segments for t in ph.drain]
        work_s += len(busy) * statistics.median(busy)
        drain_s += len(drain) * statistics.median(drain)
    records = sum(ph.records for ph in low + high)
    return work_s, records / drain_s


def live_session(run: Run, system: LiveSystem, session: int, with_ladder: bool):
    segment = FIXED_SHARE * run.seconds / LIVE_SEGMENTS
    rung = RUNG_SHARE * run.seconds
    stretch = 0

    def records(rate: int, duration: float) -> list:
        nonlocal stretch
        stretch += 1
        base = FEED_ID_BASE + (session * 100 + stretch) * LIVE_ID_STRIDE
        return new_records(run.seed * 1000 + session * 100 + stretch, int(rate * duration), base)

    low, high = [], []
    for _ in range(LIVE_SEGMENTS):
        low.append(run_phase(system, LOW_RPS, records(LOW_RPS, segment), segment))
        high.append(run_phase(system, HIGH_RPS, records(HIGH_RPS, segment), segment))
    sustained = 0
    if with_ladder:
        # The ladder's length depends on where the stream saturates, and
        # every rung adds records to the in-memory log; peak RSS is taken
        # before it so that it measures the same work on every seed.
        run.peak_rss_mb = peak_rss_mb()
        for rate in LADDER_RPS:
            step = run_phase(system, rate, records(rate, rung), rung)
            keeps_up = step.backlog_end <= 2 * TRIGGER_S * rate
            if not keeps_up or latency_ms([step], 0.99) > LATENCY_LIMIT_MS:
                break
            sustained = rate
    return low, high, sustained


def live_checks(run: Run, system: LiveSystem) -> None:
    processor = system.processor
    run.count_records(processor.records_processed, processor.dead_letter_count)
    lengths, committed = log_shape(system.log, system.topic, cli.STREAM_GROUP)
    record_log_inputs(run, lengths)
    run.check("live.every_record_committed", lengths == committed)
    run.check("live.no_dead_letters", processor.dead_letter_count == 0)
    # alert set of an offline single-pass replay by a fresh consumer group
    live_alerts = streamproc.read_alerts(str(system.root / "alerts.jsonl"))
    replay = system.new_processor("bench-replay", "replay_alerts")
    replay.drain_all()
    replay.close()
    replayed = streamproc.read_alerts(str(system.root / "replay_alerts.jsonl"))

    def keyed(alerts):
        return sorted((a.transaction_id, a.source, a.score) for a in alerts)

    run.check("live.alerts_match_replay", keyed(live_alerts) == keyed(replayed))


# ---------------------------------------------------------------------------
# history: resume and report on a data dir with a long history
# ---------------------------------------------------------------------------

def history(run: Run) -> None:
    sizes = run.sizes
    data = run.rundir / "history"
    inputs = run.rundir / "input"
    history_file = inputs / "history.jsonl"
    sample_file = inputs / "model_sample.jsonl"
    feed = inputs / "feed.jsonl"

    def build():
        shutil.rmtree(data, ignore_errors=True)
        inputs.mkdir(parents=True, exist_ok=True)
        run.cli(data, "--seed", str(run.seed), "generate",
                "--count", str(sizes["history_rows"]), "--out", str(history_file))
        run.cli(data, "--seed", str(MODEL_SEED), "generate",
                "--count", str(sizes["history_model_rows"]), "--out", str(sample_file))
        # Pin the served kind: train all three, then activate the forest.
        # `train --dataset` also lands the sample in the warehouse; the
        # history's ingest then replaces those rows, which share its ids.
        run.cli(data, "train", "--dataset", str(sample_file))
        pin_kind(data, "random_forest")
        run.cli(data, "ingest", "--input", str(history_file))
        run.cli(data, "stream")

    run.timed_setup(build)
    txgen.write_jsonl(new_records(run.seed + 1, sizes["feed_rows"], FEED_ID_BASE), feed)
    run.layers["input.history_rows"] = sizes["history_rows"]
    record_served(run, data)

    # Every round lands the same new records on its own copy of the built
    # history, so the rounds repeat the same work.
    topic = run.config.topic.name
    before = log_lengths(data, topic)
    rounds, drained, at_log_end, dead = [], [], [], 0
    for index in range(HISTORY_ROUNDS):
        copy = run.rundir / f"round{index}"
        stages = history_round(run, data, copy, feed)
        records, batches = drained_batches(stages["stream"].output)
        if index == 0:
            resume_defect(run, copy, feed, before)
            run.layers["streamproc.batch_records_mean"] = records / max(1, batches)
        log = EventLog(copy / "log")
        lengths, committed = log_shape(log, topic, cli.STREAM_GROUP)
        log.close()
        at_log_end.append(lengths == committed)
        drained.append(records)
        dead += count_lines(copy / "dead_letter.jsonl")
        shutil.rmtree(copy, ignore_errors=True)
        rounds.append(stages)
    record_log_inputs(run, lengths)
    run.count_records(sum(drained), dead)
    run.check("history.offsets_at_log_end", all(at_log_end))
    run.check("history.all_new_records_drained", drained == [sizes["feed_rows"]] * len(drained))
    run.layers["eventlog.backlog_max"] = sizes["feed_rows"]
    run.layers["streamproc.dead_letters"] = dead

    stages = {k: run.summary([r[k] for r in rounds]) for k in rounds[0]}
    run.metric("resume_s", stages["stream"].wall, "s")
    run.metric("report_s", stages["report"].wall, "s")
    run.metric("work_s", sum(t.ref for t in stages.values()), "s")
    run.metric("stream_rps", sizes["feed_rows"] / stages["stream"].ref, "records/s")

    if run.trace:
        copy = run.rundir / "traced"
        run.start_trace()
        traced = {k: run.summary([v]) for k, v in history_round(run, data, copy, feed).items()}
        run.stop_trace()
        shutil.rmtree(copy, ignore_errors=True)
        closed_loop_queue_wait(run)
        trace_overhead(run, sum(t.ref for t in traced.values()),
                       sizes["feed_rows"] / traced["stream"].ref,
                       run.metrics["work_s"][0], run.metrics["stream_rps"][0])


def log_lengths(data: Path, topic: str) -> list[int]:
    log = EventLog(data / "log")
    lengths, _ = log_shape(log, topic, cli.STREAM_GROUP)
    log.close()
    return lengths


def history_round(run: Run, data: Path, copy: Path, feed: Path) -> dict[str, Timed]:
    """On a copy of the history: land new records, resume the stream in a
    fresh Workspace, report."""
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(data, copy)
    return {
        "ingest": run.stage(copy, "ingest", "--input", str(feed)),
        "stream": run.stage(copy, "stream"),
        "report": run.stage(copy, "report", report_dir=copy / "reports"),
    }


def resume_defect(run: Run, data: Path, feed: Path, before: list[int]) -> None:
    """Known defect, reported and not gated: the resumed stream starts with
    empty velocity windows. The reference is a consumer that drains the
    same reloaded log with its window already holding the history that
    precedes the new records in each partition."""
    config = run.config
    topic = config.topic.name
    ws = cli.Workspace(PipelineConfig(data_dir=str(data)))
    new_ids = {t.id for t in txgen.read_jsonl(feed)}
    resumed = [a for a in streamproc.read_alerts(ws.alerts_path) if a.transaction_id in new_ids]
    run.layers["streamproc.alerts_per_record"] = len(resumed) / len(new_ids)
    log = EventLog(data / "log")
    window = config.rules.rule_config().velocity_window_ticks
    group = "bench-reference"
    for partition, first_new in enumerate(before):
        if first_new - window > 0:
            log.commit(group, topic, partition, first_new - window - 1)
    active, model = served_model(data)
    schema_blob = ws.blobs.get_blob(
        cli.SCHEMA_NAMESPACE, lifecycle.MODEL_BLOB_DATE, f"{active.schema_hash}.json")
    schema = featstore.EncodingSchema.from_json(schema_blob.decode("utf-8"))
    reference = streamproc.StreamProcessor(
        log, topic, group,
        alerts_path=str(run.rundir / "reference_alerts.jsonl"),
        dead_letter_path=str(run.rundir / "reference_dead.jsonl"),
        rule_config=config.rules.rule_config(),
        alert_threshold=config.stream.alert_threshold,
        batch_max=config.stream.batch_max,
        model_source=lambda: (active.version, schema, model),
    )
    expected = set()
    for result in reference.drain_all():
        expected |= alert_keys(result.alerts, new_ids)
    reference.close()
    log.close()
    missed = len(expected - alert_keys(resumed))
    run.layers["streamproc.resume_alert_diff"] = missed
    run.defects["resume_alert_diff"] = {"missed": missed, "reference_alerts": len(expected)}


WORKLOADS = {"backfill": backfill, "live": live, "history": history}
