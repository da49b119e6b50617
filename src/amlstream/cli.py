"""Command line entry point for the whole pipeline.

Subcommands mirror the stages of the architecture: ``generate`` writes a
synthetic stream to a file, ``ingest`` publishes a file into the event
log and the warehouse tables, ``stream`` drains the log through the rule
and model scorers, ``train`` fits and registers the three classifier
kinds, ``report`` renders the CSV bundle, and ``demo`` runs the whole
story end to end including a drift-triggered retrain.

Exit codes: 0 success, 2 configuration problems, 3 filesystem problems,
4 data problems (missing prerequisites, malformed inputs).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import os
import sys
from dataclasses import fields, replace

from .config import FOREST_SEED_OFFSET, OVERSAMPLE_SEED_OFFSET, SPLIT_SEED_OFFSET, PipelineConfig
from .errors import AlreadyExistsError, ConfigError, DataError, PipelineError, reading
from .eventlog import EventLog
from .featstore import (
    EncodingSchema,
    build_schema,
    correlation_from_arrays,
    encode_matrix,
    oversample_indices,
    payment_type_table,
    seasonality_series,
    split_indices,
    alerts_per_month,
)
from .lifecycle import (
    MODEL_BLOB_DATE,
    ModelRegistry,
    RetrainHooks,
    check_drift,
    feature_profile,
    maybe_retrain,
)
from .models import (
    MODEL_KINDS,
    evaluate,
    predict_proba,
    train_forest,
    train_logistic,
    train_tree,
)
from .storage import BlobStore, TableStore
from .streamproc import Alert, StreamProcessor, alert_from_dict, latency_summary, publish_transaction
from .txgen import (
    Transaction,
    generate,
    read_dataset,
    transaction_from_dict,
    write_csv,
    write_jsonl,
)

SCHEMA_NAMESPACE = "schemas"
RAW_NAMESPACE = "raw"
STREAM_GROUP = "stream"

# Warehouse columns are the record types' fields. Under postponed
# annotations each field's type is its annotation's text, which reads
# "int", "float", "str" or "bool", the names TableStore takes.
TRANSACTION_COLUMNS = {f.name: f.type for f in fields(Transaction)}
ALERT_COLUMNS = {"alert_id": "str", **{f.name: f.type for f in fields(Alert)}}

REPORT_FILES = (
    "payment_type_table.csv",
    "fraud_by_payment_type.csv",
    "alerts_per_month.csv",
    "seasonality_daily.csv",
    "confusion_matrix.csv",
    "model_metrics.csv",
    "correlation_matrix.csv",
)


class Workspace:
    """Stores under one data directory, each opened on first use."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        root = config.data_dir
        self.log_dir = os.path.join(root, "log")
        self.tables_dir = os.path.join(root, "tables")
        self.blobs_dir = os.path.join(root, "blobs")
        self.dead_letter_path = os.path.join(root, "dead_letter.jsonl")
        self.registry_path = os.path.join(root, "registry.jsonl")

    @functools.cached_property
    def log(self) -> EventLog:
        return EventLog(self.log_dir)

    @functools.cached_property
    def tables(self) -> TableStore:
        tables = TableStore(self.tables_dir)
        tables.create_table("transactions", TRANSACTION_COLUMNS, key="id")
        tables.create_table("alerts", ALERT_COLUMNS, key="alert_id")
        return tables

    @property
    def alerts_path(self) -> str:
        """The alerts table's journal, the stream's only alert sink."""
        return str(self.tables.journal_path("alerts"))

    @functools.cached_property
    def blobs(self) -> BlobStore:
        return BlobStore(self.blobs_dir)

    @functools.cached_property
    def registry(self) -> ModelRegistry:
        return ModelRegistry(self.registry_path, self.blobs)


def _date_for_day(day: int) -> str:
    wrapped = (day - 1) % 365
    return (datetime.date(2023, 1, 1) + datetime.timedelta(days=wrapped)).isoformat()


def _save_schema(ws: Workspace, schema: EncodingSchema) -> None:
    ws.blobs.put_blob(
        SCHEMA_NAMESPACE,
        MODEL_BLOB_DATE,
        f"{schema.schema_hash}.json",
        schema.to_json().encode("utf-8"),
    )


def _load_schema(ws: Workspace, schema_hash: str) -> EncodingSchema:
    name = f"{schema_hash}.json"
    raw = ws.blobs.get_blob(SCHEMA_NAMESPACE, MODEL_BLOB_DATE, name)
    with reading(f"schema blob {SCHEMA_NAMESPACE}/{MODEL_BLOB_DATE}/{name}"):
        return EncodingSchema.from_json(raw.decode("utf-8"))


def _load_table_transactions(ws: Workspace) -> list[Transaction]:
    return [transaction_from_dict(row) for row in ws.tables.query("transactions")]


def _store_transactions(ws: Workspace, transactions) -> None:
    ws.tables.upsert_rows("transactions", [t.to_dict() for t in transactions])


def _ensure_topic(ws: Workspace) -> None:
    topic = ws.config.topic
    try:
        ws.log.create_topic(topic.name, partition_count=topic.partitions)
    except AlreadyExistsError:
        pass


def _publish_and_store(ws: Workspace, transactions, echo) -> dict[int, int]:
    """Publish to the topic, then upsert the warehouse table."""
    topic = ws.config.topic
    _ensure_topic(ws)
    per_partition: dict[int, int] = {}
    for t in transactions:
        partition, _ = publish_transaction(ws.log, topic.name, t)
        per_partition[partition] = per_partition.get(partition, 0) + 1
    _store_transactions(ws, transactions)
    ws.log.flush()
    counts = ", ".join(f"p{p}={n}" for p, n in sorted(per_partition.items()))
    echo(f"published {sum(per_partition.values())} records to '{topic.name}' ({counts})")
    return per_partition


def _model_source(ws: Workspace):
    """Closure handing the stream processor the active model, if any."""
    cache: dict = {"version": None, "schema": None, "model": None}

    def source():
        record = ws.registry.active()
        if record is None:
            return None
        if cache["version"] != record.version:
            cache["model"] = ws.registry.load_model(record.version)
            cache["schema"] = _load_schema(ws, record.schema_hash)
            cache["version"] = record.version
        return cache["version"], cache["schema"], cache["model"]

    return source


def _make_processor(ws: Workspace) -> StreamProcessor:
    config = ws.config
    return StreamProcessor(
        ws.log,
        config.topic.name,
        STREAM_GROUP,
        alerts_path=ws.alerts_path,
        dead_letter_path=ws.dead_letter_path,
        rule_config=config.rules,
        alert_threshold=config.stream.alert_threshold,
        batch_max=config.stream.batch_max,
        model_source=_model_source(ws),
    )


def _drain_summary(results, processor, echo) -> None:
    records = sum(r.record_count for r in results)
    echo(f"drained {records} records in {len(results)} batches")
    by_source: dict[str, int] = {}
    for r in results:
        for a in r.alerts:
            by_source[a.source] = by_source.get(a.source, 0) + 1
    for source in sorted(by_source):
        echo(f"  alerts {source}: {by_source[source]}")
    echo(f"  alerts total: {processor.alerts_emitted}, dead letters: {processor.dead_letter_count}")
    latencies = [l for r in results for l in r.latencies]
    if latencies:
        p50, p95, worst = latency_summary(latencies)
        echo(f"  latency ticks p50={p50} p95={p95} max={worst}")
    if processor.schema_mismatch_count:
        echo(f"  warning: {processor.schema_mismatch_count} batches fell back to rules only")


def _drain(processor, echo=None, results=()) -> None:
    """Drain the backlog after ``results``, the batches already drained,
    and, given ``echo``, print the summary."""
    results = [r for r in [*results, *processor.drain_all()] if r.record_count]
    if echo is not None:
        _drain_summary(results, processor, echo)


# ---------------------------------------------------------------------------
# training pipeline
# ---------------------------------------------------------------------------

def _prepare_training(transactions, seed: int):
    """Schema, encoded splits, and the balanced training matrix; the split
    and rebalancing seeds derive from ``seed`` as documented in config."""
    schema = build_schema(transactions)
    X, y, _ = encode_matrix(transactions, schema)
    idx_train, idx_val, idx_test = split_indices(len(transactions), seed + SPLIT_SEED_OFFSET)
    over = oversample_indices(y[idx_train], seed + OVERSAMPLE_SEED_OFFSET)
    Xtr, ytr = X[idx_train][over], y[idx_train][over]
    return schema, X, y, idx_train, idx_val, idx_test, Xtr, ytr


def _fit_kinds(ws: Workspace, transactions, kinds, seed: int):
    """Save the schema of ``transactions``, then fit each of ``kinds`` (the
    forest from ``seed + FOREST_SEED_OFFSET``) and score it on the validation
    and test splits: (training profile, [(model, validation, test), ...])."""
    config = ws.config
    schema, X, y, idx_train, idx_val, idx_test, Xtr, ytr = _prepare_training(transactions, seed)
    _save_schema(ws, schema)
    profile = feature_profile([transactions[i] for i in idx_train])
    threshold = config.stream.alert_threshold
    fitted = []
    for kind in kinds:
        overrides = config.models.overrides_for(kind)
        if kind == "logistic_regression":
            model = train_logistic(Xtr, ytr, overrides, schema_hash=schema.schema_hash)
        elif kind == "decision_tree":
            model = train_tree(Xtr, ytr, overrides, schema_hash=schema.schema_hash)
        else:
            model = train_forest(
                Xtr, ytr, overrides, schema_hash=schema.schema_hash, seed=seed + FOREST_SEED_OFFSET
            )
        validation = evaluate(predict_proba(model, X[idx_val]), y[idx_val], threshold)
        test = evaluate(predict_proba(model, X[idx_test]), y[idx_test], threshold)
        fitted.append((model, validation, test))
    return profile, fitted


def _train_models(ws: Workspace, transactions, tick: int, echo) -> None:
    """Fit, score and register every model kind; activate the best."""
    if len(transactions) < 5:
        raise DataError("not enough transactions to train on; ingest more data first")
    echo(f"training on {len(transactions)} transactions")
    profile, fitted = _fit_kinds(ws, transactions, MODEL_KINDS, ws.config.seed)
    records = []
    for model, val_m, test_m in fitted:
        record = ws.registry.register(model, val_m, profile, tick, test_m)
        records.append(record)
        echo(
            f"  {model.kind}: v{record.version} validation accuracy={val_m.accuracy:.6f} "
            f"f1={val_m.f1:.6f} | test accuracy={test_m.accuracy:.6f} f1={test_m.f1:.6f}"
        )

    # best validation F1 wins; ties go to the earliest version
    best = max(records, key=lambda r: (r.metrics.f1, -r.version))
    ws.registry.activate(best.version, tick)
    echo(f"activated v{best.version} ({best.kind})")


def _retrain_trainer(ws: Workspace):
    """Single-kind trainer used by the drift-driven retraining hook."""

    def train(kind: str, transactions, seed: int):
        profile, [(model, val_m, test_m)] = _fit_kinds(ws, transactions, [kind], seed)
        return model, val_m, test_m, profile

    return train


# ---------------------------------------------------------------------------
# report bundle
# ---------------------------------------------------------------------------

def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _alerts_from_table(ws: Workspace) -> list[Alert]:
    rows = ws.tables.query("alerts")
    with reading(ws.alerts_path):
        return [alert_from_dict(row) for row in rows]


def _write_report(ws: Workspace, echo) -> list[str]:
    config = ws.config
    transactions = _load_table_transactions(ws)
    if not transactions:
        raise DataError("no transactions in the warehouse; run `amlstream ingest` first")
    records = ws.registry.records()
    if not records:
        raise DataError("no trained models; run `amlstream train` first")
    active = ws.registry.active()
    if active is None:
        raise DataError("no active model; run `amlstream train` first")
    if active.test_metrics is None:
        raise DataError(f"no test metrics stored for active model v{active.version}")
    os.makedirs(config.report_dir, exist_ok=True)
    out = lambda name: os.path.join(config.report_dir, name)

    type_rows = payment_type_table(transactions)
    _write_csv(
        out("payment_type_table.csv"),
        ("payment_type", "transactions", "fraud", "fraud_percent"),
        [(r.payment_type, r.count, r.fraud_count, f"{r.fraud_percent:.2f}") for r in type_rows],
    )

    grid = alerts_per_month(_alerts_from_table(ws), transactions)
    alerts_by_type = dict(zip(grid.payment_types, grid.counts.sum(axis=0).tolist()))
    _write_csv(
        out("fraud_by_payment_type.csv"),
        ("payment_type", "transactions", "labeled_fraud", "alerts"),
        [(r.payment_type, r.count, r.fraud_count, alerts_by_type[r.payment_type]) for r in type_rows],
    )

    _write_csv(
        out("alerts_per_month.csv"),
        ("month", *grid.payment_types, "total"),
        [
            (month + 1, *grid.counts[month].tolist(), int(grid.counts[month].sum()))
            for month in range(12)
        ],
    )

    _write_csv(
        out("seasonality_daily.csv"),
        ("day", "avg_amount", "avg_amount_fraud"),
        [
            (
                row.day,
                f"{row.avg_amount_all:.2f}",
                "" if row.avg_amount_fraud is None else f"{row.avg_amount_fraud:.2f}",
            )
            for row in seasonality_series(transactions)
        ],
    )

    _write_csv(
        out("model_metrics.csv"),
        ("version", "kind", "split", "accuracy", "f1", "tn", "fp", "fn", "tp", "threshold"),
        [
            (
                r.version, r.kind, split, repr(m.accuracy), repr(m.f1),
                m.tn, m.fp, m.fn, m.tp, repr(m.threshold),
            )
            for r in records
            for split, m in (("test", r.test_metrics), ("validation", r.metrics))
            if m is not None
        ],
    )

    c = active.test_metrics
    _write_csv(
        out("confusion_matrix.csv"),
        ("", "predicted_negative", "predicted_positive"),
        [("actual_negative", c.tn, c.fp), ("actual_positive", c.fn, c.tp)],
    )

    sample = transactions[: config.corr_max_rows]
    schema = _load_schema(ws, active.schema_hash)
    X, y, _ = encode_matrix(sample, schema)
    corr = correlation_from_arrays(X, y)
    names = (*schema.column_names(), "is_laundering")
    _write_csv(
        out("correlation_matrix.csv"),
        ("feature", *names),
        [
            (names[i], *[repr(v) for v in corr.matrix[i].tolist()])
            for i in range(len(names))
        ],
    )

    for name in REPORT_FILES:
        echo(f"wrote {out(name)}")
    return [out(name) for name in REPORT_FILES]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args, config: PipelineConfig) -> int:
    gen_config = config.generator_config(count=args.count)
    out_path = args.out or os.path.join(config.data_dir, "transactions.jsonl")
    parent = os.path.dirname(out_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    if out_path.endswith(".csv"):
        written = write_csv(generate(gen_config), out_path)
    elif out_path.endswith(".jsonl"):
        written = write_jsonl(generate(gen_config), out_path)
    else:
        raise ConfigError(f"unsupported output extension for {out_path!r} (use .jsonl or .csv)")
    print(f"generated {written} transactions (seed {gen_config.seed}) -> {out_path}")
    return 0


def cmd_ingest(args, config: PipelineConfig) -> int:
    ws = Workspace(config)
    path = args.input or os.path.join(config.data_dir, "transactions.jsonl")
    transactions = list(read_dataset(path))
    if not transactions:
        raise DataError(f"{path} contains no records")
    with open(path, "rb") as handle:
        raw = handle.read()
    archive_date = _date_for_day(transactions[0].day)
    ws.blobs.put_blob(RAW_NAMESPACE, archive_date, os.path.basename(path), raw)
    _publish_and_store(ws, transactions, print)
    print(f"archived raw file under {RAW_NAMESPACE}/{archive_date}/{os.path.basename(path)}")
    print(f"stored {len(transactions)} transactions in the warehouse")
    return 0


def cmd_stream(args, config: PipelineConfig) -> int:
    if args.rate < 1:
        raise ConfigError(f"--rate must be at least 1, got {args.rate}")
    ws = Workspace(config)
    _ensure_topic(ws)
    processor = _make_processor(ws)
    results = []
    if args.feed:
        incoming = list(read_dataset(args.feed))
        rate = args.rate
        cadence = config.stream.cadence
        for start in range(0, len(incoming), rate):
            window = incoming[start : start + rate]
            for t in window:
                publish_transaction(ws.log, config.topic.name, t)
            # report joins alerts to this table, so fed records land in it too
            _store_transactions(ws, window)
            ws.log.flush(config.topic.name)  # synced before the drain commits them
            if len(window) < cadence:
                ws.log.advance_ticks(cadence - len(window))  # idle remainder
            results.append(processor.drain_once())
    _drain(processor, print, results)
    processor.close()
    return 0


def cmd_train(args, config: PipelineConfig) -> int:
    ws = Workspace(config)
    if args.dataset:
        transactions = list(read_dataset(args.dataset))
        # keep the warehouse consistent with what the models saw
        _store_transactions(ws, transactions)
    else:
        transactions = _load_table_transactions(ws)
        if not transactions:
            raise DataError(
                "no transactions to train on; run `amlstream ingest` or pass --dataset"
            )
    _train_models(ws, transactions, ws.log.ticks(), print)
    return 0


def cmd_report(args, config: PipelineConfig) -> int:
    ws = Workspace(config)
    files = _write_report(ws, print)
    print(f"report bundle complete: {len(files)} files in {config.report_dir}")
    return 0


# ---------------------------------------------------------------------------
# demo drill
# ---------------------------------------------------------------------------

DEMO_GENERATOR = {
    "count": 24_000,
    # strong type-level signal so the demo models have something to learn
    "fraud_rate_by_type": {
        "Credit Card": 0.001,
        "Debit Card": 0.001,
        "Cheque": 0.001,
        "ACH": 0.001,
        "Cross-border": 0.60,
        "Cash Withdrawal": 0.02,
        "Cash Deposit": 0.85,
    },
}

# validation splits at demo scale hold only a few hundred positives, so the
# F1 comparison carries sampling noise around +-0.01; the canned drill widens
# the promotion guard accordingly (a genuinely broken challenger drops far more)
DEMO_F1_GUARD = 0.03

SHIFT_GBP_WEIGHT = 0.30  # drifted payment-currency mix for the drill
CONTROL_WINDOWS = 2
CONTROL_ID_STRIDE = 1_000_000
SHIFT_ID_OFFSET = 5_000_000


def _shifted_currency_weights(config: PipelineConfig) -> dict:
    base = config.generator_config(count=1).currency_weights
    weights = dict(base)
    top = max(weights, key=lambda code: weights[code])
    spread = (weights[top] - SHIFT_GBP_WEIGHT) / (len(weights) - 1)
    weights[top] = SHIFT_GBP_WEIGHT
    for code in weights:
        if code != top:
            weights[code] += spread
    return weights


def _monitor_window(
    ws: Workspace, processor, profile, transactions, id_offset, window_id, label, echo
):
    """Publish and store one window of traffic under ids moved by
    ``id_offset``, drain it, and check it for drift against ``profile``."""
    window = [replace(t, id=t.id + id_offset) for t in transactions]
    _publish_and_store(ws, window, echo)
    _drain(processor)
    report = check_drift(profile, window, [], ws.config.drift, window_id=window_id)
    feature, psi = report.worst_feature
    echo(f"{label}: decision={report.decision} worst psi={psi:.4f} ({feature})")
    return report


def run_demo(config: PipelineConfig, shift: bool = True, echo=print) -> dict:
    """Scripted end-to-end drill; returns a structured outcome."""
    if not config.generator:
        config.generator = dict(DEMO_GENERATOR)
        config.drift = replace(config.drift, f1_guard=DEMO_F1_GUARD)
    ws = Workspace(config)
    outcome: dict = {"control_decisions": [], "shift": None}

    echo("== phase 1: generate and ingest baseline traffic ==")
    base = list(generate(config.generator_config()))
    _publish_and_store(ws, base, echo)

    echo("== phase 2: train and activate models ==")
    _train_models(ws, base, ws.log.ticks(), echo)
    profile = ws.registry.active().reference_profile

    echo("== phase 3: drain the stream with the active model ==")
    processor = _make_processor(ws)
    _drain(processor, echo)

    window_size = config.drift.window

    echo("== phase 4: steady-state monitoring windows ==")
    for w in range(CONTROL_WINDOWS):
        live = generate(config.generator_config(count=window_size, seed=config.seed + 50 + w))
        offset, label = CONTROL_ID_STRIDE * (w + 1), f"window {w + 1}"
        report = _monitor_window(ws, processor, profile, live, offset, w + 1, label, echo)
        outcome["control_decisions"].append(report.decision)

    if shift:
        echo("== phase 5: currency mix shifts ==")
        shifted = generate(
            config.generator_config(
                count=window_size,
                seed=config.seed + 60,
                currency_weights=_shifted_currency_weights(config),
            )
        )
        window_id = CONTROL_WINDOWS + 1
        report = _monitor_window(
            ws, processor, profile, shifted, SHIFT_ID_OFFSET, window_id, "shift window", echo
        )
        feature, psi = report.worst_feature

        echo("== phase 6: drift-triggered retraining ==")
        next_version = len(ws.registry.records()) + 1
        hooks = RetrainHooks(
            registry=ws.registry,
            load_transactions=lambda: _load_table_transactions(ws),
            train=_retrain_trainer(ws),
            seed=config.retrain_seed(next_version),
            tick=ws.log.ticks(),
            f1_guard=config.drift.f1_guard,
        )
        challenger = maybe_retrain(report, hooks)
        after = ws.registry.active()
        outcome["shift"] = {
            "decision": report.decision,
            "worst_feature": feature,
            "psi": psi,
            "challenger_version": challenger.version if challenger else None,
            "challenger_status": challenger.status if challenger else None,
            "active_version_after": after.version,
        }
        if challenger is None:
            echo("retraining did not produce a challenger")
        else:
            echo(
                f"challenger v{challenger.version} ({challenger.status}); "
                f"active model is now v{after.version}"
            )

    processor.close()
    echo("== final phase: report bundle ==")
    outcome["report_files"] = _write_report(ws, echo)
    return outcome


def cmd_demo(args, config: PipelineConfig) -> int:
    outcome = run_demo(config, shift=not args.no_shift)
    decisions = outcome["control_decisions"]
    print(f"demo complete: control decisions {decisions}", end="")
    if outcome["shift"]:
        s = outcome["shift"]
        print(
            f"; shift decision {s['decision']} (psi {s['psi']:.3f} on {s['worst_feature']}),"
            f" active model v{s['active_version_after']}"
        )
    else:
        print()
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_global_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON pipeline config")
    parser.add_argument("--data-dir", help="override the configured data directory")
    parser.add_argument("--report-dir", help="override the configured report directory")
    parser.add_argument("--seed", type=int, help="override the configured pipeline seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amlstream",
        description="Deterministic fraud-detection pipeline: generator, event log, "
        "stream scoring, model lifecycle, and reporting.",
    )
    _add_global_options(parser)
    # SUPPRESS keeps the subparser from clobbering values parsed before the
    # command name, so the global flags work in either position
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    _add_global_options(common)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic transaction dataset", parents=[common])
    p.add_argument("--count", type=int, help="number of transactions")
    p.add_argument("--out", help="output path (.jsonl or .csv)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="publish a dataset file into the event log", parents=[common])
    p.add_argument("--input", help="dataset path (default: <data-dir>/transactions.jsonl)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stream", help="drain the event log through rules and models", parents=[common])
    p.add_argument("--feed", help="dataset file to publish while draining")
    p.add_argument(
        "--rate",
        type=int,
        default=200,
        help="records published per drain cycle when feeding (default 200)",
    )
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("train", help="fit, evaluate, register, and activate models", parents=[common])
    p.add_argument("--dataset", help="train from a file instead of the warehouse")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="write the CSV report bundle", parents=[common])
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("demo", help="run the full scripted drill", parents=[common])
    p.add_argument("--no-shift", action="store_true", help="skip the drift injection")
    p.set_defaults(func=cmd_demo)
    return parser


def _load_config(args) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    if args.data_dir:
        config.data_dir = args.data_dir
    if args.report_dir:
        config.report_dir = args.report_dir
    if args.seed is not None:
        config.seed = args.seed
    config.validate()
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        return args.func(args, config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"filesystem error: {exc}", file=sys.stderr)
        return 3
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
