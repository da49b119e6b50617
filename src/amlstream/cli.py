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
import functools
import os
import sys
from dataclasses import replace

from .config import FOREST_SEED_OFFSET, OVERSAMPLE_SEED_OFFSET, SPLIT_SEED_OFFSET, PipelineConfig
from .errors import AlreadyExistsError, ConfigError, DataError, PipelineError, reading
from .eventlog import EventLog
from .featstore import (
    FEATURE_FIELDS,
    EncodingSchema,
    alerts_per_month,
    correlation_from_arrays,
    encode_matrix,
    oversample_indices,
    payment_type_counts,
    schema_of_columns,
    seasonality_series,
    split_indices,
    transaction_columns,
)
from .lifecycle import (
    MODEL_BLOB_DATE,
    ModelRegistry,
    category_profile,
    check_drift,
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
from .storage import BlobStore, Categories, TableStore
from .streamproc import (
    ALERT_ROWS,
    StreamProcessor,
    alert_columns,
    latency_summary,
    transaction_key,
)
from .txgen import (
    TRANSACTION_ROWS,
    calendar_date,
    generate,
    read_dataset,
    transaction_to_json,
    write_csv,
    write_jsonl,
)

SCHEMA_NAMESPACE = "schemas"
RAW_NAMESPACE = "raw"
STREAM_GROUP = "stream"

REPORT_FILES = (
    "payment_type_table.csv",
    "fraud_by_payment_type.csv",
    "alerts_per_month.csv",
    "seasonality_daily.csv",
    "confusion_matrix.csv",
    "model_metrics.csv",
    "correlation_matrix.csv",
)
CORR_MAX_ROWS = 200_000  # warehouse rows the correlation matrix is computed over


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
        tables.create_table("transactions", key="id", row_type=TRANSACTION_ROWS)
        tables.create_table("alerts", key="alert_id", row_type=ALERT_ROWS)
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


def _ensure_topic(ws: Workspace) -> None:
    topic = ws.config.topic
    try:
        ws.log.create_topic(topic.name, partition_count=topic.partitions)
    except AlreadyExistsError:
        pass


def _store(ws: Workspace, lines: list[str]) -> tuple[int, int]:
    """Append transaction ``lines`` to the warehouse table; returns the
    journal's length before the append and the bytes written."""
    journal = ws.tables.journal_path("transactions")
    start = journal.stat().st_size if journal.exists() else 0
    ws.tables.upsert_rows("transactions", lines)
    return start, sum(map(len, lines)) + len(lines)  # ASCII lines, each with its newline


def _publish_and_store(ws: Workspace, transactions, echo) -> tuple[int, int]:
    """Publish to the topic in one call, then append the warehouse table;
    each transaction is encoded once, its log payload being its table
    row. Returns, as _store does, where the rows were appended, for the
    caller to hand them over."""
    topic = ws.config.topic
    _ensure_topic(ws)
    lines = [transaction_to_json(t) for t in transactions]
    ranges = ws.log.publish_many(
        topic.name,
        [transaction_key(t) for t in transactions],
        (line.encode("utf-8") for line in lines),
    )
    appended = _store(ws, lines)
    ws.log.flush()
    counts = ", ".join(f"p{p}={stop - start}" for p, (start, stop) in sorted(ranges.items()))
    echo(f"published {len(lines)} records to '{topic.name}' ({counts})")
    return appended


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


def _drain(processor, echo=None, results=()) -> list:
    """Drain the backlog after ``results``, the batches already drained,
    and, given ``echo``, print the summary; returns every batch that held
    records."""
    results = [r for r in [*results, *processor.drain_all()] if r.record_count]
    if echo is not None:
        _drain_summary(results, processor, echo)
    return results


def _hand_over_alerts(ws: Workspace, start: int, results) -> None:
    """Hand the alerts table the lines that the batches of ``results``
    appended to its journal from byte ``start``, with their values, so
    that it compacts them if they are enough."""
    alerts = [a for r in results for a in r.alerts]
    end = start + sum(r.alert_bytes for r in results)
    ws.tables.appended("alerts", start, end, len(alerts), lambda: alert_columns(alerts))


def _hand_over_transactions(ws: Workspace, appends, transactions, columns=None) -> None:
    """Hand the transactions table the ``transactions`` that the appends
    ``appends``, each a (start, bytes written) pair, wrote to its journal
    one after another, with their values (``columns``, if already built),
    so that it compacts them if they are enough. The run ends at the first
    start plus every byte written, so that another writer's lines between
    two appends, or a torn tail cut at the first, leave the journal ending
    elsewhere and the table declines the run."""
    start = appends[0][0]
    end = start + sum(written for _, written in appends)
    ws.tables.appended(
        "transactions", start, end, len(transactions),
        lambda: transaction_columns(transactions) if columns is None else columns,
    )


# ---------------------------------------------------------------------------
# training pipeline
# ---------------------------------------------------------------------------

def _prepare_training(columns, seed: int):
    """Schema, encoded splits, and the balanced training matrix of the
    transactions held as ``columns``; the split and rebalancing seeds
    derive from ``seed`` as documented in config."""
    schema = schema_of_columns(columns)
    X, y, _ = encode_matrix(columns, schema)
    idx_train, idx_val, idx_test = split_indices(len(y), seed + SPLIT_SEED_OFFSET)
    over = oversample_indices(y[idx_train], seed + OVERSAMPLE_SEED_OFFSET)
    Xtr, ytr = X[idx_train][over], y[idx_train][over]
    return schema, X, y, idx_train, idx_val, idx_test, Xtr, ytr


def _fit_kinds(ws: Workspace, columns, kinds, seed: int):
    """Save the schema of the transactions held as ``columns``, then fit
    each of ``kinds`` (the forest from ``seed + FOREST_SEED_OFFSET``) and
    score it on the validation and test splits: (training profile,
    [(model, validation, test), ...])."""
    config = ws.config
    schema, X, y, idx_train, idx_val, idx_test, Xtr, ytr = _prepare_training(columns, seed)
    _save_schema(ws, schema)
    profile = category_profile(
        [Categories(columns[f].codes[idx_train], columns[f].vocabulary) for f in FEATURE_FIELDS]
    )
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


def _train_models(ws: Workspace, columns, tick: int, echo) -> None:
    """Fit, score and register every model kind on the transactions held
    as ``columns``; activate the best."""
    n = len(columns["id"])
    if n < 5:
        raise DataError("not enough transactions to train on; ingest more data first")
    echo(f"training on {n} transactions")
    profile, fitted = _fit_kinds(ws, columns, MODEL_KINDS, ws.config.seed)
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


# ---------------------------------------------------------------------------
# report bundle
# ---------------------------------------------------------------------------

def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_report(ws: Workspace, echo) -> list[str]:
    config = ws.config
    transactions = ws.tables.columns("transactions")
    ids, types = transactions["id"], transactions["payment_type"]
    fraud = transactions["is_laundering"]
    if not len(ids):
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

    type_rows = payment_type_counts(types, fraud)
    _write_csv(
        out("payment_type_table.csv"),
        ("payment_type", "transactions", "fraud", "fraud_percent"),
        [(r.payment_type, r.count, r.fraud_count, f"{r.fraud_percent:.2f}") for r in type_rows],
    )

    alerted = ws.tables.columns("alerts")["transaction_id"]
    grid = alerts_per_month(alerted, ids, transactions["timestamp"], types)
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
            for row in seasonality_series(transactions["timestamp"], transactions["amount"], fraud)
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

    sample = {
        f: Categories(transactions[f].codes[:CORR_MAX_ROWS], transactions[f].vocabulary)
        for f in FEATURE_FIELDS
    }
    sample["is_laundering"] = fraud[:CORR_MAX_ROWS]
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
    # the archived blob is the bytes that were parsed and published
    with open(path, "rb") as handle:
        raw = handle.read()
    transactions = list(read_dataset(path, raw))
    if not transactions:
        raise DataError(f"{path} contains no records")
    archive_date = calendar_date(transactions[0].day).isoformat()
    ws.blobs.put_blob(RAW_NAMESPACE, archive_date, os.path.basename(path), raw)
    _hand_over_transactions(ws, [_publish_and_store(ws, transactions, print)], transactions)
    ws.log.close()  # indexes every partition, so the next open scans no frame
    print(f"archived raw file under {RAW_NAMESPACE}/{archive_date}/{os.path.basename(path)}")
    print(f"stored {len(transactions)} transactions in the warehouse")
    return 0


def cmd_stream(args, config: PipelineConfig) -> int:
    if args.rate < 1:
        raise ConfigError(f"--rate must be at least 1, got {args.rate}")
    ws = Workspace(config)
    _ensure_topic(ws)
    processor = _make_processor(ws)
    start = os.path.getsize(ws.alerts_path)
    results, incoming = [], []
    if args.feed:
        incoming = list(read_dataset(args.feed))
        rate = args.rate
        cadence = config.stream.cadence
        appends = []
        for first in range(0, len(incoming), rate):
            window = incoming[first : first + rate]
            # report joins alerts to the warehouse table, so fed records land
            # in it too; both are synced before the drain commits them
            appends.append(_publish_and_store(ws, window, lambda line: None))
            if len(window) < cadence:
                ws.log.advance_ticks(cadence - len(window))  # idle remainder
            results.append(processor.drain_once())
    results = _drain(processor, print, results)
    processor.close()
    _hand_over_alerts(ws, start, results)
    if incoming:  # the whole feed at once: each hand-over reads the lines past the compaction
        _hand_over_transactions(ws, appends, incoming)
    ws.log.close()
    return 0


def cmd_train(args, config: PipelineConfig) -> int:
    ws = Workspace(config)
    if args.dataset:
        transactions = list(read_dataset(args.dataset))
        columns = transaction_columns(transactions)
        # keep the warehouse consistent with what the models saw
        appended = _store(ws, [transaction_to_json(t) for t in transactions])
        _hand_over_transactions(ws, [appended], transactions, columns)
    else:
        columns = ws.tables.columns("transactions")
        if not len(columns["id"]):
            raise DataError(
                "no transactions to train on; run `amlstream ingest` or pass --dataset"
            )
    _train_models(ws, columns, ws.log.ticks(), print)
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
    ws: Workspace, processor, drained, profile, transactions, id_offset, window_id, label, echo
):
    """Publish and store one window of traffic under ids moved by
    ``id_offset``, drain it onto ``drained``, and check it for drift
    against ``profile``."""
    window = [replace(t, id=t.id + id_offset) for t in transactions]
    _hand_over_transactions(ws, [_publish_and_store(ws, window, echo)], window)
    drained += _drain(processor)
    report = check_drift(profile, window, ws.config.drift, window_id=window_id)
    feature, psi = report.worst_feature
    echo(f"{label}: decision={report.decision} worst psi={psi:.4f} ({feature})")
    return report


def run_demo(config: PipelineConfig, shift: bool = True, echo=print) -> dict:
    """Scripted end-to-end drill; returns a structured outcome."""
    if not config.generator:
        config.generator = dict(DEMO_GENERATOR)
    ws = Workspace(config)
    outcome: dict = {"control_decisions": [], "shift": None}

    echo("== phase 1: generate and ingest baseline traffic ==")
    base = list(generate(config.generator_config()))
    appended = _publish_and_store(ws, base, echo)
    columns = transaction_columns(base)
    _hand_over_transactions(ws, [appended], base, columns)

    echo("== phase 2: train and activate models ==")
    _train_models(ws, columns, ws.log.ticks(), echo)
    profile = ws.registry.active().reference_profile

    echo("== phase 3: drain the stream with the active model ==")
    processor = _make_processor(ws)
    start = os.path.getsize(ws.alerts_path)
    drained = _drain(processor, echo)

    window_size = config.drift.window

    echo("== phase 4: steady-state monitoring windows ==")
    for w in range(CONTROL_WINDOWS):
        live = generate(config.generator_config(count=window_size, seed=config.seed + 50 + w))
        offset, label = CONTROL_ID_STRIDE * (w + 1), f"window {w + 1}"
        report = _monitor_window(
            ws, processor, drained, profile, live, offset, w + 1, label, echo
        )
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
            ws, processor, drained, profile, shifted, SHIFT_ID_OFFSET, window_id, "shift window",
            echo,
        )
        feature, psi = report.worst_feature

        echo("== phase 6: drift-triggered retraining ==")
        seed = config.retrain_seed(len(ws.registry.records()) + 1)

        def train(kind):
            columns = ws.tables.columns("transactions")
            profile, [(model, validation, test)] = _fit_kinds(ws, columns, [kind], seed)
            return model, validation, test, profile

        challenger = maybe_retrain(
            report, ws.registry, train, ws.log.ticks(), config.drift.f1_guard
        )
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
    _hand_over_alerts(ws, start, drained)
    echo("== final phase: report bundle ==")
    outcome["report_files"] = _write_report(ws, echo)
    ws.log.close()  # indexes every partition, so the next open scans no frame
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
