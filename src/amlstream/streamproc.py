"""Speed layer: micro-batch stream processing over the event log.

Each drain polls one micro-batch per consumer group, applies the rule
engine record by record, scores the whole batch with the active model
(when one is installed), persists every alert durably, and only then
commits the consumer position. A crash between persistence and commit
therefore replays the batch: at-least-once. Alert lines are rows of the
alerts table, keyed by ``transaction_id:source``, so the table's fold
counts a replayed alert once. The alert and dead-letter files are
storage journals: each batch's lines are fsynced before the commit, and
a line torn by a crash is cut when the file is next opened or read.

Rule evaluation is deterministic and ordered: high-risk payment type,
then corridor mismatch, then sender velocity. The velocity window is
measured in ingest ticks, not wall time, so replays of the same log
produce the same alerts.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, SchemaMismatchError
from .eventlog import EventLog, LogRecord
from .featstore import EncodingSchema, encode_matrix
from .models import TrainedModel, predict_proba
from .storage import JournalWriter, read_journal
from .txgen import Transaction, transaction_from_dict, transaction_to_json

DEFAULT_HIGH_RISK_TYPES = frozenset({"Cash Deposit", "Cash Withdrawal", "Cross-border"})

RULE_HIGH_RISK = "rule:high_risk_type"
RULE_CORRIDOR = "rule:corridor_mismatch"
RULE_VELOCITY = "rule:velocity"


@dataclass(frozen=True)
class RuleConfig:
    """Switches and thresholds for the three streaming rules."""

    high_risk_types: frozenset = DEFAULT_HIGH_RISK_TYPES
    enable_high_risk: bool = True
    enable_corridor: bool = True
    enable_velocity: bool = True
    velocity_max_count: int = 5
    velocity_window_ticks: int = 1000

    def validate(self) -> None:
        from .errors import ConfigError

        if self.velocity_max_count < 1:
            raise ConfigError("velocity_max_count must be at least 1")
        if self.velocity_window_ticks < 1:
            raise ConfigError("velocity_window_ticks must be at least 1")


@dataclass(frozen=True)
class Alert:
    transaction_id: int
    source: str
    score: float
    tick: int

    def to_dict(self) -> dict:
        """The alerts table row, keyed by ``transaction_id:source``."""
        return {
            "alert_id": f"{self.transaction_id}:{self.source}",
            "transaction_id": self.transaction_id,
            "source": self.source,
            "score": self.score,
            "tick": self.tick,
        }


def alert_from_dict(raw: dict) -> Alert:
    try:
        return Alert(
            transaction_id=int(raw["transaction_id"]),
            source=str(raw["source"]),
            score=float(raw["score"]),
            tick=int(raw["tick"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed alert record: {exc}") from exc


class RollingStats:
    """Per-sender velocity windows over recent ingest ticks.

    Sender identity is the sending bank location, the only sender field
    the transaction schema carries; velocity is therefore per-location.
    """

    def __init__(self, window_ticks: int = 1000):
        self.window_ticks = window_ticks
        self._recent: dict[str, deque] = {}

    def observe(self, transaction: Transaction, tick: int) -> int:
        """Record one transaction; returns the sender's count inside the
        window, including this one."""
        sender = transaction.sender_bank_location
        window = self._recent.setdefault(sender, deque())
        cutoff = tick - self.window_ticks
        while window and window[0] <= cutoff:
            window.popleft()
        window.append(tick)
        return len(window)


def apply_rules(
    transaction: Transaction,
    velocity_count: int,
    config: RuleConfig,
) -> list[str]:
    """Evaluate the rules in fixed order; returns the sources that fired."""
    fired = []
    if config.enable_high_risk and transaction.payment_type in config.high_risk_types:
        fired.append(RULE_HIGH_RISK)
    if (
        config.enable_corridor
        and transaction.payment_currency != transaction.received_currency
        and transaction.sender_bank_location != transaction.receiver_bank_location
    ):
        fired.append(RULE_CORRIDOR)
    if config.enable_velocity and velocity_count > config.velocity_max_count:
        fired.append(RULE_VELOCITY)
    return fired


def publish_transaction(log: EventLog, topic: str, transaction: Transaction):
    """Key by sender location so one sender's flow stays ordered."""
    return log.publish(
        topic,
        transaction.sender_bank_location.encode("utf-8"),
        transaction_to_json(transaction).encode("utf-8"),
    )


def decode_payload(payload: bytes) -> Transaction:
    try:
        raw = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError("payload is not a JSON object")
    return transaction_from_dict(raw)


def read_alerts(path: str) -> list[Alert]:
    """Every alert in an alert journal, oldest first."""
    return read_journal(path, alert_from_dict)


@dataclass
class BatchResult:
    record_count: int
    alerts: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    dead_letters: int = 0
    model_version: int | None = None
    rules_only_fallback: bool = False
    watermark: dict = field(default_factory=dict)


def latency_summary(latencies) -> tuple[int, int, int]:
    """Nearest-rank p50, p95, and max over a non-empty latency list."""
    if not latencies:
        raise DataError("no latencies to summarize")
    ordered = sorted(latencies)
    n = len(ordered)

    def rank(q: float) -> int:
        idx = max(1, int(np.ceil(q * n))) - 1
        return ordered[min(idx, n - 1)]

    return rank(0.50), rank(0.95), ordered[-1]


class StreamProcessor:
    """Drains one consumer group of a topic in micro-batches.

    ``model_source`` is an optional zero-argument callable returning
    ``(version, schema, model)`` or ``None``; it is consulted at every
    batch boundary so a newly activated model takes effect without a
    restart, and what it returns is served as is (caching a loaded model
    is the source's job). If the installed model's schema hash disagrees with the
    encoder schema, the batch falls back to rules only and the mismatch
    is counted rather than raised.
    """

    def __init__(
        self,
        log: EventLog,
        topic: str,
        group: str,
        *,
        alerts_path: str,
        dead_letter_path: str,
        rule_config: RuleConfig | None = None,
        alert_threshold: float = 0.5,
        batch_max: int = 1000,
        model_source=None,
    ):
        self.log = log
        self.topic = topic
        self.group = group
        self.rule_config = rule_config or RuleConfig()
        self.rule_config.validate()
        self.alert_threshold = alert_threshold
        self.batch_max = batch_max
        self.model_source = model_source
        self.stats = RollingStats(window_ticks=self.rule_config.velocity_window_ticks)
        self._alert_writer = JournalWriter(alerts_path)
        self._dead_letter_writer = JournalWriter(dead_letter_path)
        self._model_version: int | None = None
        self._schema: EncodingSchema | None = None
        self._model: TrainedModel | None = None
        self.records_processed = 0
        self.alerts_emitted = 0
        self.dead_letter_count = 0
        self.schema_mismatch_count = 0

    # -- model management ---------------------------------------------------

    def _refresh_model(self) -> None:
        if self.model_source is None:
            return
        provided = self.model_source()
        self._model_version, self._schema, self._model = provided or (None, None, None)

    def _score_batch(self, transactions) -> np.ndarray:
        if self._model.schema_hash and self._model.schema_hash != self._schema.schema_hash:
            raise SchemaMismatchError(
                f"model was trained for schema {self._model.schema_hash}, "
                f"encoder provides {self._schema.schema_hash}"
            )
        X, _, _ = encode_matrix(transactions, self._schema)
        return predict_proba(self._model, X)

    # -- draining -----------------------------------------------------------

    def drain_once(self) -> BatchResult:
        records = self.log.poll(self.group, self.topic, max_records=self.batch_max)
        if not records:
            return BatchResult(record_count=0)

        emit_tick = self.log.ticks()
        self._refresh_model()
        result = BatchResult(record_count=len(records), model_version=self._model_version)

        decoded: list[tuple[LogRecord, Transaction]] = []
        dead_rows = []
        for record in records:
            high = result.watermark.get(record.partition, -1)
            if record.offset > high:
                result.watermark[record.partition] = record.offset
            try:
                decoded.append((record, decode_payload(record.payload)))
            except DataError as exc:
                dead_rows.append(
                    {
                        "partition": record.partition,
                        "offset": record.offset,
                        "error": str(exc),
                    }
                )

        alerts: list[Alert] = []
        rule_alerted: set[int] = set()
        for record, transaction in decoded:
            velocity = self.stats.observe(transaction, record.ingest_tick)
            for source in apply_rules(transaction, velocity, self.rule_config):
                alerts.append(
                    Alert(
                        transaction_id=transaction.id,
                        source=source,
                        score=1.0,
                        tick=emit_tick,
                    )
                )
                rule_alerted.add(transaction.id)
            result.latencies.append(emit_tick - record.ingest_tick)

        if self._model is not None and decoded:
            transactions = [t for _, t in decoded]
            try:
                probabilities = self._score_batch(transactions)
            except SchemaMismatchError:
                self.schema_mismatch_count += 1
                result.rules_only_fallback = True
            else:
                label = f"model:v{self._model_version}"
                for transaction, p in zip(transactions, probabilities):
                    if p >= self.alert_threshold and transaction.id not in rule_alerted:
                        alerts.append(
                            Alert(
                                transaction_id=transaction.id,
                                source=label,
                                score=float(p),
                                tick=emit_tick,
                            )
                        )

        # Durability before progress: alerts and dead letters hit disk
        # first, and only then does the consumer position move.
        self._alert_writer.write([a.to_dict() for a in alerts])
        self._dead_letter_writer.write(dead_rows)
        for partition, offset in sorted(result.watermark.items()):
            self.log.commit(self.group, self.topic, partition, offset)

        result.alerts = alerts
        result.dead_letters = len(dead_rows)
        self.records_processed += len(decoded)
        self.alerts_emitted += len(alerts)
        self.dead_letter_count += len(dead_rows)
        return result

    def drain_all(self, max_batches: int = 1_000_000) -> list[BatchResult]:
        results = []
        for _ in range(max_batches):
            result = self.drain_once()
            if result.record_count == 0:
                break
            results.append(result)
        return results

    def close(self) -> None:
        self._alert_writer.close()
        self._dead_letter_writer.close()
