"""Speed layer: micro-batch stream processing over the event log.

Each drain reads one micro-batch per consumer group from the log as
columns, with no object per record: the payloads, their ingest ticks and
the offset range read from each partition, from which come the offsets
it commits and the partition and offset of any dead letter. It works on
the batch as columns too: every payload is decoded on its own, by the
txgen decoder that also reads JSON-lines datasets, into per-field column
lists (a payload that is not a UTF-8 JSON object of a transaction is
dead-lettered alone), the high-risk and corridor rules are evaluated
over those columns, the velocity windows are stepped through the batch
in record order, and the active model (when one is installed) scores the
whole batch from the category codes of its feature columns, with no
one-hot matrix for a tree model. The batch's alert lines are then
appended and fsynced in one write, and only after that does one commit,
one fsynced line appended to the topic's positions journal, move the
consumer positions of every partition the batch read. A crash between
persistence and commit therefore replays the batch: at-least-once. Alert lines are rows of the alerts table, keyed by
``transaction_id:source``, so the table's fold counts a replayed alert
once. The alert and dead-letter files are storage journals: each batch's
lines are fsynced before the commit, and a line torn by a crash is cut
when the file is next opened or read. The processor writes its sinks by
path and holds no alert past its batch: each BatchResult carries the
batch's alerts and the bytes of their lines, and a command that keeps
them hands them to the alerts table once its drains are done
(TableStore.appended), which may compact them.

RuleConfig is the ``rules`` config section itself. Rule evaluation is
deterministic and ordered: each record's rule alerts come in the order
high-risk payment type, corridor mismatch, sender velocity, and the
model's alerts follow in record order. The velocity window is measured in
ingest ticks, not wall time, so replays of the same log produce the same
alerts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, SchemaMismatchError
from .eventlog import EventLog
from .featstore import FEATURE_FIELDS, EncodingSchema, encode_codes
from .models import TrainedModel, predict_proba
from .storage import JournalWriter, RowType, field_columns, read_journal
from .txgen import TRANSACTION_FIELDS, Transaction, _parse_transaction, transaction_to_json

DEFAULT_HIGH_RISK_TYPES = frozenset({"Cash Deposit", "Cash Withdrawal", "Cross-border"})

RULE_HIGH_RISK = "rule:high_risk_type"
RULE_CORRIDOR = "rule:corridor_mismatch"
RULE_VELOCITY = "rule:velocity"


@dataclass(frozen=True)
class RuleConfig:
    """The ``rules`` config section: switches and thresholds for the three
    streaming rules. The config reader takes ``high_risk_types`` from a
    JSON list of strings."""

    high_risk_types: frozenset = DEFAULT_HIGH_RISK_TYPES
    enable_high_risk: bool = True
    enable_corridor: bool = True
    enable_velocity: bool = True
    velocity_max_count: int = 5
    velocity_window_ticks: int = 1000

    def validate(self) -> None:
        if self.velocity_max_count < 1:
            raise ConfigError("rules.velocity_max_count must be at least 1")
        if self.velocity_window_ticks < 1:
            raise ConfigError("rules.velocity_window_ticks must be at least 1")

    def rule_config(self) -> "RuleConfig":
        """The section itself, under the name the benchmark still calls;
        the config validated it when it was read."""
        return self


@dataclass(slots=True)
class Alert:
    transaction_id: int
    source: str
    score: float
    tick: int


# One alerts-table row, keyed by ``transaction_id:source``, as the bytes
# json.dumps(row, sort_keys=True) gives plus a newline: keys sorted, int ids
# and ticks, repr() of the float score. Sources are the rule names above or
# "model:v<version>", so none needs escaping.
_ALERT_LINE = (
    '{"alert_id": "%d:%s", "score": %r, "source": "%s", "tick": %d, "transaction_id": %d}\n'
)


def _alert_values(raw: dict) -> tuple:
    """One stored alert row's values in Alert field order; a malformed
    row raises one of MALFORMED."""
    return int(raw["transaction_id"]), str(raw["source"]), float(raw["score"]), int(raw["tick"])


def alert_from_dict(raw: dict) -> Alert:
    return Alert(*_alert_values(raw))


# The alerts table's rows: each Alert field with the kind of its value,
# keyed by the transaction and the source, stored as _ALERT_LINE forms it.
ALERT_ROWS = RowType(
    tuple((f.name, f.type) for f in fields(Alert)),
    _alert_values,
    key=("transaction_id", "source"),
    key_format="%d:%s",
)


def alert_columns(alerts) -> dict:
    """``alerts`` as the alerts table's columns, in their order."""
    values = (
        [a.transaction_id for a in alerts],
        [a.source for a in alerts],
        [a.score for a in alerts],
        [a.tick for a in alerts],
    )
    return field_columns(ALERT_ROWS, values)


def transaction_key(transaction: Transaction) -> bytes:
    """A transaction's log key: its sender location, so one sender's flow
    stays ordered in one partition."""
    return transaction.sender_bank_location.encode("utf-8")


def publish_transaction(log: EventLog, topic: str, transaction: Transaction):
    """Publish one transaction under its key; returns (partition, offset)."""
    payload = transaction_to_json(transaction).encode("utf-8")
    return log.publish(topic, transaction_key(transaction), payload)


def read_alerts(path: str) -> list[Alert]:
    """Every alert in an alert journal, oldest first."""
    return read_journal(path, alert_from_dict)


@dataclass
class BatchResult:
    record_count: int
    alerts: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    dead_letters: int = 0
    rules_only_fallback: bool = False
    watermark: dict = field(default_factory=dict)
    alert_bytes: int = 0  # the bytes of the batch's alert lines


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
        self._windows: dict[str, deque] = {}  # sender -> ticks in its velocity window
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

    def _score(self, features) -> np.ndarray:
        if self._model.schema_hash and self._model.schema_hash != self._schema.schema_hash:
            raise SchemaMismatchError(
                f"model was trained for schema {self._model.schema_hash}, "
                f"encoder provides {self._schema.schema_hash}"
            )
        return predict_proba(self._model, encode_codes(features, self._schema))

    def _velocity_flags(self, senders, ticks) -> list[bool]:
        """Step each sender's window through the batch in record order:
        ticks at or before ``tick - window`` leave it, then the record's
        tick joins it. Flags the records whose window then holds more than
        the allowed count. The sender is the sending bank location, the
        only sender field the transaction schema carries, so velocity is
        per location."""
        windows = self._windows
        span = self.rule_config.velocity_window_ticks
        limit = self.rule_config.velocity_max_count
        flags = []
        for sender, tick in zip(senders, ticks):
            window = windows.get(sender)
            if window is None:
                window = windows[sender] = deque()
            cutoff = tick - span
            while window and window[0] <= cutoff:
                window.popleft()
            window.append(tick)
            flags.append(len(window) > limit)
        return flags

    def _rules(self, columns, ticks) -> list[tuple[str, list[bool]]]:
        """The enabled rules in fixed order, each as its source and the
        records of the batch it fired for."""
        config = self.rule_config
        rules = []
        if config.enable_high_risk:
            high_risk = config.high_risk_types
            rules.append((RULE_HIGH_RISK, [t in high_risk for t in columns["payment_type"]]))
        if config.enable_corridor:
            corridor = [
                paid != received and sender != receiver
                for paid, received, sender, receiver in zip(
                    columns["payment_currency"],
                    columns["received_currency"],
                    columns["sender_bank_location"],
                    columns["receiver_bank_location"],
                )
            ]
            rules.append((RULE_CORRIDOR, corridor))
        if config.enable_velocity:
            rules.append(
                (RULE_VELOCITY, self._velocity_flags(columns["sender_bank_location"], ticks))
            )
        return rules

    # -- draining -----------------------------------------------------------

    def drain_once(self) -> BatchResult:
        batch = self.log.poll_columns(self.group, self.topic, max_records=self.batch_max)
        if not batch.payloads:
            return BatchResult(record_count=0)

        emit_tick = self.log.ticks()
        self._refresh_model()
        result = BatchResult(record_count=len(batch.payloads))
        result.watermark = {p: stop - 1 for p, (_, stop) in batch.ranges.items()}

        rows, dead_rows, dead = [], [], set()
        for i, payload in enumerate(batch.payloads):
            try:
                rows.append(_parse_transaction(payload))
            except DataError as exc:
                partition, offset = batch.locate(i)
                dead_rows.append({"partition": partition, "offset": offset, "error": str(exc)})
                dead.add(i)
        ticks = batch.ticks
        if dead:
            ticks = [tick for i, tick in enumerate(ticks) if i not in dead]
        columns = dict.fromkeys(TRANSACTION_FIELDS, ())
        columns.update(zip(TRANSACTION_FIELDS, zip(*rows)))
        ids = columns["id"]
        result.latencies = [emit_tick - tick for tick in ticks]

        rules = self._rules(columns, ticks)
        hits = [
            (tx_id, source, 1.0)
            for i, tx_id in enumerate(ids)
            for source, fired in rules
            if fired[i]
        ]
        # the model fills in for transaction ids no rule alerted in this batch
        rule_alerted = {tx_id for tx_id, _, _ in hits}

        if self._model is not None and rows:
            try:
                probabilities = self._score([columns[f] for f in FEATURE_FIELDS])
            except SchemaMismatchError:
                self.schema_mismatch_count += 1
                result.rules_only_fallback = True
            else:
                label = f"model:v{self._model_version}"
                scores = probabilities.tolist()
                for i in np.flatnonzero(probabilities >= self.alert_threshold).tolist():
                    if ids[i] not in rule_alerted:
                        hits.append((ids[i], label, scores[i]))

        # Durability before progress: alerts and dead letters hit disk
        # first, and only then does the consumer position move.
        result.alert_bytes = self._alert_writer.append(
            "".join(
                _ALERT_LINE % (tx_id, source, score, source, emit_tick, tx_id)
                for tx_id, source, score in hits
            )
        )
        self._dead_letter_writer.write(dead_rows)
        self.log.commit_watermark(self.group, self.topic, result.watermark)

        result.alerts = [Alert(tx_id, source, score, emit_tick) for tx_id, source, score in hits]
        result.dead_letters = len(dead_rows)
        self.records_processed += len(rows)
        self.alerts_emitted += len(hits)
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
