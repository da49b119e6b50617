"""Model lifecycle: registry, drift detection, guarded retraining.

The registry is an append-only storage journal of lifecycle events
(register, activate, retrain_failed) plus one serialized model blob per
version. A register event carries the version's validation and test
metrics; no other store keeps them. An activate event also retires the
active version, so no crash leaves the registry without an active model
once one was activated; older journals' ``retire`` events still replay.
Each event is fsynced before the call that made it returns. In-memory
state is a pure fold over the journal, so restarting from disk
reproduces exactly the registry that crashed; a journal line torn by
the crash is dropped. Model blobs are written before their journal
entry: a torn registration leaves an orphaned blob, never a journal
entry pointing at a missing model.

Drift is measured per categorical feature with the population stability
index between the activation-time reference profile and a live window,
plus an accuracy check once enough labeled feedback has accumulated.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, field

from .errors import ConfigError, DataError, NotFoundError, reading
from .featstore import FEATURE_FIELDS
from .models import EvalMetrics, TrainedModel, model_from_json, model_to_json
from .storage import BlobStore, JournalWriter, read_journal

PSI_EPSILON = 1e-4
MODEL_NAMESPACE = "models"
# Model blobs are not day-partitioned; they live under one fixed bucket.
MODEL_BLOB_DATE = "2023-01-01"

STATUS_REGISTERED = "registered"
STATUS_ACTIVE = "active"
STATUS_RETIRED = "retired"

DECISION_RETRAIN = "retrain"
DECISION_NONE = "none"


def feature_profile(transactions) -> dict[str, dict[str, float]]:
    """Per-feature category frequencies over the categorical fields."""
    if not transactions:
        raise DataError("cannot profile an empty window")
    counts = {f: Counter() for f in FEATURE_FIELDS}
    for t in transactions:
        for f in FEATURE_FIELDS:
            counts[f][getattr(t, f)] += 1
    n = len(transactions)
    return {
        f: {code: c / n for code, c in sorted(counter.items())}
        for f, counter in counts.items()
    }


def population_stability_index(
    reference: dict[str, float],
    live: dict[str, float],
    epsilon: float = PSI_EPSILON,
) -> float:
    """PSI between two category-frequency maps.

    Zero-frequency categories are floored at epsilon so a category seen
    on only one side contributes a finite penalty. Identical inputs give
    exactly 0.0, and every summand is non-negative because (p - q) and
    ln(p / q) always share a sign.
    """
    total = 0.0
    for code in sorted(set(reference) | set(live)):
        p = reference.get(code, 0.0) or epsilon
        q = live.get(code, 0.0) or epsilon
        if p == q:
            continue
        total += (p - q) * math.log(p / q)
    return total


@dataclass
class DriftThresholds:
    """The ``drift`` config section: when a live window demands a retrain,
    how large the window is, and how much worse a challenger may be."""

    psi_threshold: float = 0.2
    accuracy_drop: float = 0.02
    min_feedback: int = 200
    window: int = 10_000
    f1_guard: float = 0.005

    def validate(self) -> None:
        if self.psi_threshold <= 0:
            raise ConfigError("drift.psi_threshold must be positive")
        if self.accuracy_drop < 0:
            raise ConfigError("drift.accuracy_drop must be non-negative")
        if self.min_feedback < 1:
            raise ConfigError("drift.min_feedback must be at least 1")
        if self.window < 10:
            raise ConfigError("drift.window must be at least 10")
        if self.f1_guard < 0:
            raise ConfigError("drift.f1_guard must be non-negative")


@dataclass
class DriftReport:
    window_id: int
    window_size: int
    psi_by_feature: dict[str, float]
    accuracy: float | None
    breached: list = field(default_factory=list)
    decision: str = DECISION_NONE

    @property
    def worst_feature(self) -> tuple[str, float]:
        return max(self.psi_by_feature.items(), key=lambda kv: kv[1])


def check_drift(
    reference_profile: dict[str, dict[str, float]],
    window,
    feedback,
    thresholds: DriftThresholds,
    reference_accuracy: float | None = None,
    window_id: int = 0,
) -> DriftReport:
    """Compare one live window against the reference profile.

    ``feedback`` is a sequence of (predicted, actual) label pairs; the
    accuracy signal only participates once at least ``min_feedback``
    pairs exist, so early windows cannot trip it on noise.
    """
    if not window:
        raise DataError("drift check requires a non-empty window")
    live = feature_profile(window)
    psi_by_feature = {
        f: population_stability_index(reference_profile.get(f, {}), live[f])
        for f in FEATURE_FIELDS
    }
    breached = [
        (f"psi:{f}", value, thresholds.psi_threshold)
        for f, value in psi_by_feature.items()
        if value > thresholds.psi_threshold
    ]

    accuracy = None
    if reference_accuracy is not None and len(feedback) >= thresholds.min_feedback:
        agree = sum(1 for predicted, actual in feedback if bool(predicted) == bool(actual))
        accuracy = agree / len(feedback)
        drop = reference_accuracy - accuracy
        if drop > thresholds.accuracy_drop:
            breached.append(("accuracy_drop", drop, thresholds.accuracy_drop))

    return DriftReport(
        window_id=window_id,
        window_size=len(window),
        psi_by_feature=psi_by_feature,
        accuracy=accuracy,
        breached=breached,
        decision=DECISION_RETRAIN if breached else DECISION_NONE,
    )


@dataclass
class ModelRecord:
    version: int
    kind: str
    metrics: EvalMetrics
    schema_hash: str
    status: str
    reference_profile: dict
    blob_name: str
    test_metrics: EvalMetrics | None = None


def _metrics_from_dict(raw: dict) -> EvalMetrics:
    try:
        return EvalMetrics(
            tn=int(raw["tn"]),
            fp=int(raw["fp"]),
            fn=int(raw["fn"]),
            tp=int(raw["tp"]),
            accuracy=float(raw["accuracy"]),
            f1=float(raw["f1"]),
            threshold=float(raw["threshold"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed metrics payload: {exc}") from exc


class ModelRegistry:
    """Versioned model store with at most one active model.

    Every state change is one journal line; the constructor folds the
    journal to rebuild state, so the journal is the registry.
    """

    def __init__(self, journal_path: str, blob_store: BlobStore):
        self.journal_path = journal_path
        self.blob_store = blob_store
        self._records: dict[int, ModelRecord] = {}
        self._active_version: int | None = None
        self._journal: JournalWriter | None = None  # opened by the first event
        if os.path.exists(journal_path):
            self._replay()

    # -- journal ------------------------------------------------------------

    def _replay(self) -> None:
        # folds each event into state as it is read, so a bad one names path:line
        read_journal(self.journal_path, self._apply)

    def _append(self, event: dict) -> None:
        if self._journal is None:
            self._journal = JournalWriter(self.journal_path)
        self._journal.write([event])
        self._apply(event)

    def _apply(self, event: dict) -> None:
        name = event.get("event")
        version = event.get("version")
        if name == "register":
            payload = event["payload"]
            test = payload.get("test_metrics")
            self._records[version] = ModelRecord(
                version=version,
                kind=payload["kind"],
                metrics=_metrics_from_dict(payload["metrics"]),
                schema_hash=payload["schema_hash"],
                status=STATUS_REGISTERED,
                reference_profile=payload["reference_profile"],
                blob_name=payload["blob_name"],
                test_metrics=None if test is None else _metrics_from_dict(test),
            )
        elif name == "activate":
            self._records[version].status = STATUS_ACTIVE
            if self._active_version not in (None, version):
                self._records[self._active_version].status = STATUS_RETIRED
            self._active_version = version
        elif name == "retire":
            self._records[version].status = STATUS_RETIRED
            if self._active_version == version:
                self._active_version = None
        elif name == "retrain_failed":
            pass  # informational; state is unchanged
        else:
            raise DataError(f"unknown registry event {name!r}")

    # -- commands -----------------------------------------------------------

    def register(
        self,
        model: TrainedModel,
        metrics: EvalMetrics,
        reference_profile: dict,
        tick: int,
        test_metrics: EvalMetrics | None = None,
    ) -> ModelRecord:
        if not model.schema_hash:
            raise DataError("refusing to register a model without a schema hash")
        version = max(self._records, default=0) + 1
        blob_name = f"v{version}.json"
        # Blob first, journal second: the journal never references a
        # model document that is not already durable.
        self.blob_store.put_blob(
            MODEL_NAMESPACE, MODEL_BLOB_DATE, blob_name, model_to_json(model).encode("utf-8")
        )
        self._append(
            {
                "event": "register",
                "version": version,
                "tick": tick,
                "payload": {
                    "kind": model.kind,
                    "schema_hash": model.schema_hash,
                    "metrics": asdict(metrics),
                    "test_metrics": None if test_metrics is None else asdict(test_metrics),
                    "reference_profile": reference_profile,
                    "blob_name": blob_name,
                },
            }
        )
        return self._records[version]

    def activate(self, version: int, tick: int) -> ModelRecord:
        if version not in self._records:
            raise NotFoundError(f"no registered model version {version}")
        if self._active_version == version:
            return self._records[version]
        self._append({"event": "activate", "version": version, "tick": tick, "payload": {}})
        return self._records[version]

    def record_failure(self, reason: str, tick: int, window_id: int | None = None) -> None:
        self._append(
            {
                "event": "retrain_failed",
                "version": None,
                "tick": tick,
                "payload": {"reason": reason, "window_id": window_id},
            }
        )

    # -- queries ------------------------------------------------------------

    def active(self) -> ModelRecord | None:
        if self._active_version is None:
            return None
        return self._records[self._active_version]

    def record(self, version: int) -> ModelRecord:
        if version not in self._records:
            raise NotFoundError(f"no registered model version {version}")
        return self._records[version]

    def records(self) -> list[ModelRecord]:
        return [self._records[v] for v in sorted(self._records)]

    def load_model(self, version: int) -> TrainedModel:
        record = self.record(version)
        payload = self.blob_store.get_blob(MODEL_NAMESPACE, MODEL_BLOB_DATE, record.blob_name)
        with reading(f"model blob {MODEL_NAMESPACE}/{MODEL_BLOB_DATE}/{record.blob_name}"):
            return model_from_json(payload.decode("utf-8"))


@dataclass
class RetrainHooks:
    """Everything maybe_retrain needs from the surrounding pipeline.

    ``train`` is a callable (kind, transactions, seed) returning a tuple
    of (model, validation_metrics, test_metrics, reference_profile); both
    metric sets are registered with the challenger.
    """

    registry: ModelRegistry
    load_transactions: object
    train: object
    seed: int
    tick: int
    f1_guard: float


def maybe_retrain(report: DriftReport, hooks: RetrainHooks) -> ModelRecord | None:
    """Retrain the active model's kind when a drift report demands it.

    The challenger is always registered, but only activated when its
    validation F1 is no worse than the incumbent's by more than the
    guard. A training failure is journaled and leaves the incumbent
    untouched.
    """
    if report.decision != DECISION_RETRAIN:
        return None
    incumbent = hooks.registry.active()
    if incumbent is None:
        raise DataError("drift signaled but no active model exists to retrain")
    transactions = hooks.load_transactions()
    try:
        model, metrics, test_metrics, profile = hooks.train(
            incumbent.kind, transactions, hooks.seed
        )
    except DataError as exc:
        hooks.registry.record_failure(str(exc), hooks.tick, report.window_id)
        return None
    challenger = hooks.registry.register(model, metrics, profile, hooks.tick, test_metrics)
    if metrics.f1 >= incumbent.metrics.f1 - hooks.f1_guard:
        hooks.registry.activate(challenger.version, hooks.tick)
    return hooks.registry.record(challenger.version)
