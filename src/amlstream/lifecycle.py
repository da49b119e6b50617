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
the crash is dropped, and a malformed one (a missing field, a metric of
1e400) stops the fold with a DataError naming ``path:line``. Model blobs
are written before their journal entry: a torn registration leaves an
orphaned blob, never a journal entry pointing at a missing model.

Drift has one signal: per categorical feature, the population stability
index between the activation-time reference profile and a live window.
There is no accuracy signal: on the default data, predicting "not
laundering" for every row scores 0.9992, and fraud labels arrive too
late to be in a live window.
maybe_retrain acts on a drift report: it calls the caller's
``train(kind)`` for the active model's kind and registers, and perhaps
activates, the challenger.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NotFoundError, reading
from .featstore import FEATURE_FIELDS
from .models import EvalMetrics, TrainedModel, model_from_json, model_to_json
from .storage import BlobStore, Categories, JournalWriter, read_journal

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
    return category_profile(
        [Categories.of([getattr(t, f) for t in transactions]) for f in FEATURE_FIELDS]
    )


def category_profile(features) -> dict[str, dict[str, float]]:
    """feature_profile of rows held as one Categories per FEATURE_FIELDS
    entry; a vocabulary value no code uses is left out."""
    profile = {}
    for f, column in zip(FEATURE_FIELDS, features):
        n = len(column.codes)
        counts = np.bincount(column.codes, minlength=len(column.vocabulary)).tolist()
        profile[f] = {code: c / n for code, c in zip(column.vocabulary, counts) if c}
    return profile


def population_stability_index(reference: dict[str, float], live: dict[str, float]) -> float:
    """PSI between two category-frequency maps.

    Zero-frequency categories are floored at PSI_EPSILON so a category seen
    on only one side contributes a finite penalty. Identical inputs give
    exactly 0.0, and every summand is non-negative because (p - q) and
    ln(p / q) always share a sign.
    """
    total = 0.0
    for code in sorted(set(reference) | set(live)):
        p = reference.get(code, 0.0) or PSI_EPSILON
        q = live.get(code, 0.0) or PSI_EPSILON
        if p == q:
            continue
        total += (p - q) * math.log(p / q)
    return total


@dataclass
class DriftThresholds:
    """The ``drift`` config section: when a live window demands a retrain,
    how large the window is, and how much worse a challenger may be."""

    psi_threshold: float = 0.2
    window: int = 10_000
    # validation splits at demo scale hold only a few hundred positives, so
    # the F1 comparison carries sampling noise around +-0.01; the guard is
    # that wide (a genuinely broken challenger drops far more)
    f1_guard: float = 0.03

    def validate(self) -> None:
        if self.psi_threshold <= 0:
            raise ConfigError("drift.psi_threshold must be positive")
        if self.window < 10:
            raise ConfigError("drift.window must be at least 10")
        if self.f1_guard < 0:
            raise ConfigError("drift.f1_guard must be non-negative")


@dataclass
class DriftReport:
    window_id: int
    psi_by_feature: dict[str, float]
    breached: list = field(default_factory=list)
    decision: str = DECISION_NONE

    @property
    def worst_feature(self) -> tuple[str, float]:
        return max(self.psi_by_feature.items(), key=lambda kv: kv[1])


def check_drift(
    reference_profile: dict[str, dict[str, float]],
    window,
    thresholds: DriftThresholds,
    window_id: int = 0,
) -> DriftReport:
    """Compare one live window against the reference profile; a feature
    whose PSI exceeds the threshold is a breach, and any breach decides a
    retrain."""
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

    return DriftReport(
        window_id=window_id,
        psi_by_feature=psi_by_feature,
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
    return EvalMetrics(
        tn=int(raw["tn"]),
        fp=int(raw["fp"]),
        fn=int(raw["fn"]),
        tp=int(raw["tp"]),
        accuracy=float(raw["accuracy"]),
        f1=float(raw["f1"]),
        threshold=float(raw["threshold"]),
    )


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


def maybe_retrain(
    report: DriftReport, registry: ModelRegistry, train, tick: int, f1_guard: float
) -> ModelRecord | None:
    """Retrain the active model's kind when a drift report demands it.

    ``train(kind)`` fits one model of that kind and returns (model,
    validation_metrics, test_metrics, reference_profile); both metric sets
    are registered with the challenger. The challenger is always
    registered, but only activated when its validation F1 is no worse than
    the incumbent's by more than ``f1_guard``. A training failure (a
    DataError) is journaled at ``tick`` and leaves the incumbent untouched.
    """
    if report.decision != DECISION_RETRAIN:
        return None
    incumbent = registry.active()
    if incumbent is None:
        raise DataError("drift signaled but no active model exists to retrain")
    try:
        model, metrics, test_metrics, profile = train(incumbent.kind)
    except DataError as exc:
        registry.record_failure(str(exc), tick, report.window_id)
        return None
    challenger = registry.register(model, metrics, profile, tick, test_metrics)
    if metrics.f1 >= incumbent.metrics.f1 - f1_guard:
        registry.activate(challenger.version, tick)
    return registry.record(challenger.version)
