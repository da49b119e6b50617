"""Lifecycle tests: drift math, registry journal, retraining policy."""

import json
import math

import numpy as np
import pytest

from amlstream.errors import DataError, NotFoundError
from amlstream.lifecycle import (
    DECISION_NONE,
    DECISION_RETRAIN,
    DriftThresholds,
    ModelRegistry,
    check_drift,
    feature_profile,
    maybe_retrain,
    population_stability_index,
)
from amlstream.models import EvalMetrics, predict_proba, train_logistic
from amlstream.storage import BlobStore
from amlstream.txgen import DEFAULT_CURRENCY_WEIGHTS, GeneratorConfig, generate


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def make_metrics(f1=0.9, accuracy=0.99):
    return EvalMetrics(tn=90, fp=1, fn=1, tp=8, accuracy=accuracy, f1=f1, threshold=0.5)


def make_model(schema_hash="a" * 16, seed=1):
    rng = rng_for(seed)
    X = rng.standard_normal((30, 3))
    y = X[:, 0] > 0
    return train_logistic(X, y, {"max_iters": 50}, schema_hash=schema_hash)


def make_registry(tmp_path, name="registry"):
    store = BlobStore(str(tmp_path / f"{name}_blobs"))
    return ModelRegistry(str(tmp_path / f"{name}.jsonl"), store)


# ---------------------------------------------------------------------------
# profiles and PSI
# ---------------------------------------------------------------------------

def test_feature_profile_frequencies():
    transactions = list(generate(GeneratorConfig(seed=3, count=500)))
    profile = feature_profile(transactions)
    assert set(profile) == {
        "payment_type",
        "payment_currency",
        "received_currency",
        "sender_bank_location",
        "receiver_bank_location",
    }
    for feature, freqs in profile.items():
        assert freqs
        assert sum(freqs.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v > 0 for v in freqs.values())
    assert profile["payment_currency"]["GBP"] > 0.85


def test_feature_profile_rejects_empty():
    with pytest.raises(DataError):
        feature_profile([])


def test_psi_frozen_two_category_swap():
    # swapping 0.9/0.1 gives (0.9-0.1)ln9 + (0.1-0.9)ln(1/9) = 1.6 ln 9
    ref = {"a": 0.9, "b": 0.1}
    live = {"a": 0.1, "b": 0.9}
    value = population_stability_index(ref, live)
    assert value == pytest.approx(1.6 * math.log(9.0), rel=1e-15)
    assert value == pytest.approx(3.5155593237379513, rel=1e-12)


def test_psi_identical_profiles_is_exactly_zero():
    profile = {"x": 0.25, "y": 0.5, "z": 0.25}
    assert population_stability_index(profile, profile) == 0.0


def test_psi_nonnegative_on_random_profiles():
    rng = rng_for(7)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        p = rng.random(k)
        q = rng.random(k)
        p /= p.sum()
        q /= q.sum()
        ref = {str(i): float(p[i]) for i in range(k)}
        live = {str(i): float(q[i]) for i in range(k)}
        assert population_stability_index(ref, live) >= 0.0


def test_psi_handles_one_sided_categories():
    value = population_stability_index({"a": 1.0}, {"b": 1.0})
    assert math.isfinite(value)
    assert value > 1.0  # total mass swap is a large shift


def test_psi_stable_under_resampling_same_distribution():
    reference = feature_profile(list(generate(GeneratorConfig(seed=21, count=30_000))))
    for seed in (22, 23, 24):
        window = list(generate(GeneratorConfig(seed=seed, count=10_000)))
        live = feature_profile(window)
        for feature, freqs in live.items():
            psi = population_stability_index(reference[feature], freqs)
            assert psi < 0.02, (feature, psi)


# ---------------------------------------------------------------------------
# drift checks
# ---------------------------------------------------------------------------

def shifted_currency_config(seed, count):
    weights = dict(DEFAULT_CURRENCY_WEIGHTS)
    spread = (weights["GBP"] - 0.30) / (len(weights) - 1)
    weights["GBP"] = 0.30
    for code in weights:
        if code != "GBP":
            weights[code] += spread
    return GeneratorConfig(seed=seed, count=count, currency_weights=weights)


def test_check_drift_flags_currency_shift():
    reference = feature_profile(list(generate(GeneratorConfig(seed=31, count=20_000))))
    window = list(generate(shifted_currency_config(32, 8_000)))
    report = check_drift(reference, window, DriftThresholds(), window_id=4)
    assert report.decision == DECISION_RETRAIN
    breached_signals = [name for name, _, _ in report.breached]
    assert "psi:payment_currency" in breached_signals
    assert "psi:received_currency" in breached_signals
    assert report.worst_feature[1] > 0.2
    assert report.window_id == 4


def test_check_drift_quiet_on_matching_window():
    reference = feature_profile(list(generate(GeneratorConfig(seed=33, count=20_000))))
    window = list(generate(GeneratorConfig(seed=34, count=8_000)))
    report = check_drift(reference, window, DriftThresholds())
    assert report.decision == DECISION_NONE
    assert report.breached == []


def test_check_drift_rejects_empty_window():
    with pytest.raises(DataError):
        check_drift({}, [], DriftThresholds())


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_register_and_activate(tmp_path):
    registry = make_registry(tmp_path)
    first = registry.register(make_model(seed=1), make_metrics(f1=0.80), {"payment_type": {}}, tick=10)
    second = registry.register(make_model(seed=2), make_metrics(f1=0.90), {"payment_type": {}}, tick=20)
    assert (first.version, second.version) == (1, 2)
    assert registry.active() is None

    registry.activate(2, tick=30)
    assert registry.active().version == 2
    assert registry.record(1).status == "registered"

    registry.activate(1, tick=40)
    statuses = {r.version: r.status for r in registry.records()}
    assert statuses == {1: "active", 2: "retired"}
    assert registry.active().version == 1


def test_registry_single_active_invariant(tmp_path):
    registry = make_registry(tmp_path)
    for seed in range(1, 6):
        registry.register(make_model(seed=seed), make_metrics(), {}, tick=seed)
        registry.activate(seed, tick=seed)
        active = [r for r in registry.records() if r.status == "active"]
        assert len(active) == 1
        assert active[0].version == seed


def test_registry_unknown_version(tmp_path):
    registry = make_registry(tmp_path)
    with pytest.raises(NotFoundError):
        registry.activate(1, tick=0)
    with pytest.raises(NotFoundError):
        registry.record(7)


def test_registry_rejects_missing_schema_hash(tmp_path):
    registry = make_registry(tmp_path)
    with pytest.raises(DataError):
        registry.register(make_model(schema_hash=""), make_metrics(), {}, tick=0)


def test_registry_model_round_trip(tmp_path):
    registry = make_registry(tmp_path)
    model = make_model(seed=5)
    registry.register(model, make_metrics(), {}, tick=1)
    loaded = registry.load_model(1)
    probe = rng_for(9).standard_normal((20, 3))
    assert np.array_equal(predict_proba(loaded, probe), predict_proba(model, probe))


def test_registry_restart_reproduces_state(tmp_path):
    registry = make_registry(tmp_path)
    registry.register(make_model(seed=1), make_metrics(f1=0.7), {"payment_type": {"ACH": 1.0}}, tick=1)
    registry.register(make_model(seed=2), make_metrics(f1=0.8), {}, tick=2)
    registry.activate(1, tick=3)
    registry.activate(2, tick=4)
    registry.record_failure("boom", tick=5, window_id=9)

    reloaded = ModelRegistry(registry.journal_path, registry.blob_store)
    assert [r.version for r in reloaded.records()] == [1, 2]
    assert reloaded.active().version == 2
    assert reloaded.record(1).status == "retired"
    assert reloaded.record(1).reference_profile == {"payment_type": {"ACH": 1.0}}
    assert reloaded.record(2).metrics.f1 == 0.8
    probe = rng_for(10).standard_normal((5, 3))
    assert np.array_equal(
        predict_proba(reloaded.load_model(2), probe),
        predict_proba(registry.load_model(2), probe),
    )


def two_activations(tmp_path):
    registry = make_registry(tmp_path)
    registry.register(make_model(seed=1), make_metrics(f1=0.7), {"payment_type": {"ACH": 1.0}}, tick=1)
    registry.register(make_model(seed=2), make_metrics(f1=0.8), {}, tick=2)
    registry.activate(1, tick=3)
    registry.activate(2, tick=4)
    return registry


def test_registry_has_an_active_model_after_any_crash_once_activated(tmp_path):
    registry = two_activations(tmp_path)
    with open(registry.journal_path, encoding="utf-8") as handle:
        lines = handle.readlines()
    first = next(i for i, line in enumerate(lines) if json.loads(line)["event"] == "activate")
    for end in range(len(lines) + 1):
        prefix = tmp_path / f"prefix{end}.jsonl"
        prefix.write_text("".join(lines[:end]), encoding="utf-8")
        replayed = ModelRegistry(str(prefix), registry.blob_store)
        assert (replayed.active() is not None) == (end > first), end


def test_registry_replays_retire_events_of_older_journals(tmp_path):
    registry = two_activations(tmp_path)
    events = [json.loads(line) for line in open(registry.journal_path)]
    assert [e["event"] for e in events] == ["register", "register", "activate", "activate"]
    # the same history as journaled when activation wrote a retire event first
    retire = {"event": "retire", "version": 1, "tick": 4, "payload": {}}
    older = tmp_path / "older.jsonl"
    older.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in [*events[:3], retire, events[3]]),
        encoding="utf-8",
    )
    replayed = ModelRegistry(str(older), registry.blob_store)
    assert replayed.records() == registry.records()
    assert [r.status for r in replayed.records()] == ["retired", "active"]
    assert replayed.active().version == 2


def test_registry_test_metrics_survive_restart(tmp_path):
    registry = make_registry(tmp_path)
    test = make_metrics(f1=0.75, accuracy=0.97)
    registry.register(make_model(seed=1), make_metrics(), {}, tick=1, test_metrics=test)
    registry.register(make_model(seed=2), make_metrics(), {}, tick=2, test_metrics=test)
    registry.register(make_model(seed=3), make_metrics(), {}, tick=3)
    # a register line written before test metrics were journaled has no key
    lines = [json.loads(l) for l in open(registry.journal_path)]
    del lines[1]["payload"]["test_metrics"]
    with open(registry.journal_path, "w", encoding="utf-8") as handle:
        handle.write("".join(json.dumps(line) + "\n" for line in lines))

    reloaded = ModelRegistry(registry.journal_path, registry.blob_store)
    assert reloaded.record(1).test_metrics == test
    assert reloaded.record(2).test_metrics is None
    assert reloaded.record(3).test_metrics is None


def test_registry_journal_is_jsonl_events(tmp_path):
    registry = make_registry(tmp_path)
    registry.register(make_model(), make_metrics(), {}, tick=1)
    registry.activate(1, tick=2)
    lines = [json.loads(l) for l in open(registry.journal_path)]
    assert [e["event"] for e in lines] == ["register", "activate"]
    assert lines[0]["payload"]["blob_name"] == "v1.json"
    assert lines[0]["payload"]["metrics"]["f1"] == make_metrics().f1


def test_registry_torn_journal_tail_is_dropped_and_truncated(tmp_path):
    registry = make_registry(tmp_path)
    registry.register(make_model(), make_metrics(), {}, tick=1)
    with open(registry.journal_path, "rb") as handle:
        whole = handle.read()
    with open(registry.journal_path, "ab") as handle:
        handle.write(b'{"event": "activate", "payl')  # crash mid-append

    reloaded = ModelRegistry(registry.journal_path, registry.blob_store)
    assert [r.version for r in reloaded.records()] == [1]
    assert reloaded.active() is None
    with open(registry.journal_path, "rb") as handle:
        assert handle.read() == whole + b'{"event": "activate", "payl'  # a replay writes nothing
    reloaded.activate(1, tick=2)  # the writer cuts the tail first
    with open(registry.journal_path, "rb") as handle:
        assert handle.read().startswith(whole + b'{"event": "activate", "payload": ')
    again = ModelRegistry(registry.journal_path, registry.blob_store)
    assert again.active().version == 1


def test_registry_bad_journal_line_mid_file_names_path_and_line(tmp_path):
    registry = make_registry(tmp_path)
    registry.register(make_model(), make_metrics(), {}, tick=1)
    registry.activate(1, tick=2)
    with open(registry.journal_path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    lines[0] = '{"event": "register", "ver\n'
    with open(registry.journal_path, "w", encoding="utf-8") as handle:
        handle.write("".join(lines))
    with pytest.raises(DataError, match=r"registry\.jsonl:1: bad journal line"):
        ModelRegistry(registry.journal_path, registry.blob_store)


# ---------------------------------------------------------------------------
# retraining policy
# ---------------------------------------------------------------------------

def quiet_report():
    return check_drift(
        feature_profile(list(generate(GeneratorConfig(seed=41, count=2_000)))),
        list(generate(GeneratorConfig(seed=42, count=2_000))),
        DriftThresholds(),
    )


def drifted_report():
    return check_drift(
        feature_profile(list(generate(GeneratorConfig(seed=43, count=5_000)))),
        list(generate(shifted_currency_config(44, 5_000))),
        DriftThresholds(),
        window_id=2,
    )


def hooks_for(registry, f1, fail=False, guard=0.005):
    """maybe_retrain's arguments after the report: the registry, a fake
    trainer, the tick and the F1 guard."""

    def train(kind):
        if fail:
            raise DataError("training window was degenerate")
        assert kind == "logistic_regression"
        return (
            make_model(seed=77),
            make_metrics(f1=f1),
            make_metrics(f1=f1, accuracy=0.95),
            {"payment_type": {"ACH": 1.0}},
        )

    return registry, train, 99, guard


def seeded_registry(tmp_path, incumbent_f1=0.90):
    registry = make_registry(tmp_path)
    registry.register(make_model(seed=1), make_metrics(f1=incumbent_f1), {}, tick=1)
    registry.activate(1, tick=1)
    return registry


def test_maybe_retrain_noop_without_drift(tmp_path):
    registry = seeded_registry(tmp_path)
    assert maybe_retrain(quiet_report(), *hooks_for(registry, f1=0.99)) is None
    assert len(registry.records()) == 1


def test_maybe_retrain_promotes_better_challenger(tmp_path):
    registry = seeded_registry(tmp_path, incumbent_f1=0.90)
    record = maybe_retrain(drifted_report(), *hooks_for(registry, f1=0.95))
    assert record.version == 2
    assert record.status == "active"
    assert record.test_metrics == make_metrics(f1=0.95, accuracy=0.95)
    assert registry.record(1).status == "retired"


def test_maybe_retrain_guards_against_worse_challenger(tmp_path):
    registry = seeded_registry(tmp_path, incumbent_f1=0.90)
    record = maybe_retrain(drifted_report(), *hooks_for(registry, f1=0.80))
    assert record.version == 2
    assert record.status == "registered"  # kept, but not promoted
    assert registry.active().version == 1


def test_maybe_retrain_guard_tolerates_small_regression(tmp_path):
    registry = seeded_registry(tmp_path, incumbent_f1=0.90)
    record = maybe_retrain(drifted_report(), *hooks_for(registry, f1=0.897, guard=0.005))
    assert record.status == "active"


def test_maybe_retrain_records_training_failure(tmp_path):
    registry = seeded_registry(tmp_path)
    assert maybe_retrain(drifted_report(), *hooks_for(registry, f1=0.95, fail=True)) is None
    assert registry.active().version == 1
    assert len(registry.records()) == 1
    events = [json.loads(l)["event"] for l in open(registry.journal_path)]
    assert events[-1] == "retrain_failed"
    last = json.loads(open(registry.journal_path).readlines()[-1])
    assert last["payload"]["reason"] == "training window was degenerate"
    assert last["payload"]["window_id"] == 2


def test_maybe_retrain_requires_an_incumbent(tmp_path):
    registry = make_registry(tmp_path)
    with pytest.raises(DataError):
        maybe_retrain(drifted_report(), *hooks_for(registry, f1=0.9))
