"""Acceptance gate: one test per published guarantee of the package.

Each test here verifies one of the guarantees listed in the README's
acceptance section, at the stated tolerance. The oracles are local to
this file on purpose: the gate should not depend on helper code in the
unit-test modules it is meant to backstop.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
guarantee.
"""

import json

import numpy as np

from amlstream import cli
from amlstream.config import PipelineConfig
from amlstream.eventlog import EventLog
from amlstream.featstore import (
    build_schema,
    encode_matrix,
    oversample_indices,
    payment_type_table,
    split_indices,
)
from fixtures import DEFAULT_SEED as FIXTURE_SEED
from fixtures import build_signal_dataset
from amlstream.models import (
    evaluate,
    logistic_gradient,
    logistic_loss,
    predict_proba,
    train_forest,
    train_logistic,
    train_tree,
)
from amlstream.streamproc import StreamProcessor, latency_summary, publish_transaction
from amlstream.txgen import GeneratorConfig, generate


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# 1. split arithmetic
# ---------------------------------------------------------------------------

FULL_DATASET_SIZE = 9_504_852
EXPECTED_SPLIT = (5_702_911, 1_900_970, 1_900_971)


def test_split_sizes_match_published_counts():
    """60/20/20 of 9,504,852 rows lands exactly on the documented sizes."""
    for seed in (0, 7, 1234):
        train, val, test = split_indices(FULL_DATASET_SIZE, seed)
        assert (len(train), len(val), len(test)) == EXPECTED_SPLIT
    # the three parts tile the index range with no overlap or gap
    merged = np.concatenate([train, val, test])
    merged.sort()
    assert np.array_equal(merged, np.arange(FULL_DATASET_SIZE))


# ---------------------------------------------------------------------------
# 2. generated mix fidelity
# ---------------------------------------------------------------------------

# independent reference: per-type transaction and fraud counts of the
# dataset the generator's default mix is calibrated to
REFERENCE_MIX = {
    "Credit Card": (2_012_909, 1136),
    "Debit Card": (2_012_103, 1124),
    "Cheque": (2_011_419, 1087),
    "ACH": (2_008_807, 1159),
    "Cross-border": (933_931, 2628),
    "Cash Withdrawal": (300_477, 1334),
    "Cash Deposit": (225_206, 1405),
}
REFERENCE_TOTAL = sum(count for count, _ in REFERENCE_MIX.values())


def test_generated_dataset_matches_reference_mix():
    """1,000,000 default rows: shares within 0.5pp, fraud rates within 3 SE."""
    assert REFERENCE_TOTAL == FULL_DATASET_SIZE
    n = 1_000_000
    rows = payment_type_table(generate(GeneratorConfig(seed=202, count=n)))
    assert {r.payment_type for r in rows} == set(REFERENCE_MIX)
    for row in rows:
        ref_count, ref_fraud = REFERENCE_MIX[row.payment_type]
        share = row.count / n
        ref_share = ref_count / REFERENCE_TOTAL
        assert abs(share - ref_share) <= 0.005, row.payment_type
        ref_rate = ref_fraud / ref_count
        tolerance = 3.0 * np.sqrt(ref_rate * (1.0 - ref_rate) / row.count)
        assert abs(row.fraud_count / row.count - ref_rate) <= tolerance, row.payment_type


# ---------------------------------------------------------------------------
# 3. model quality on the shipped fixture
# ---------------------------------------------------------------------------

def test_models_reach_target_accuracy_on_signal_fixture():
    """All three classifiers clear 0.99 test accuracy; F1 ranks RF >= DT >= LR."""
    transactions = build_signal_dataset()  # 200,000 rows, shipped seed
    schema = build_schema(transactions)
    X, y, _ = encode_matrix(transactions, schema)
    idx_train, _, idx_test = split_indices(len(transactions), FIXTURE_SEED + 1)
    over = oversample_indices(y[idx_train], FIXTURE_SEED + 2)
    Xtr, ytr = X[idx_train][over], y[idx_train][over]

    metrics = {}
    for kind, model in (
        ("logistic_regression", train_logistic(Xtr, ytr)),
        ("decision_tree", train_tree(Xtr, ytr)),
        ("random_forest", train_forest(Xtr, ytr, seed=FIXTURE_SEED + 3)),
    ):
        metrics[kind] = evaluate(predict_proba(model, X[idx_test]), y[idx_test])

    for kind, m in metrics.items():
        assert m.accuracy >= 0.99, (kind, m.accuracy)
    assert (
        metrics["random_forest"].f1
        >= metrics["decision_tree"].f1
        >= metrics["logistic_regression"].f1
    ), {k: m.f1 for k, m in metrics.items()}


# ---------------------------------------------------------------------------
# 4. metric and training oracles
# ---------------------------------------------------------------------------

def counting_metrics(probabilities, truth, threshold):
    tp = tn = fp = fn = 0
    for p, t in zip(probabilities, truth):
        predicted = p >= threshold
        if predicted and t:
            tp += 1
        elif predicted and not t:
            fp += 1
        elif not predicted and t:
            fn += 1
        else:
            tn += 1
    accuracy = (tp + tn) / len(truth)
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    return tn, fp, fn, tp, accuracy, f1


def exhaustive_root_split(X, y, min_leaf):
    """Scan every (column, midpoint) pair; first strict minimum wins."""
    n = X.shape[0]
    best = None
    for c in range(X.shape[1]):
        vals = np.unique(X[:, c])
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2.0
            mask = X[:, c] < thr
            n_left = float(mask.sum())
            n_right = n - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            pos_left = float(y[mask].sum())
            pos_right = float(y.sum()) - pos_left
            pl = pos_left / n_left
            pr = pos_right / n_right
            g_left = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
            g_right = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
            cost = (n_left * g_left + n_right * g_right) / (n_left + n_right)
            if best is None or cost < best[0]:
                best = (cost, c, thr)
    return best


def central_difference_gradient(X, y, w, b, l2, h=1e-6):
    g_w = np.zeros_like(w)
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        g_w[i] = (logistic_loss(X, y, up, b, l2) - logistic_loss(X, y, down, b, l2)) / (2 * h)
    g_b = (logistic_loss(X, y, w, b + h, l2) - logistic_loss(X, y, w, b - h, l2)) / (2 * h)
    return g_w, g_b


def test_metric_and_training_oracles_agree():
    """evaluate, tree root splits, and logistic gradients match brute force."""
    rng = rng_for(404)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        p = rng.random(n)
        truth = rng.random(n) > rng.random()
        threshold = float(rng.random())
        m = evaluate(p, truth, threshold)
        tn, fp, fn, tp, accuracy, f1 = counting_metrics(p, truth, threshold)
        assert (m.tn, m.fp, m.fn, m.tp) == (tn, fp, fn, tp)
        assert m.accuracy == accuracy and m.f1 == f1

    rng = rng_for(405)
    checked = 0
    for trial in range(50):
        X = rng.standard_normal((60, 5))
        if trial % 3 == 0:
            X = (X > 0).astype(np.float64)
        y = rng.random(60) > 0.5
        if y.all() or not y.any():
            continue
        model = train_tree(X, y.astype(np.float64), {"min_leaf": 5})
        want = exhaustive_root_split(X, y.astype(np.float64), 5)
        if want is None:
            assert model.trees[0].is_leaf
        else:
            assert (model.trees[0].column, model.trees[0].threshold) == (want[1], want[2]), trial
        checked += 1
    assert checked >= 40

    rng = rng_for(406)
    for trial in range(20):
        X = rng.standard_normal((40, 5))
        y = (rng.random(40) > 0.5).astype(np.float64)
        w = rng.standard_normal(5)
        b = float(rng.standard_normal())
        l2 = 0.1 if trial % 2 else 0.0
        g_w, g_b = logistic_gradient(X, y, w, b, l2)
        fd_w, fd_b = central_difference_gradient(X, y, w, b, l2)
        full = np.append(g_w, g_b)
        fd = np.append(fd_w, fd_b)
        rel = np.linalg.norm(full - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5, (trial, rel)


# ---------------------------------------------------------------------------
# 5. oversampling properties
# ---------------------------------------------------------------------------

def test_oversampling_properties_hold():
    """Parity, provenance, and per-seed determinism over 1,000 random cases."""
    rng = rng_for(505)
    for _ in range(1000):
        n = int(rng.integers(2, 200))
        labels = rng.random(n) < rng.uniform(0.05, 0.95)
        if labels.all():
            labels[0] = False
        if not labels.any():
            labels[0] = True
        seed = int(rng.integers(0, 2**31))
        idx = oversample_indices(labels, seed)

        picked = labels[idx]
        assert int(picked.sum()) == int((~picked).sum())  # parity
        assert np.array_equal(idx[:n], np.arange(n))  # every original exactly once
        extra = idx[n:]
        pos, neg = np.flatnonzero(labels), np.flatnonzero(~labels)
        minority = pos if pos.size < neg.size else neg
        if extra.size:
            assert np.isin(extra, minority).all()  # only minority rows are duplicated
        assert np.array_equal(idx, oversample_indices(labels, seed))  # deterministic


# ---------------------------------------------------------------------------
# 6. event log crash/restart
# ---------------------------------------------------------------------------

def test_event_log_survives_crash_and_reload(tmp_path):
    """FIFO order, dense offsets, at-least-once across 100 kill-and-reload runs."""
    rng = rng_for(606)
    for trial in range(100):
        root = str(tmp_path / f"log{trial}")
        log = EventLog(root)
        partitions = int(rng.integers(1, 4))
        log.create_topic("t", partition_count=partitions)
        total = int(rng.integers(1, 40))
        sent = set()
        for i in range(total):
            payload = f"{trial}:{i}".encode("utf-8")
            log.publish("t", f"k{int(rng.integers(0, 6))}".encode("utf-8"), payload)
            sent.add(payload)

        seen = set()
        for _ in range(1000):
            batch = log.poll("g", "t", int(rng.integers(1, 8)))
            if not batch:
                break
            last = {}
            for r in batch:
                if r.partition in last:  # FIFO: offsets ascend within a partition
                    assert r.offset == last[r.partition] + 1
                last[r.partition] = r.offset
                seen.add(r.payload)
            committed = batch[: int(rng.integers(0, len(batch) + 1))]
            for r in committed:
                log.commit("g", "t", r.partition, r.offset)
            if rng.random() < 0.3:
                del log  # simulated crash: no close, no flush
                log = EventLog(root)
        else:
            raise AssertionError("consumer failed to drain the topic")

        assert seen == sent  # at-least-once, and nothing invented
        reloaded = EventLog(root)
        records = reloaded.poll("fresh-reader", "t", 10_000)
        assert len(records) == total  # a crash never loses published records
        offsets = {}
        for r in records:
            offsets.setdefault(r.partition, []).append(r.offset)
        for plist in offsets.values():
            assert plist == list(range(len(plist)))  # offsets dense from zero
        reloaded.close()
        log.close()


# ---------------------------------------------------------------------------
# 7. streaming latency
# ---------------------------------------------------------------------------

def test_streaming_latency_stays_bounded(tmp_path):
    """100,000 records at sub-capacity rate: p95 latency within 2 cadences."""
    cadence, rate, batch_max = 1000, 500, 1000
    log = EventLog(str(tmp_path / "log"))
    log.create_topic("transactions", partition_count=4)
    processor = StreamProcessor(
        log,
        "transactions",
        "latency-check",
        alerts_path=str(tmp_path / "alerts.jsonl"),
        dead_letter_path=str(tmp_path / "dead.jsonl"),
        batch_max=batch_max,
    )
    latencies = []
    pending = 0
    for t in generate(GeneratorConfig(seed=707, count=100_000)):
        publish_transaction(log, "transactions", t)
        pending += 1
        if pending == rate:
            log.advance_ticks(cadence - rate)
            latencies.extend(processor.drain_once().latencies)
            pending = 0
    for result in processor.drain_all():
        latencies.extend(result.latencies)
    processor.close()
    log.close()

    assert len(latencies) == 100_000
    p50, p95, worst = latency_summary(latencies)
    assert p95 <= 2 * cadence, (p50, p95, worst)


# ---------------------------------------------------------------------------
# 8. drift drill
# ---------------------------------------------------------------------------

def drill_settings(tmp_path, name):
    return PipelineConfig.from_dict(
        {
            "seed": 7,
            "data_dir": str(tmp_path / name),
            "report_dir": str(tmp_path / f"{name}_reports"),
            "generator": {
                "count": 8000,
                "fraud_rate_by_type": {
                    "Credit Card": 0.001,
                    "Debit Card": 0.001,
                    "Cheque": 0.001,
                    "ACH": 0.001,
                    "Cross-border": 0.60,
                    "Cash Withdrawal": 0.02,
                    "Cash Deposit": 0.85,
                },
            },
            "topic": {"partitions": 2},
            "stream": {"cadence": 1000, "batch_max": 2000},
            "drift": {"window": 3000, "f1_guard": 0.03},
            "models": {
                "logistic_regression": {"max_iters": 120},
                "random_forest": {"n_trees": 8},
            },
        }
    )


def test_demo_drill_detects_drift_and_retrains(tmp_path):
    """Injected shift: PSI > 0.2, automatic retrain, guarded activation;
    the no-shift control stays at decision none in every window."""
    silent = lambda *_: None
    outcome = cli.run_demo(drill_settings(tmp_path, "shifted"), shift=True, echo=silent)
    assert outcome["control_decisions"] == ["none", "none"]
    shift = outcome["shift"]
    assert shift["decision"] == "retrain"
    assert shift["psi"] > 0.2
    assert shift["challenger_version"] == 4
    assert shift["challenger_status"] == "active"  # promoted within the F1 guard
    assert shift["active_version_after"] == shift["challenger_version"]

    control = cli.run_demo(drill_settings(tmp_path, "quiet"), shift=False, echo=silent)
    assert control["control_decisions"] == ["none", "none"]
    assert control["shift"] is None


# ---------------------------------------------------------------------------
# 9. determinism sweep
# ---------------------------------------------------------------------------

def test_report_bundle_is_deterministic(tmp_path):
    """generate -> ingest -> train -> report twice: byte-identical bundles."""
    bundles = []
    for run in ("one", "two"):
        config_path = tmp_path / f"{run}.json"
        config_path.write_text(
            json.dumps(
                {
                    "seed": 29,
                    "data_dir": str(tmp_path / run),
                    "report_dir": str(tmp_path / f"{run}_reports"),
                    "generator": {"count": 20_000},
                    "models": {
                        "logistic_regression": {"max_iters": 150},
                        "random_forest": {"n_trees": 10},
                    },
                }
            )
        )
        for command in ("generate", "ingest", "train", "report"):
            assert cli.main(["--config", str(config_path), command]) == 0, command
        bundles.append(
            {
                name: (tmp_path / f"{run}_reports" / name).read_bytes()
                for name in cli.REPORT_FILES
            }
        )
    assert bundles[0].keys() == bundles[1].keys()
    for name in bundles[0]:
        assert bundles[0][name] == bundles[1][name], name
