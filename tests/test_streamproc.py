"""Stream processor tests: rules, scoring, durability, delivery semantics."""

import dataclasses
import hashlib
import json
import os
from collections import deque

import numpy as np
import pytest

from amlstream import eventlog, models
from amlstream.errors import DataError
from amlstream.eventlog import EventLog, fnv1a_64
from amlstream.featstore import build_schema, encode_matrix
from amlstream.models import FieldCodes, predict_proba, train_forest, train_logistic, train_tree
from amlstream.streamproc import (
    RULE_CORRIDOR,
    RULE_HIGH_RISK,
    RULE_VELOCITY,
    Alert,
    RuleConfig,
    StreamProcessor,
    latency_summary,
    publish_transaction,
    read_alerts,
)
from amlstream.txgen import GeneratorConfig, Transaction, generate, transaction_to_json


def make_tx(
    tx_id,
    payment_type="Credit Card",
    payment_currency="GBP",
    received_currency="GBP",
    sender="UK",
    receiver="UK",
    amount=100.0,
    laundering=False,
):
    return Transaction(
        id=tx_id,
        timestamp=tx_id * 10,
        amount=amount,
        payment_currency=payment_currency,
        received_currency=received_currency,
        sender_bank_location=sender,
        receiver_bank_location=receiver,
        payment_type=payment_type,
        is_laundering=laundering,
    )


def make_processor(tmp_path, log, **kwargs):
    return StreamProcessor(
        log,
        "transactions",
        kwargs.pop("group", "stream"),
        alerts_path=str(tmp_path / "alerts.jsonl"),
        dead_letter_path=str(tmp_path / "dead.jsonl"),
        **kwargs,
    )


def fresh_log(tmp_path, partitions=2):
    log = EventLog(str(tmp_path / "log"))
    log.create_topic("transactions", partition_count=partitions)
    return log


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

def drain_sources(tmp_path, transactions, *configs, idle=None):
    """Publish ``transactions`` to one partition, ``idle[i]`` idle ticks
    before the i-th, and drain them in one batch per rule config, each
    under its own consumer group. Returns, per config, each transaction's
    alert sources in the order the batch raised them."""
    log = fresh_log(tmp_path, partitions=1)
    for i, t in enumerate(transactions):
        log.advance_ticks(idle[i] if idle else 0)
        publish_transaction(log, "transactions", t)
    runs = []
    for n, config in enumerate(configs):
        proc = make_processor(tmp_path / f"run{n}", log, group=f"run{n}", rule_config=config)
        result = proc.drain_once()
        proc.close()
        assert result.record_count == len(transactions)
        by_id = {t.id: [] for t in transactions}
        for a in result.alerts:
            by_id[a.transaction_id].append(a.source)
        runs.append([by_id[t.id] for t in transactions])
    return runs


def test_high_risk_type_rule(tmp_path):
    txs = [
        make_tx(1, payment_type="Cash Deposit"),
        make_tx(2, payment_type="Cash Withdrawal"),
        make_tx(3, payment_type="Cross-border"),
        make_tx(4, payment_type="Credit Card"),
    ]
    [sources] = drain_sources(tmp_path, txs, RuleConfig())
    assert sources == [[RULE_HIGH_RISK], [RULE_HIGH_RISK], [RULE_HIGH_RISK], []]


def test_corridor_rule_needs_both_mismatches(tmp_path):
    both = make_tx(1, payment_currency="GBP", received_currency="EUR", sender="UK", receiver="France")
    currency_only = make_tx(2, payment_currency="GBP", received_currency="EUR")
    location_only = make_tx(3, sender="UK", receiver="France")
    [sources] = drain_sources(tmp_path, [both, currency_only, location_only], RuleConfig())
    assert sources == [[RULE_CORRIDOR], [], []]


def test_velocity_rule_fires_above_threshold_only(tmp_path):
    # the sixth record from one sender inside the window is the first over 5
    [sources] = drain_sources(
        tmp_path, [make_tx(i) for i in range(1, 7)], RuleConfig(velocity_max_count=5)
    )
    assert sources == [[], [], [], [], [], [RULE_VELOCITY]]


def test_rules_fire_in_fixed_order(tmp_path):
    txs = [
        make_tx(
            i,
            payment_type="Cross-border",
            payment_currency="GBP",
            received_currency="USD",
            sender="UK",
            receiver="USA",
        )
        for i in range(1, 11)
    ]
    [sources] = drain_sources(tmp_path, txs, RuleConfig())
    assert sources[0] == [RULE_HIGH_RISK, RULE_CORRIDOR]
    assert sources[-1] == [RULE_HIGH_RISK, RULE_CORRIDOR, RULE_VELOCITY]


def test_rule_switches_disable_individually(tmp_path):
    cfg = RuleConfig(enable_high_risk=False, enable_velocity=False)
    txs = [make_tx(i, payment_type="Cash Deposit") for i in range(1, 101)]
    [sources] = drain_sources(tmp_path, txs, cfg)
    assert sources == [[]] * 100


def test_rolling_stats_window_eviction(tmp_path):
    # window covers (tick - 10, tick]: a tick exactly 10 old is evicted.
    # UK publishes at ticks 1, 2, 3, 11 and 13, so its window holds 1, 2, 3,
    # 3 and 2 ticks; Spain, at 14, is tracked on its own and holds 1.
    txs = [make_tx(i, sender="UK") for i in range(1, 6)] + [make_tx(6, sender="Spain")]
    counts_over = [RuleConfig(velocity_window_ticks=10, velocity_max_count=k) for k in (1, 2, 3)]
    over_1, over_2, over_3 = drain_sources(tmp_path, txs, *counts_over, idle=[0, 0, 0, 7, 1, 0])
    v = [RULE_VELOCITY]
    assert over_1 == [[], v, v, v, v, []]
    assert over_2 == [[], [], v, v, [], []]
    assert over_3 == [[]] * 6


# ---------------------------------------------------------------------------
# draining
# ---------------------------------------------------------------------------

def oracle_sources(t, velocity, config):
    """Reference rules for one record, given its sender's window count."""
    fired = []
    if config.enable_high_risk and t.payment_type in config.high_risk_types:
        fired.append(RULE_HIGH_RISK)
    if (
        config.enable_corridor
        and t.payment_currency != t.received_currency
        and t.sender_bank_location != t.receiver_bank_location
    ):
        fired.append(RULE_CORRIDOR)
    if config.enable_velocity and velocity > config.velocity_max_count:
        fired.append(RULE_VELOCITY)
    return fired


def test_drain_rules_only_matches_replay_oracle(tmp_path):
    config = GeneratorConfig(seed=77, count=600)
    transactions = list(generate(config))
    log = fresh_log(tmp_path, partitions=3)
    ticks = {}
    for t in transactions:
        publish_transaction(log, "transactions", t)
        ticks[t.id] = log.ticks()

    proc = make_processor(tmp_path, log, batch_max=128)
    results = proc.drain_all()
    assert sum(r.record_count for r in results) == 600

    # independent replay: each record's window and rules, one at a time,
    # over the per-partition streams in the order the batches poll them
    by_partition = {}
    for t in transactions:
        key = t.sender_bank_location
        by_partition.setdefault(fnv1a_64(key.encode()) % 3, []).append(t)
    rules = proc.rule_config
    windows = {}
    expected = []
    for partition in sorted(by_partition):
        for t in by_partition[partition]:
            window = windows.setdefault(t.sender_bank_location, deque())
            while window and window[0] <= ticks[t.id] - rules.velocity_window_ticks:
                window.popleft()
            window.append(ticks[t.id])
            for source in oracle_sources(t, len(window), rules):
                expected.append((t.id, source))

    got = [(a.transaction_id, a.source) for r in results for a in r.alerts]
    assert got == expected
    assert proc.alerts_emitted == len(got)


def test_alerts_are_durable_and_readable(tmp_path):
    log = fresh_log(tmp_path)
    for i in range(20):
        publish_transaction(log, "transactions", make_tx(i, payment_type="Cash Deposit"))
    proc = make_processor(tmp_path, log, rule_config=RuleConfig(enable_velocity=False))
    proc.drain_all()
    alerts = read_alerts(str(tmp_path / "alerts.jsonl"))
    assert len(alerts) == 20
    assert all(a.source == RULE_HIGH_RISK and a.score == 1.0 for a in alerts)
    assert sorted(a.transaction_id for a in alerts) == list(range(20))


def test_dead_letter_quarantines_poison_and_continues(tmp_path):
    log = fresh_log(tmp_path, partitions=1)
    publish_transaction(log, "transactions", make_tx(1, payment_type="Cash Deposit"))
    log.publish("transactions", b"UK", b"{not json")
    log.publish("transactions", b"UK", b'{"id": 9}')  # json but not a transaction
    publish_transaction(log, "transactions", make_tx(2, payment_type="Cash Deposit"))

    proc = make_processor(tmp_path, log)
    result = proc.drain_once()
    assert result.record_count == 4
    assert result.dead_letters == 2
    assert {a.transaction_id for a in result.alerts} == {1, 2}

    rows = [json.loads(line) for line in open(tmp_path / "dead.jsonl")]
    assert [(r["partition"], r["offset"]) for r in rows] == [(0, 1), (0, 2)]
    assert all(r["error"] for r in rows)

    # poisoned offsets are committed past, not redelivered
    assert proc.drain_once().record_count == 0


def test_overflowing_number_is_dead_lettered_alone(tmp_path):
    huge = transaction_to_json(make_tx(2)).replace('"timestamp":20,', '"timestamp":1e400,')
    assert "1e400" in huge
    log = fresh_log(tmp_path, partitions=1)
    publish_transaction(log, "transactions", make_tx(1, payment_type="Cash Deposit"))
    log.publish("transactions", b"UK", huge.encode())
    publish_transaction(log, "transactions", make_tx(3, payment_type="Cash Deposit"))

    proc = make_processor(tmp_path, log, rule_config=RuleConfig(enable_velocity=False))
    result = proc.drain_once()
    proc.close()
    assert result.record_count == 3
    assert [(a.transaction_id, a.source) for a in result.alerts] == [
        (1, RULE_HIGH_RISK), (3, RULE_HIGH_RISK),
    ]
    rows = [json.loads(line) for line in open(tmp_path / "dead.jsonl")]
    assert [(r["offset"], r["error"]) for r in rows] == [
        (1, "malformed transaction record: cannot convert float infinity to integer"),
    ]
    assert log.position("stream", "transactions", 0).committed_offset == 3
    assert proc.drain_once().record_count == 0


def test_non_finite_amount_is_dead_lettered_alone(tmp_path):
    log = fresh_log(tmp_path, partitions=1)
    publish_transaction(log, "transactions", make_tx(1, payment_type="Cash Deposit"))
    for tx_id, amount in ((2, "1e400"), (3, "NaN"), (4, "-Infinity")):
        payload = transaction_to_json(make_tx(tx_id, payment_type="Cash Deposit"))
        log.publish("transactions", b"UK", payload.replace('"amount":100.0', f'"amount":{amount}').encode())
    publish_transaction(log, "transactions", make_tx(5, payment_type="Cash Deposit"))

    proc = make_processor(tmp_path, log, rule_config=RuleConfig(enable_velocity=False))
    result = proc.drain_once()
    proc.close()
    assert result.record_count == 5
    assert [(a.transaction_id, a.source) for a in result.alerts] == [
        (1, RULE_HIGH_RISK), (5, RULE_HIGH_RISK),
    ]
    rows = [json.loads(line) for line in open(tmp_path / "dead.jsonl")]
    assert [(r["offset"], r["error"]) for r in rows] == [
        (1, "malformed transaction record: amount inf is not finite"),
        (2, "malformed transaction record: amount nan is not finite"),
        (3, "malformed transaction record: amount -inf is not finite"),
    ]
    assert log.position("stream", "transactions", 0).committed_offset == 5


def test_fractional_id_is_dead_lettered_alone(tmp_path):
    log = fresh_log(tmp_path, partitions=1)
    publish_transaction(log, "transactions", make_tx(1, payment_type="Cash Deposit"))
    payload = transaction_to_json(make_tx(2, payment_type="Cash Deposit"))
    log.publish("transactions", b"UK", payload.replace('"id":2,', '"id":2.5,').encode())
    publish_transaction(log, "transactions", make_tx(3, payment_type="Cash Deposit"))

    proc = make_processor(tmp_path, log, rule_config=RuleConfig(enable_velocity=False))
    result = proc.drain_once()
    proc.close()
    assert result.record_count == 3
    assert [(a.transaction_id, a.source) for a in result.alerts] == [
        (1, RULE_HIGH_RISK), (3, RULE_HIGH_RISK),
    ]
    rows = [json.loads(line) for line in open(tmp_path / "dead.jsonl")]
    assert [(r["offset"], r["error"]) for r in rows] == [
        (1, "malformed transaction record: id 2.5 is not an integer"),
    ]
    assert log.position("stream", "transactions", 0).committed_offset == 3


def test_id_outside_int64_is_dead_lettered_alone(tmp_path):
    log = fresh_log(tmp_path, partitions=1)
    publish_transaction(log, "transactions", make_tx(1, payment_type="Cash Deposit"))
    payload = transaction_to_json(make_tx(2, payment_type="Cash Deposit"))
    log.publish("transactions", b"UK", payload.replace('"id":2,', f'"id":{2**70},').encode())
    publish_transaction(log, "transactions", make_tx(3, payment_type="Cash Deposit"))

    proc = make_processor(tmp_path, log, rule_config=RuleConfig(enable_velocity=False))
    result = proc.drain_once()
    proc.close()
    assert result.record_count == 3
    assert [(a.transaction_id, a.source) for a in result.alerts] == [
        (1, RULE_HIGH_RISK), (3, RULE_HIGH_RISK),
    ]
    rows = [json.loads(line) for line in open(tmp_path / "dead.jsonl")]
    assert [(r["offset"], r["error"]) for r in rows] == [
        (1, f"malformed transaction record: id {2**70} is outside int64"),
    ]
    assert log.position("stream", "transactions", 0).committed_offset == 3


def test_torn_alert_and_dead_letter_tails_are_cut_on_restart(tmp_path):
    log = fresh_log(tmp_path, partitions=1)
    rules = RuleConfig(enable_velocity=False)

    def publish_round(first_id):
        for i in range(first_id, first_id + 100):
            publish_transaction(log, "transactions", make_tx(i, payment_type="Cash Deposit"))
        log.publish("transactions", b"UK", b"{not json")

    publish_round(0)
    proc = make_processor(tmp_path, log, rule_config=rules)
    proc.drain_all()
    proc.close()
    # a crash mid-write leaves the last line of each file without its newline
    with open(tmp_path / "alerts.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"score": 1.0, "source": "rule:high_ri')
    with open(tmp_path / "dead.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"error": "payload is not')

    publish_round(100)
    resumed = make_processor(tmp_path, log, rule_config=rules)
    resumed.drain_all()
    resumed.close()

    alerts = read_alerts(str(tmp_path / "alerts.jsonl"))
    assert sorted(a.transaction_id for a in alerts) == list(range(200))
    rows = [json.loads(line) for line in open(tmp_path / "dead.jsonl")]
    assert [r["offset"] for r in rows] == [100, 201]


def test_read_alerts_drops_torn_tail_and_names_file_on_bad_alert(tmp_path):
    path = tmp_path / "alerts.jsonl"
    alerts = [Alert(transaction_id=i, source=RULE_HIGH_RISK, score=1.0, tick=i) for i in range(3)]
    whole = "".join(
        json.dumps(
            {"alert_id": f"{i}:{RULE_HIGH_RISK}", "transaction_id": i, "source": RULE_HIGH_RISK,
             "score": 1.0, "tick": i},
            sort_keys=True,
        ) + "\n"
        for i in range(3)
    )
    path.write_text(whole + '{"score": 1.0, "sou')  # crash mid-append
    assert read_alerts(str(path)) == alerts
    assert path.read_text() == whole

    path.write_text(whole + '{"transaction_id": 9}\n' + whole)
    with pytest.raises(DataError, match=r"alerts\.jsonl"):
        read_alerts(str(path))


def test_commit_happens_after_alert_write(tmp_path, monkeypatch):
    log = fresh_log(tmp_path, partitions=1)
    for i in range(5):
        publish_transaction(log, "transactions", make_tx(i, payment_type="Cash Deposit"))
    proc = make_processor(tmp_path, log)

    def boom(rows):
        raise OSError("disk full")

    monkeypatch.setattr(proc._alert_writer, "append", boom)
    with pytest.raises(OSError):
        proc.drain_once()

    # nothing was committed, so a healthy processor sees every record again
    retry = make_processor(tmp_path, log, group="stream")
    result = retry.drain_once()
    assert result.record_count == 5
    assert len(result.alerts) == 5


def test_watermark_positions_advance_per_partition(tmp_path):
    log = fresh_log(tmp_path, partitions=4)
    config = GeneratorConfig(seed=5, count=200)
    for t in generate(config):
        publish_transaction(log, "transactions", t)
    proc = make_processor(tmp_path, log, batch_max=1000)
    result = proc.drain_once()
    for partition, offset in result.watermark.items():
        assert log.position("stream", "transactions", partition).committed_offset == offset + 1
    assert proc.drain_once().record_count == 0


def test_latency_measures_ticks_between_ingest_and_drain(tmp_path):
    log = fresh_log(tmp_path, partitions=1)
    publish_transaction(log, "transactions", make_tx(1))
    log.advance_ticks(7)
    proc = make_processor(tmp_path, log)
    result = proc.drain_once()
    assert result.latencies == [7]


def test_latency_summary_nearest_rank():
    assert latency_summary([5]) == (5, 5, 5)
    assert latency_summary(list(range(1, 101))) == (50, 95, 100)
    with pytest.raises(DataError):
        latency_summary([])


# ---------------------------------------------------------------------------
# model scoring in the stream
# ---------------------------------------------------------------------------

def scoring_fixture(tmp_path, bias):
    """Processor wired to a logistic model that scores everything at
    sigmoid(bias), over a schema built from a small generated pool."""
    pool = list(generate(GeneratorConfig(seed=11, count=400)))
    schema = build_schema(pool)
    model = train_logistic(
        np.zeros((6, schema.total_width)),
        np.array([True, False, True, False, True, False]),
        {"max_iters": 1},
        schema_hash=schema.schema_hash,
    )
    model.weights = np.zeros(schema.total_width)
    model.bias = bias
    log = fresh_log(tmp_path, partitions=2)
    proc = make_processor(
        tmp_path,
        log,
        model_source=lambda: (1, schema, model),
        rule_config=RuleConfig(enable_velocity=False),
    )
    return pool, schema, model, log, proc


def test_model_alerts_skip_rule_alerted_transactions(tmp_path):
    pool, schema, model, log, proc = scoring_fixture(tmp_path, bias=10.0)
    for t in pool[:100]:
        publish_transaction(log, "transactions", t)
    results = proc.drain_all()
    alerts = [a for r in results for a in r.alerts]
    by_tx = {}
    for a in alerts:
        by_tx.setdefault(a.transaction_id, []).append(a.source)
    assert len(by_tx) == 100  # bias 10 scores ~1.0: everything alerts somehow
    for sources in by_tx.values():
        has_rule = any(s.startswith("rule:") for s in sources)
        has_model = any(s.startswith("model:") for s in sources)
        assert has_rule != has_model  # model fills in only where rules were silent
    assert {s for sources in by_tx.values() for s in sources if s.startswith("model:")} == {
        "model:v1"
    }


def test_model_below_threshold_stays_silent(tmp_path):
    pool, schema, model, log, proc = scoring_fixture(tmp_path, bias=-10.0)
    for t in pool[:50]:
        publish_transaction(log, "transactions", t)
    alerts = [a for r in proc.drain_all() for a in r.alerts]
    assert all(a.source.startswith("rule:") for a in alerts)


def test_model_scores_match_single_record_scoring(tmp_path):
    pool = list(generate(GeneratorConfig(seed=12, count=300)))
    schema = build_schema(pool)
    X, _, _ = encode_matrix(pool[:200], schema)
    y = np.array([t.is_laundering or (i % 7 == 0) for i, t in enumerate(pool[:200])])
    model = train_tree(X, y, {"max_depth": 6}, schema_hash=schema.schema_hash)

    log = fresh_log(tmp_path, partitions=2)
    proc = make_processor(
        tmp_path,
        log,
        model_source=lambda: (3, schema, model),
        alert_threshold=0.4,
        rule_config=RuleConfig(enable_high_risk=False, enable_corridor=False, enable_velocity=False),
    )
    for t in pool[200:260]:
        publish_transaction(log, "transactions", t)
    alerts = [a for r in proc.drain_all() for a in r.alerts]

    from amlstream.models import predict_proba

    expected = {}
    for t in pool[200:260]:
        row, _, _ = encode_matrix([t], schema)
        p = float(predict_proba(model, row[0])[0])
        if p >= 0.4:
            expected[t.id] = p
    assert {a.transaction_id: a.score for a in alerts} == expected
    assert all(a.source == "model:v3" for a in alerts)


def test_forest_alerts_do_not_depend_on_batch_size(tmp_path):
    # a trigger that drains one record must score it exactly as a full
    # batch would: 50 trees average 50 leaf values per record
    pool = list(generate(GeneratorConfig(seed=15, count=700)))
    schema = build_schema(pool)
    X, _, _ = encode_matrix(pool[:500], schema)
    y = np.array([t.is_laundering or (i % 3 == 0) for i, t in enumerate(pool[:500])])
    model = train_forest(X, y, {"n_trees": 50, "min_leaf": 2}, schema_hash=schema.schema_hash, seed=5)
    log = fresh_log(tmp_path, partitions=2)
    for t in pool[500:]:
        publish_transaction(log, "transactions", t)
    lines = {}
    for batch_max in (1, 1000):
        proc = make_processor(
            tmp_path / str(batch_max),
            log,
            group=f"batch{batch_max}",
            batch_max=batch_max,
            alert_threshold=0.0,  # every record alerts with its score
            model_source=lambda: (1, schema, model),
            rule_config=RuleConfig(enable_high_risk=False, enable_corridor=False, enable_velocity=False),
        )
        proc.drain_all()
        proc.close()
        lines[batch_max] = (tmp_path / str(batch_max) / "alerts.jsonl").read_text().splitlines()
    assert len(lines[1]) == 200
    assert lines[1] == lines[1000]


def test_tree_model_scores_batches_from_codes_alone(tmp_path, monkeypatch):
    # neither one-hot rows nor a walk of the node arrays: leaf masks only,
    # with the scores of one-hot scoring, unseen categories included
    pool = list(generate(GeneratorConfig(seed=16, count=400)))
    schema = build_schema(pool)
    X, _, _ = encode_matrix(pool[:300], schema)
    y = np.array([t.is_laundering or (i % 3 == 0) for i, t in enumerate(pool[:300])])
    model = train_forest(X, y, {"n_trees": 20, "min_leaf": 2}, schema_hash=schema.schema_hash, seed=6)
    feed = pool[300:] + [
        dataclasses.replace(pool[0], id=10**6, payment_type="Barter"),
        dataclasses.replace(pool[1], id=10**6 + 1, sender_bank_location="Atlantis",
                            payment_currency="Shells"),
    ]
    want = predict_proba(model, encode_matrix(feed, schema)[0])
    log = fresh_log(tmp_path, partitions=2)
    for t in feed:
        publish_transaction(log, "transactions", t)
    proc = make_processor(
        tmp_path,
        log,
        alert_threshold=0.0,  # every record alerts with its score
        model_source=lambda: (1, schema, model),
        rule_config=RuleConfig(enable_high_risk=False, enable_corridor=False, enable_velocity=False),
    )

    def refuse(*args):
        raise AssertionError("the drain scored one-hot rows")

    monkeypatch.setattr(FieldCodes, "one_hot", refuse)
    monkeypatch.setattr(models, "_predict_flat", refuse)
    alerts = [a for r in proc.drain_all() for a in r.alerts]
    assert {a.transaction_id: a.score for a in alerts} == dict(zip([t.id for t in feed], want.tolist()))


def test_schema_mismatch_falls_back_to_rules(tmp_path):
    pool = list(generate(GeneratorConfig(seed=13, count=300)))
    schema = build_schema(pool)
    model = train_logistic(
        np.zeros((4, schema.total_width)),
        np.array([True, False, True, False]),
        {"max_iters": 1},
        schema_hash="0000000000000000",
    )
    model.bias = 10.0
    log = fresh_log(tmp_path, partitions=1)
    proc = make_processor(tmp_path, log, model_source=lambda: (1, schema, model))
    publish_transaction(log, "transactions", make_tx(1, payment_type="Cash Deposit"))
    publish_transaction(log, "transactions", make_tx(2))
    result = proc.drain_once()
    assert result.rules_only_fallback
    assert proc.schema_mismatch_count == 1
    assert [a.source for a in result.alerts] == [RULE_HIGH_RISK]
    # the consumer still makes progress
    assert proc.drain_once().record_count == 0


def test_model_swap_at_batch_boundary(tmp_path):
    pool = list(generate(GeneratorConfig(seed=14, count=200)))
    schema = build_schema(pool)

    def stub_model(bias):
        m = train_logistic(
            np.zeros((4, schema.total_width)),
            np.array([True, False, True, False]),
            {"max_iters": 1},
            schema_hash=schema.schema_hash,
        )
        m.weights = np.zeros(schema.total_width)
        m.bias = bias
        return m

    versions = [
        (1, schema, stub_model(10.0)),
        (2, schema, stub_model(-10.0)),
        (3, schema, stub_model(10.0)),
    ]
    current = {"value": versions[0]}
    log = fresh_log(tmp_path, partitions=1)
    proc = make_processor(
        tmp_path,
        log,
        model_source=lambda: current["value"],
        rule_config=RuleConfig(enable_high_risk=False, enable_corridor=False, enable_velocity=False),
    )

    publish_transaction(log, "transactions", make_tx(1))
    first = proc.drain_once()
    assert [a.source for a in first.alerts] == ["model:v1"]

    current["value"] = versions[1]
    publish_transaction(log, "transactions", make_tx(2))
    second = proc.drain_once()
    assert second.alerts == []  # v2 scores everything near zero

    current["value"] = versions[2]
    publish_transaction(log, "transactions", make_tx(3))
    third = proc.drain_once()
    assert [a.source for a in third.alerts] == ["model:v3"]


def test_replay_of_same_log_is_deterministic(tmp_path):
    config = GeneratorConfig(seed=99, count=400)
    runs = []
    for run in range(2):
        base = tmp_path / f"run{run}"
        base.mkdir()
        log = EventLog(str(base / "log"))
        log.create_topic("transactions", partition_count=2)
        for t in generate(config):
            publish_transaction(log, "transactions", t)
        proc = make_processor(base, log, batch_max=97)
        proc.drain_all()
        runs.append(sorted((a.transaction_id, a.source) for a in read_alerts(str(base / "alerts.jsonl"))))
    assert runs[0] == runs[1]


def test_drain_builds_no_log_record(tmp_path, monkeypatch):
    log = fresh_log(tmp_path, partitions=3)
    for i, t in enumerate(generate(GeneratorConfig(seed=21, count=500))):
        publish_transaction(log, "transactions", t)
        if i % 97 == 0:
            log.publish("transactions", b"UK", b"{not json")

    def drained(group):
        proc = make_processor(tmp_path / group, log, group=group, batch_max=64)
        alerts = [(a.transaction_id, a.source, a.score, a.tick)
                  for r in proc.drain_all() for a in r.alerts]
        proc.close()
        return alerts, (tmp_path / group / "dead.jsonl").read_bytes()

    expected = drained("first")

    def no_log_record(*args):
        raise AssertionError("the drain built a LogRecord")

    monkeypatch.setattr(eventlog, "LogRecord", no_log_record)
    assert drained("second") == expected
    assert expected[0] and expected[1].count(b"\n") == 6


def test_decode_payload_round_trip(tmp_path):
    # every field the rules read comes back from the payload as published
    tx = make_tx(
        42,
        payment_type="ACH",
        payment_currency="GBP",
        received_currency="EUR",
        sender="UK",
        receiver="France",
        laundering=True,
    )
    [sources] = drain_sources(tmp_path, [tx], RuleConfig(high_risk_types=frozenset({"ACH"})))
    assert sources == [[RULE_HIGH_RISK, RULE_CORRIDOR]]


# sha256 of the dead-letter and alert journals that the parent of the
# columnar drain wrote for the mixed batch below
MIXED_DEAD_LETTER_SHA256 = "d6e2a82bce440bbfc5ad9a18b9f12c98e425ba3075dceefd3dd444254e3942b8"
MIXED_ALERTS_SHA256 = "97e8ed13e581df5df2932c0e29ea2493c9f48c677af1d6c4f5522115f35f53af"


def test_mixed_batch_dead_letters_each_bad_record_alone(tmp_path):
    good = json.loads(transaction_to_json(make_tx(99)))
    no_label = {k: v for k, v in good.items() if k != "is_laundering"}
    bad = [
        [b"\xff\xfe"],
        [b"{not json"],
        [b"[1, 2]"],
        [json.dumps(no_label).encode()],
        [json.dumps(dict(good, id="x")).encode()],
        # joined with a comma, this pair would parse as {"k":","}
        [b'{"k":"', b'"}'],
    ]
    log = fresh_log(tmp_path, partitions=1)
    for i, payloads in enumerate(bad, start=1):
        publish_transaction(log, "transactions", make_tx(i, payment_type="Cash Deposit"))
        for payload in payloads:
            log.publish("transactions", b"UK", payload)
    publish_transaction(log, "transactions", make_tx(7, payment_type="Cash Deposit"))

    proc = make_processor(tmp_path, log)
    result = proc.drain_once()
    proc.close()
    assert result.record_count == 14
    assert result.dead_letters == 7
    rows = [json.loads(line) for line in open(tmp_path / "dead.jsonl")]
    assert [(r["offset"], r["error"]) for r in rows] == [
        (1, "payload is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte"),
        (3, "payload is not valid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)"),
        (5, "payload is not a JSON object"),
        (7, "record is missing the is_laundering field"),
        (9, "malformed transaction record: invalid literal for int() with base 10: 'x'"),
        (11, "payload is not valid JSON: Unterminated string starting at: line 1 column 6 (char 5)"),
        (12, "payload is not valid JSON: Unterminated string starting at: line 1 column 1 (char 0)"),
    ]
    assert hashlib.sha256((tmp_path / "dead.jsonl").read_bytes()).hexdigest() == MIXED_DEAD_LETTER_SHA256
    # the good records alert as they would without the bad ones between them
    assert [(a.transaction_id, a.source) for a in result.alerts] == [
        *[(i, RULE_HIGH_RISK) for i in range(1, 6)],
        (6, RULE_HIGH_RISK), (6, RULE_VELOCITY),
        (7, RULE_HIGH_RISK), (7, RULE_VELOCITY),
    ]
    assert hashlib.sha256((tmp_path / "alerts.jsonl").read_bytes()).hexdigest() == MIXED_ALERTS_SHA256
    assert log.position("stream", "transactions", 0).committed_offset == 14


def test_empty_label_and_boolean_numbers_are_dead_lettered_alone(tmp_path):
    good = json.loads(transaction_to_json(make_tx(99)))
    bad = [dict(good, is_laundering=""), dict(good, id=True), dict(good, amount=False)]
    log = fresh_log(tmp_path, partitions=1)
    publish_transaction(log, "transactions", make_tx(1, payment_type="Cash Deposit"))
    for payload in bad:
        log.publish("transactions", b"UK", json.dumps(payload).encode())
    publish_transaction(log, "transactions", make_tx(2, payment_type="Cash Deposit"))

    proc = make_processor(tmp_path, log)
    result = proc.drain_once()
    proc.close()
    assert (result.record_count, result.dead_letters) == (5, 3)
    rows = [json.loads(line) for line in open(tmp_path / "dead.jsonl")]
    assert [(r["offset"], r["error"]) for r in rows] == [
        (1, "unparseable laundering label: ''"),
        (2, "malformed transaction record: id True is not an integer"),
        (3, "malformed transaction record: amount False is not a number"),
    ]
    assert [(a.transaction_id, a.source) for a in result.alerts] == [
        (1, RULE_HIGH_RISK), (2, RULE_HIGH_RISK),
    ]


def test_a_batch_commits_with_one_fsynced_append_after_its_alerts(tmp_path, monkeypatch):
    log = fresh_log(tmp_path, partitions=4)
    records = list(generate(GeneratorConfig(seed=5, count=400)))
    for t in records[:200]:
        publish_transaction(log, "transactions", t)
    proc = make_processor(tmp_path, log, batch_max=1000)
    proc.drain_once()  # the topic's first commit writes positions.jsonl whole
    for t in records[200:]:
        publish_transaction(log, "transactions", t)
    log.flush()
    positions = tmp_path / "log" / "transactions" / eventlog.POSITIONS_NAME
    alerts = tmp_path / "alerts.jsonl"
    before = positions.read_bytes()
    names = {path.stat().st_ino: path.name for path in (positions, alerts)}
    replaced, fsynced = [], []
    real_replace, real_fsync = os.replace, os.fsync

    def recording_replace(src, dst):
        replaced.append(os.path.basename(dst))
        real_replace(src, dst)

    def recording_fsync(fd):
        st = os.fstat(fd)
        fsynced.append((names.get(st.st_ino), st.st_size))
        real_fsync(fd)

    monkeypatch.setattr(os, "replace", recording_replace)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    result = proc.drain_once()
    proc.close()
    assert sorted(result.watermark) == [0, 1, 2, 3]
    assert result.alerts
    assert replaced == []
    after = positions.read_bytes()
    assert after.startswith(before)
    assert json.loads(after[len(before):]) == {
        "group": "stream",
        "next": {str(p): offset + 1 for p, offset in result.watermark.items()},
    }
    # the alert lines are fsynced first, then the appended commit line
    assert fsynced == [("alerts.jsonl", alerts.stat().st_size), ("positions.jsonl", len(after))]
