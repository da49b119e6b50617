"""Benchmark fixture tests: planted signal shape and determinism."""

import pytest

from fixtures import (
    BACKGROUND_RATE,
    CORE_RATE,
    FRAUD_CORRIDORS,
    XOR_RATE,
    build_signal_dataset,
    planted_fraud_probability,
    relabel,
)
from amlstream.txgen import GeneratorConfig, generate


def rate(rows):
    return sum(t.is_laundering for t in rows) / len(rows)


@pytest.fixture(scope="module")
def dataset():
    return build_signal_dataset(count=60_000, seed=13)


def test_prevalence_band(dataset):
    # core is ~8% of mass at 97%, plus the corridors and background
    assert 0.06 < rate(dataset) < 0.10


def test_core_rule_rate(dataset):
    core = [t for t in dataset if t.received_currency != "GBP"]
    assert len(core) > 3_000
    assert rate(core) == pytest.approx(CORE_RATE, abs=0.02)


def test_fraud_corridor_rates(dataset):
    for sender, receiver in FRAUD_CORRIDORS:
        cell = [
            t
            for t in dataset
            if t.sender_bank_location == sender
            and t.receiver_bank_location == receiver
            and t.received_currency == "GBP"
        ]
        assert len(cell) > 30
        assert rate(cell) == pytest.approx(XOR_RATE, abs=0.08)


def test_off_diagonal_corridors_stay_clean(dataset):
    for sender, receiver in (("Italy", "Japan"), ("Netherlands", "Canada")):
        cell = [
            t
            for t in dataset
            if t.sender_bank_location == sender
            and t.receiver_bank_location == receiver
            and t.received_currency == "GBP"
        ]
        assert len(cell) > 30
        assert rate(cell) < 0.03  # background only


def test_background_rate(dataset):
    quiet = [
        t
        for t in dataset
        if t.received_currency == "GBP"
        and (t.sender_bank_location, t.receiver_bank_location) not in FRAUD_CORRIDORS
    ]
    assert rate(quiet) == pytest.approx(BACKGROUND_RATE, abs=0.002)


def test_scalar_probability_matches_label_assignment(dataset):
    for t in dataset[:2_000]:
        p = planted_fraud_probability(t)
        if t.received_currency != "GBP":
            assert p == CORE_RATE
        elif (t.sender_bank_location, t.receiver_bank_location) in FRAUD_CORRIDORS:
            assert p == XOR_RATE
        else:
            assert p == BACKGROUND_RATE


def test_relabel_is_deterministic_and_seed_sensitive():
    base = list(generate(GeneratorConfig(seed=5, count=5_000)))
    a = relabel(base, 5)
    b = relabel(base, 5)
    c = relabel(base, 6)
    assert [t.is_laundering for t in a] == [t.is_laundering for t in b]
    assert [t.is_laundering for t in a] != [t.is_laundering for t in c]


def test_relabel_preserves_everything_but_labels():
    base = list(generate(GeneratorConfig(seed=5, count=1_000)))
    labeled = relabel(base, 5)
    for before, after in zip(base, labeled):
        assert before.id == after.id
        assert before.timestamp == after.timestamp
        assert before.amount == after.amount
        assert before.payment_type == after.payment_type
        assert before.sender_bank_location == after.sender_bank_location


def test_dataset_is_reproducible():
    a = build_signal_dataset(count=2_000, seed=13)
    b = build_signal_dataset(count=2_000, seed=13)
    assert a == b
