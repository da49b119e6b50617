"""Feature store tests: schema/encode, split, oversample, analytics."""

import datetime
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amlstream
from amlstream.errors import DataError, DegenerateClassError, SchemaMismatchError
from amlstream.featstore import (
    FEATURE_FIELDS,
    EncodingSchema,
    alerts_per_month,
    build_schema,
    correlation_from_arrays,
    encode_codes,
    encode_matrix,
    month_of_day,
    oversample_indices,
    payment_type_table,
    seasonality_series,
    split_indices,
    split_sizes,
    transaction_columns,
)
from amlstream.txgen import GeneratorConfig, Transaction, generate


def make_tx(
    id=1,
    day=1,
    amount=100.0,
    pay_cur="GBP",
    recv_cur="GBP",
    s_loc="UK",
    r_loc="UK",
    ptype="ACH",
    fraud=False,
):
    return Transaction(
        id=id,
        timestamp=(day - 1) * 86_400,
        amount=amount,
        payment_currency=pay_cur,
        received_currency=recv_cur,
        sender_bank_location=s_loc,
        receiver_bank_location=r_loc,
        payment_type=ptype,
        is_laundering=fraud,
    )


@pytest.fixture(scope="module")
def sample_transactions():
    return list(generate(GeneratorConfig(seed=31, count=30_000)))


@pytest.fixture(scope="module")
def sample_schema(sample_transactions):
    return build_schema(sample_transactions)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def test_schema_from_default_generator_has_expected_widths(sample_schema):
    widths = {f: len(v) for f, v in sample_schema.vocabularies.items()}
    assert widths == {
        "payment_currency": 12,
        "received_currency": 12,
        "sender_bank_location": 15,
        "receiver_bank_location": 15,
        "payment_type": 7,
    }
    assert sample_schema.total_width == 61
    assert len(sample_schema.column_names()) == 61


def test_schema_is_shuffle_invariant(sample_transactions):
    shuffled = list(sample_transactions)
    random.Random(4).shuffle(shuffled)
    a = build_schema(sample_transactions)
    b = build_schema(shuffled)
    assert a.vocabularies == b.vocabularies
    assert a.schema_hash == b.schema_hash


def test_schema_hash_tracks_vocabulary_changes(sample_transactions):
    base = build_schema(sample_transactions)
    extra = sample_transactions + [make_tx(id=10**9, pay_cur="XXX")]
    changed = build_schema(extra)
    assert changed.schema_hash != base.schema_hash
    assert len(changed.schema_hash) == 16  # 64-bit hex digest


def test_schema_empty_input_raises():
    with pytest.raises(DataError):
        build_schema([])


def test_schema_json_round_trip(sample_schema):
    back = EncodingSchema.from_json(sample_schema.to_json())
    assert back == sample_schema
    tampered = sample_schema.to_json().replace(
        sample_schema.schema_hash, "0" * 16
    )
    with pytest.raises(SchemaMismatchError):
        EncodingSchema.from_json(tampered)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_encode_has_one_hot_per_block(sample_transactions, sample_schema):
    subset = sample_transactions[:200]
    X, y, unseen = encode_matrix(subset, sample_schema)
    assert unseen == 0
    assert set(np.unique(X)) <= {0.0, 1.0}
    assert np.array_equal(y, [t.is_laundering for t in subset])
    names = sample_schema.column_names()
    for row, t in zip(X, subset):
        assert row.sum() == 5.0
        hot = sorted(names[i] for i in np.flatnonzero(row))
        assert hot == sorted(f"{f}={getattr(t, f)}" for f in FEATURE_FIELDS)


def test_encode_unseen_category_zero_block_and_counter(sample_schema):
    X, _, unseen = encode_matrix([make_tx(pay_cur="ZZZ")], sample_schema)
    assert unseen == 1
    assert X[0].sum() == 4.0
    start = 0  # payment_currency's block comes first
    width = len(sample_schema.vocabularies["payment_currency"])
    assert not X[0, start : start + width].any()


def one_hot_oracle(t, column: dict) -> np.ndarray:
    """Encode one record by looking up each field's column name."""
    row = np.zeros(len(column))
    for f in FEATURE_FIELDS:
        i = column.get(f"{f}={getattr(t, f)}")
        if i is not None:
            row[i] = 1.0
    return row


def test_encode_matrix_matches_single_encode(sample_transactions, sample_schema):
    subset = sample_transactions[:500] + [make_tx(id=10**9, recv_cur="???")]
    X, y, unseen = encode_matrix(subset, sample_schema)
    assert unseen == 1
    column = {name: i for i, name in enumerate(sample_schema.column_names())}
    for t, row, label in zip(subset, X, y):
        assert np.array_equal(row, one_hot_oracle(t, column))
        assert label == t.is_laundering


def test_encode_codes_stand_for_the_encoded_matrix(sample_transactions, sample_schema):
    subset = sample_transactions[:300] + [
        make_tx(id=10**9, recv_cur="???"),
        make_tx(id=10**9 + 1, s_loc="Atlantis", ptype="Barter"),
    ]
    codes = encode_codes([[getattr(t, f) for t in subset] for f in FEATURE_FIELDS], sample_schema)
    X, _, unseen = encode_matrix(subset, sample_schema)
    assert codes.sizes == tuple(len(sample_schema.vocabularies[f]) for f in FEATURE_FIELDS)
    assert codes.codes.shape == (5, len(subset))
    assert np.count_nonzero(codes.codes < 0) == unseen == 3
    assert codes.codes[1, -2] == codes.codes[2, -1] == codes.codes[4, -1] == -1
    assert np.array_equal(codes.one_hot(), X)
    empty = encode_codes([[] for _ in FEATURE_FIELDS], sample_schema)
    assert empty.codes.shape == (5, 0) and empty.one_hot().shape == (0, sample_schema.total_width)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_sizes_reference_dataset():
    # floor arithmetic on the 9,504,852-row reference dataset
    assert split_sizes(9_504_852) == (5_702_911, 1_900_970, 1_900_971)
    assert split_sizes(10) == (6, 2, 2)


def test_split_indices_partition_everything():
    train, val, test = split_indices(1_000, seed=3)
    assert len(train) == 600 and len(val) == 200 and len(test) == 200
    combined = np.concatenate([train, val, test])
    assert np.array_equal(np.sort(combined), np.arange(1_000))


def test_split_deterministic_and_seed_sensitive():
    a = split_indices(500, seed=7)
    b = split_indices(500, seed=7)
    c = split_indices(500, seed=8)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_split_too_small_raises():
    with pytest.raises(DataError):
        split_indices(4, seed=1)


def test_split_on_vectors(sample_transactions, sample_schema):
    X, y, _ = encode_matrix(sample_transactions[:100], sample_schema)
    train, val, test = split_indices(len(X), seed=5)
    assert len(train) == 60 and len(val) == 20 and len(test) == 20
    # membership is preserved: every encoded row lands in exactly one part
    def keys(idx):
        return [tuple(X[i].nonzero()[0]) + (bool(y[i]),) for i in idx]

    assert sorted(keys(train) + keys(val) + keys(test)) == sorted(keys(range(100)))


# ---------------------------------------------------------------------------
# oversampling
# ---------------------------------------------------------------------------

def test_oversample_balances_to_parity():
    labels = np.array([False] * 990 + [True] * 10)
    idx = oversample_indices(labels, seed=2)
    out = labels[idx]
    assert (out == True).sum() == 990  # noqa: E712
    assert (out == False).sum() == 990  # noqa: E712
    # all originals survive, extras are copies of minority rows
    assert np.array_equal(idx[:1000], np.arange(1000))
    assert set(idx[1000:]) <= set(range(990, 1000))


def test_oversample_balanced_input_is_identity():
    labels = np.array([True] * 50 + [False] * 50)
    assert np.array_equal(oversample_indices(labels, seed=9), np.arange(100))


def test_oversample_deterministic():
    labels = np.array([False] * 300 + [True] * 7)
    a = oversample_indices(labels, seed=4)
    b = oversample_indices(labels, seed=4)
    c = oversample_indices(labels, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_oversample_single_class_raises():
    with pytest.raises(DegenerateClassError):
        oversample_indices(np.array([True, True, True]), seed=1)


def test_oversample_on_vectors(sample_transactions, sample_schema):
    # force a 5/45 imbalance regardless of the generated labels
    X, _, _ = encode_matrix(sample_transactions[:50], sample_schema)
    y = np.arange(50) % 10 == 0
    idx = oversample_indices(y, seed=11)
    Xo, yo = X[idx], y[idx]
    assert Xo.shape == (90, X.shape[1])
    assert yo.sum() == (~yo).sum() == 45


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

def two_pass_correlation_oracle(M: np.ndarray) -> np.ndarray:
    """Direct two-pass covariance/correlation, no shortcuts."""
    n, k = M.shape
    means = [sum(M[:, j]) / n for j in range(k)]
    cov = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            cov[a, b] = sum(
                (M[i, a] - means[a]) * (M[i, b] - means[b]) for i in range(n)
            )
    out = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            denom = np.sqrt(cov[a, a] * cov[b, b])
            out[a, b] = cov[a, b] / denom if denom > 0 else 0.0
    for a in range(k):
        if cov[a, a] > 0:
            out[a, a] = 1.0
    return out


def test_correlation_matches_two_pass_oracle():
    rng = np.random.Generator(np.random.PCG64(13))
    X = rng.random((100, 8))
    labels = rng.random(100) > 0.5
    result = correlation_from_arrays(X, labels)
    oracle = two_pass_correlation_oracle(
        np.column_stack([X, labels.astype(np.float64)])
    )
    assert np.max(np.abs(result.matrix - oracle)) < 1e-10
    assert result.constant_columns == ()
    assert np.allclose(result.matrix, result.matrix.T)
    assert np.allclose(np.diag(result.matrix), 1.0)


def test_correlation_flags_constant_columns():
    rng = np.random.Generator(np.random.PCG64(14))
    X = rng.random((50, 4))
    X[:, 2] = 0.75  # constant
    result = correlation_from_arrays(X, rng.random(50) > 0.5)
    assert 2 in result.constant_columns
    assert np.all(result.matrix[2, :] == 0.0)
    assert np.all(result.matrix[:, 2] == 0.0)


def test_correlation_leaves_numpy_ma_unimported():
    # numpy.ma costs tens of ms to import, and nothing the CLI runs needs it
    code = (
        "import sys, numpy as np, amlstream.cli\n"
        "from amlstream.featstore import correlation_from_arrays\n"
        "correlation_from_arrays(np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([True, False]))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(amlstream.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "False"


def test_correlation_requires_two_rows(sample_schema):
    X, y, _ = encode_matrix([make_tx()], sample_schema)
    with pytest.raises(DataError):
        correlation_from_arrays(X, y)


# ---------------------------------------------------------------------------
# report datasets
# ---------------------------------------------------------------------------

def test_payment_type_table_reference_row():
    # the dominant-fraud row of the reference ledger: 1405 of 225,206 -> 0.62%
    txns = [make_tx(id=i, ptype="Cash Deposit", fraud=(i < 1_405)) for i in range(225_206)]
    row = payment_type_table(txns)[0]
    assert (row.count, row.fraud_count, row.fraud_percent) == (225_206, 1_405, 0.62)


def test_payment_type_table_rounds_half_up():
    # 10 / 1600 = 0.625% -> 0.63 under half-up (0.62 under banker's)
    txns = [make_tx(id=i, fraud=(i < 10)) for i in range(1_600)]
    assert payment_type_table(txns)[0].fraud_percent == 0.63


def test_payment_type_table_sorted_by_count_desc():
    txns = (
        [make_tx(id=i, ptype="ACH") for i in range(5)]
        + [make_tx(id=100 + i, ptype="Cheque") for i in range(9)]
        + [make_tx(id=200 + i, ptype="Cash Deposit") for i in range(2)]
    )
    rows = payment_type_table(txns)
    assert [r.payment_type for r in rows] == ["Cheque", "ACH", "Cash Deposit"]
    assert [r.count for r in rows] == [9, 5, 2]
    assert all(r.fraud_percent == 0.0 for r in rows)


def test_seasonality_series_averages_and_missing_marker():
    txns = [
        make_tx(id=1, day=10, amount=100.0, fraud=False),
        make_tx(id=2, day=10, amount=300.0, fraud=True),
        make_tx(id=3, day=11, amount=50.0, fraud=False),
    ]
    columns = transaction_columns(txns)
    series = seasonality_series(columns["timestamp"], columns["amount"], columns["is_laundering"])
    assert [d.day for d in series] == [10, 11]
    assert series[0].avg_amount_all == 200.0
    assert series[0].avg_amount_fraud == 300.0
    assert series[1].avg_amount_fraud is None  # no fraud that day


def test_seasonality_series_adds_each_day_in_row_order():
    # the report's bytes depend on the float sums adding rows in key order
    txns = list(generate(GeneratorConfig(seed=3, count=5_000)))
    columns = transaction_columns(txns)
    series = seasonality_series(columns["timestamp"], columns["amount"], columns["is_laundering"])
    sums = {}
    for t in txns:
        entry = sums.setdefault(t.day, [0.0, 0, 0.0, 0])
        entry[0] += t.amount
        entry[1] += 1
        if t.is_laundering:
            entry[2] += t.amount
            entry[3] += 1
    assert [(d.day, d.avg_amount_all, d.avg_amount_fraud) for d in series] == [
        (day, total / n, fraud_total / fraud_n if fraud_n else None)
        for day, (total, n, fraud_total, fraud_n) in sorted(sums.items())
    ]


def test_month_of_day_matches_calendar_oracle():
    jan1 = datetime.date(2023, 1, 1)
    for day in range(1, 366):
        want = (jan1 + datetime.timedelta(days=day - 1)).month
        assert month_of_day(day) == want, day
    assert month_of_day(366) == 1  # wraps into the next simulated year


def grid_of(alerted, txns):
    """alerts_per_month of alerts on the ids ``alerted`` over ``txns``."""
    columns = transaction_columns(txns)
    return alerts_per_month(
        np.array(alerted, dtype=np.int64), columns["id"], columns["timestamp"], columns["payment_type"]
    )


def test_alerts_per_month_accounting():
    txns = [
        make_tx(id=1, day=5, ptype="ACH"),
        make_tx(id=2, day=40, ptype="Cheque"),
        make_tx(id=3, day=40, ptype="ACH"),
        make_tx(id=4, day=364, ptype="Cheque"),
    ]
    alerts = [1, 2, 2, 4]
    grid = grid_of(alerts, txns)
    assert int(grid.counts.sum()) == len(alerts)
    assert grid.counts.shape == (12, 2)
    ach, cheque = grid.payment_types.index("ACH"), grid.payment_types.index("Cheque")
    assert grid.counts[0, ach] == 1  # day 5 -> January
    assert grid.counts[1, cheque] == 2  # day 40 -> February
    assert grid.counts[11, cheque] == 1  # day 364 -> December


def test_alerts_per_month_zero_alerts():
    grid = grid_of([], [make_tx(id=1)])
    assert np.all(grid.counts == 0)


def test_alerts_per_month_unknown_transaction():
    with pytest.raises(DataError, match="unknown transaction id 99"):
        grid_of([1, 99], [make_tx(id=1)])
