"""Batch feature engineering and dataset analytics.

One-hot encodes the five categorical transaction fields against
deterministic schemas (vocabularies sorted lexicographically), splits
datasets 60/20/20 by seeded shuffle, balances training data by random
oversampling, and computes the tabular/plot datasets the report command
writes (payment-type table, daily seasonality, alerts-per-month grid,
correlation matrix). Training and the report read the transactions
table as columns (storage.TableStore.columns, or transaction_columns for
a list held in memory), each string field as codes into its sorted
vocabulary: the report datasets are np.bincount calls over those
columns, and encode_matrix one-hot encodes codes by looking each
vocabulary up once. The stream scores its batches of values from their
category codes instead (encode_codes). The alerts-per-month grid dates
each transaction by txgen's calendar_date, through a month table built
once.

Schema identity: schema_hash is the first 8 bytes (hex) of BLAKE2b over
the canonical JSON of the ordered vocabularies. Models remember the
hash of the schema they were trained against; scoring paths compare
hashes before trusting a vector's layout.

Unknown categories at encode time get code -1, which stands for an
all-zero block for that feature, instead of failing: the speed layer
must keep scoring even when live traffic drifts away from the training
vocabulary. encode_matrix counts them in the unseen count it returns.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, DegenerateClassError, SchemaMismatchError
from .models import FieldCodes
from .storage import Categories, to_columns
from .txgen import (
    DAY_SECONDS,
    TRANSACTION_ROWS,
    YEAR_DAYS,
    Transaction,
    calendar_date,
    transaction_values,
)

FEATURE_FIELDS = (
    "payment_currency",
    "received_currency",
    "sender_bank_location",
    "receiver_bank_location",
    "payment_type",
)

TRAIN_FRACTION = 0.6
VALIDATION_FRACTION = 0.2

# calendar month of each day of the simulated year, built once so the
# alerts' lookup is one gather
_MONTHS = np.array([calendar_date(day).month for day in range(1, YEAR_DAYS + 1)])


def month_of_day(day):
    """Calendar month (1..12) of a simulated day index, or of an array of
    them, as txgen's calendar_date gives it; wraps every YEAR_DAYS days."""
    return _MONTHS[(day - 1) % YEAR_DAYS]


def transaction_columns(transactions: Sequence[Transaction]) -> dict:
    """A list of transactions as the columns the transactions table reads
    as (storage.to_columns)."""
    return to_columns(TRANSACTION_ROWS, [transaction_values(t) for t in transactions])


@dataclass(frozen=True)
class EncodingSchema:
    vocabularies: dict[str, tuple[str, ...]]
    total_width: int
    schema_hash: str

    @functools.cached_property
    def _codes(self) -> tuple[dict[str, int], ...]:
        """Per feature, in FEATURE_FIELDS order, each vocabulary value's
        code, its place in the vocabulary; built once per schema object."""
        return tuple(
            {value: i for i, value in enumerate(self.vocabularies[f])} for f in FEATURE_FIELDS
        )

    @functools.cached_property
    def sizes(self) -> tuple[int, ...]:
        """Each feature's vocabulary size, in FEATURE_FIELDS order."""
        return tuple(len(self.vocabularies[f]) for f in FEATURE_FIELDS)

    def column_names(self) -> list[str]:
        names = []
        for feature in FEATURE_FIELDS:
            for code in self.vocabularies[feature]:
                names.append(f"{feature}={code}")
        return names

    def to_json(self) -> str:
        return json.dumps(
            {
                "vocabularies": {f: list(v) for f, v in self.vocabularies.items()},
                "total_width": self.total_width,
                "schema_hash": self.schema_hash,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "EncodingSchema":
        data = json.loads(text)
        vocabs = {f: tuple(v) for f, v in data["vocabularies"].items()}
        schema = _schema_from_vocabularies(vocabs)
        if schema.schema_hash != data.get("schema_hash"):
            raise SchemaMismatchError(
                "schema file hash does not match its vocabularies"
            )
        return schema


def _canonical_vocab_json(vocabs: dict[str, tuple[str, ...]]) -> str:
    return json.dumps(
        [[f, list(vocabs[f])] for f in FEATURE_FIELDS], separators=(",", ":")
    )


def _schema_from_vocabularies(vocabs: dict[str, tuple[str, ...]]) -> EncodingSchema:
    for feature in FEATURE_FIELDS:
        if feature not in vocabs:
            raise DataError(f"schema is missing feature {feature!r}")
    digest = hashlib.blake2b(
        _canonical_vocab_json(vocabs).encode(), digest_size=8
    ).hexdigest()
    return EncodingSchema(
        vocabularies={f: tuple(vocabs[f]) for f in FEATURE_FIELDS},
        total_width=sum(len(vocabs[f]) for f in FEATURE_FIELDS),
        schema_hash=digest,
    )


def build_schema(transactions: Sequence[Transaction]) -> EncodingSchema:
    """Sorted distinct vocabulary per categorical feature.

    Input order never matters: vocabularies are sorted, so shuffled
    copies of the same dataset produce identical schemas and hashes.
    """
    if not transactions:
        raise DataError("cannot build a schema from an empty dataset")
    seen: dict[str, set] = {f: set() for f in FEATURE_FIELDS}
    for t in transactions:
        for f in FEATURE_FIELDS:
            seen[f].add(getattr(t, f))
    vocabs = {f: tuple(sorted(seen[f])) for f in FEATURE_FIELDS}
    return _schema_from_vocabularies(vocabs)


def schema_of_columns(columns) -> EncodingSchema:
    """build_schema of a table read as columns: each feature's vocabulary
    is its Categories' vocabulary, the distinct values, sorted."""
    if not len(columns[FEATURE_FIELDS[0]].codes):
        raise DataError("cannot build a schema from an empty dataset")
    return _schema_from_vocabularies({f: columns[f].vocabulary for f in FEATURE_FIELDS})


def encode_codes(columns, schema: EncodingSchema) -> FieldCodes:
    """A batch held as columns, one sequence of values per FEATURE_FIELDS
    entry in that order, as the codes of its values in the schema's
    vocabularies, -1 for an unseen value. Never raises on data values."""
    n = len(columns[0])
    codes = np.empty((len(FEATURE_FIELDS), n), dtype=np.int64)
    for row, lookup, column in zip(codes, schema._codes, columns):
        row[:] = np.fromiter(map(lookup.get, column, repeat(-1, n)), np.int64, n)
    return FieldCodes(codes, schema.sizes)


def encode_matrix(transactions, schema: EncodingSchema) -> tuple[np.ndarray, np.ndarray, int]:
    """One-hot encode transactions, held as a list or as the columns the
    transactions table reads as: returns (X, labels, unseen_count).

    Each in-vocabulary value sets one 1.0 in its feature block; an unseen
    category leaves its block all-zero and adds one to unseen_count. Each
    feature's vocabulary is looked up once and its codes gathered.
    """
    if isinstance(transactions, dict):
        features = [transactions[f] for f in FEATURE_FIELDS]
        labels = transactions["is_laundering"]
    else:
        features = [Categories.of([getattr(t, f) for t in transactions]) for f in FEATURE_FIELDS]
        labels = np.array([t.is_laundering for t in transactions], dtype=bool)
    codes = np.empty((len(FEATURE_FIELDS), len(labels)), dtype=np.int64)
    for row, lookup, column in zip(codes, schema._codes, features):
        vocabulary_codes = np.array([lookup.get(v, -1) for v in column.vocabulary], dtype=np.int64)
        vocabulary_codes.take(column.codes, out=row)
    unseen = int(np.count_nonzero(codes < 0))
    return FieldCodes(codes, schema.sizes).one_hot(), labels, unseen


# ---------------------------------------------------------------------------
# splitting and balancing
# ---------------------------------------------------------------------------

def split_sizes(n: int) -> tuple[int, int, int]:
    train = math.floor(n * TRAIN_FRACTION)
    validation = math.floor(n * VALIDATION_FRACTION)
    return train, validation, n - train - validation


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded shuffle then contiguous 60/20/20 slices over range(n)."""
    if n < 5:
        raise DataError(f"dataset of {n} rows is too small to split 60/20/20")
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    n_train, n_val, _ = split_sizes(n)
    return (
        perm[:n_train],
        perm[n_train : n_train + n_val],
        perm[n_train + n_val :],
    )


def oversample_indices(labels: np.ndarray, seed: int) -> np.ndarray:
    """Index array balancing classes: all originals plus sampled minority.

    The minority class is resampled with replacement until both classes
    have equal counts. Already-balanced input comes back as the identity
    (range(n)): no draws at all.
    """
    labels = np.asarray(labels, dtype=bool)
    n = labels.shape[0]
    pos = np.flatnonzero(labels)
    neg = np.flatnonzero(~labels)
    if pos.size == 0 or neg.size == 0:
        raise DegenerateClassError(
            "oversampling requires both classes in the training set"
        )
    if pos.size == neg.size:
        return np.arange(n)
    minority = pos if pos.size < neg.size else neg
    deficit = abs(int(neg.size) - int(pos.size))
    rng = np.random.Generator(np.random.PCG64(seed))
    extra = minority[rng.integers(0, minority.size, size=deficit)]
    return np.concatenate([np.arange(n), extra])


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationResult:
    matrix: np.ndarray  # (width+1) x (width+1); label is the last column
    constant_columns: tuple[int, ...]


def correlation_from_arrays(X: np.ndarray, labels: np.ndarray) -> CorrelationResult:
    """Pearson correlation over encoded columns plus the label column.

    Zero-variance columns contribute 0 everywhere (flagged), including
    their own diagonal entry; all other diagonal entries are exactly 1.
    """
    if X.ndim != 2 or X.shape[0] != np.asarray(labels).shape[0]:
        raise DataError("feature matrix and labels must align")
    if X.shape[0] < 2:
        raise DataError("correlation requires at least 2 rows")
    M = np.column_stack([X.astype(np.float64), np.asarray(labels, dtype=np.float64)])
    centered = M - M.mean(axis=0)
    cov = centered.T @ centered
    var = np.diag(cov).copy()
    constant = np.flatnonzero(var == 0.0)
    scale = np.sqrt(var)
    scale[var == 0.0] = 1.0  # avoid 0/0; rows get zeroed below
    corr = cov / np.outer(scale, scale)
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    keep = np.flatnonzero(var != 0.0)
    corr[keep, keep] = 1.0
    return CorrelationResult(matrix=corr, constant_columns=tuple(int(c) for c in constant))


# ---------------------------------------------------------------------------
# report datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PaymentTypeRow:
    payment_type: str
    count: int
    fraud_count: int
    fraud_percent: float  # 100 * fraud/count, half-up to 2 decimals


def payment_type_counts(types: Categories, fraud: np.ndarray) -> list[PaymentTypeRow]:
    """Per-type counts, fraud counts, and fraud percent, sorted by count
    desc, of a payment-type column and its laundering flags."""
    width = len(types.vocabulary)
    counts = np.bincount(types.codes, minlength=width).tolist()
    frauds = np.bincount(types.codes[fraud], minlength=width).tolist()
    rows = [
        PaymentTypeRow(ptype, c, f, _percent(f, c))
        for ptype, c, f in zip(types.vocabulary, counts, frauds)
        if c
    ]
    rows.sort(key=lambda r: (-r.count, r.payment_type))
    return rows


def _percent(part: int, whole: int) -> float:
    """100 * part / whole, half-up to 2 decimals."""
    return float(
        (Decimal(100 * part) / Decimal(whole)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    )


def payment_type_table(transactions: Iterable[Transaction]) -> list[PaymentTypeRow]:
    """payment_type_counts of an iterable of transactions, read once."""
    types, fraud = [], []
    for t in transactions:
        types.append(t.payment_type)
        fraud.append(t.is_laundering)
    return payment_type_counts(Categories.of(types), np.array(fraud, dtype=bool))


@dataclass(frozen=True)
class DayAmounts:
    day: int
    avg_amount_all: float
    avg_amount_fraud: float | None  # None marks fraud-free days


def seasonality_series(timestamps, amounts, fraud) -> list[DayAmounts]:
    """Per simulated day, in day order, the mean amount of all rows and of
    the fraudulent ones. Each day's sums add its amounts in row order."""
    days, slot = np.unique(timestamps // DAY_SECONDS + 1, return_inverse=True)
    width = len(days)
    sums = [
        np.bincount(slot, weights=amounts, minlength=width).tolist(),
        np.bincount(slot, minlength=width).tolist(),
        np.bincount(slot[fraud], weights=amounts[fraud], minlength=width).tolist(),
        np.bincount(slot[fraud], minlength=width).tolist(),
    ]
    return [
        DayAmounts(day, total / n, fraud_total / fraud_n if fraud_n else None)
        for day, total, n, fraud_total, fraud_n in zip(days.tolist(), *sums)
    ]


@dataclass(frozen=True)
class AlertGrid:
    payment_types: tuple[str, ...]
    counts: np.ndarray  # shape (12, len(payment_types)); row i = month i+1


def alerts_per_month(alert_ids, ids, timestamps, types: Categories) -> AlertGrid:
    """12 x payment-type counts of alerts, given by the transaction ids
    they reference, over transactions given as columns; each alert counts
    once, so the grand total always equals the number of alerts. An alert
    of an id no transaction holds raises DataError."""
    slot = np.zeros(len(alert_ids), dtype=np.int64)
    unknown = np.ones(len(alert_ids), dtype=bool)
    if len(ids):
        order = np.argsort(ids, kind="stable")
        slot = order[np.minimum(np.searchsorted(ids, alert_ids, sorter=order), len(ids) - 1)]
        unknown = ids[slot] != alert_ids
    if unknown.any():
        raise DataError(f"alert references unknown transaction id {alert_ids[np.argmax(unknown)]}")
    width = len(types.vocabulary)
    months = month_of_day(timestamps[slot] // DAY_SECONDS + 1)
    cells = np.bincount((months - 1) * width + types.codes[slot], minlength=12 * width)
    return AlertGrid(payment_types=types.vocabulary, counts=cells.reshape(12, width))
