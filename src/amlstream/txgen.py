"""Deterministic synthetic AML transaction generator.

Produces transaction streams whose payment-type mix and per-type fraud
rates follow a fixed reference distribution: seven payment types whose
default weights are normalized from a ~9.5M-row reference ledger, with
fraud rates between 0.05% (Cheque) and 0.62% (Cash Deposit). One
payment currency dominates (92% of records) and fraudulent amounts get
a bimodal seasonal uplift peaking near day 182 (mid-year) and day 360
(year-end).

Replay contract
---------------
Output is a pure function of GeneratorConfig. The RNG is NumPy's PCG64
seeded with ``config.seed``. Draws happen in fixed chunks of
CHUNK_RECORDS with a fixed per-chunk draw order (payment type, fraud
flag, payment currency, received currency, sender location, receiver
location, intra-day second, amount noise), so the same config yields a
byte-identical stream on any platform and any consumer chunking.

Day assignment walks evenly across one simulated year starting at
``start_day`` (day 1 = Jan 1 of the simulated year), which keeps the
stream time-ordered. The intra-day second is random. ``timestamp`` is
``(day - 1) * 86400 + second`` so day and second round-trip losslessly.
calendar_date maps a day index to its date in the simulated year, 2023.

The generator's unit of output is a column chunk: generate_columns
turns each draw chunk into the transactions table's columns (id,
timestamp and amount arrays, each string field as Categories taken
straight from its pick indices, the labels as a bool array). Everything
else is a view of those chunks: generate yields their rows as
Transactions, mapping Transaction over each slice's ``.tolist()``
columns; ``generate --out`` writes their JSON lines (write_jsonl_columns)
or CSV rows (write_csv_columns) one slice of CHUNK_LINES rows at a time,
so its memory does not grow with the count; generated_records makes
them Records.

One template writes every serialized transaction, a log payload, a
JSON-lines dataset line and a warehouse row alike: _TRANSACTION_LINE,
filled in TRANSACTION_FIELDS order, gives the bytes
``json.dumps(asdict(t), separators=(",", ":"))`` would (compact, keys in
field order, strings escaped to ASCII by json's own escaper).
transaction_to_json fills it for one transaction; a chunk's lines are
filled CHUNK_LINES rows at a time from its columns, each vocabulary
string escaped once per chunk, and write_jsonl, write_csv and records_of
take transactions through the same formatter as columns.

One decoder reads every serialized transaction (a log payload, a dataset
line or CSV row, a warehouse row); a JSON line is parsed by storage's
line decoder, which gives json.loads's values and errors. A malformed
record, an out-of-range number, an id or timestamp outside int64 or a
non-finite amount raises DataError.

A batch of log payloads (decode_transactions), and a JSON-lines dataset
CHUNK_LINES lines at a time (read_jsonl, read_records), is decoded in one
scan when every line of it has the layout transaction_to_json writes:
one anchored regex over the batch's lines joined at newlines, which only
that template with printable-ASCII strings needing no escape matches,
gives the field columns, each distinct string decoded once. The scan is
taken only when it matches every line, no record holds a newline (so no
two records can join into one line), every id and timestamp lies within
int64 and every amount is finite; such a line reads as the values the
per-record decoder gives it. Any other batch is decoded record by
record, with that decoder's values and error texts.

A dataset is ingested as Records: its values as the transactions
table's columns and each record's line as transaction_to_json writes
it, which is both its log payload and its table row. read_records keeps
a scanned chunk's own lines, less their newlines, as those lines when
each is byte for byte what the encoder writes of its values, which holds
once every amount's text is float.__repr__ of its value (the scan also
reads ``100.50``, ``1e2`` or ``7``, which the encoder writes otherwise);
its string columns' codes come straight from the scanned bytes. Any
other chunk, and every CSV row, is decoded record by record and its
transactions encoded.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
import re
from dataclasses import dataclass, field, fields
from itertools import chain, islice, starmap
from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError
from .storage import (
    Categories,
    RowType,
    _categories,
    _loads_line,
    concat_columns,
    field_columns,
    to_columns,
)

# ---------------------------------------------------------------------------
# reference distribution (counts from the production ledger the defaults
# mirror; weights and rates below are derived from them)
# ---------------------------------------------------------------------------

PAYMENT_TYPE_COUNTS: dict[str, int] = {
    "Credit Card": 2_012_909,
    "Debit Card": 2_012_103,
    "Cheque": 2_011_419,
    "ACH": 2_008_807,
    "Cross-border": 933_931,
    "Cash Withdrawal": 300_477,
    "Cash Deposit": 225_206,
}

PAYMENT_TYPE_FRAUD_COUNTS: dict[str, int] = {
    "Credit Card": 1_136,
    "Debit Card": 1_124,
    "Cheque": 1_087,
    "ACH": 1_159,
    "Cross-border": 2_628,
    "Cash Withdrawal": 1_334,
    "Cash Deposit": 1_405,
}

REFERENCE_TOTAL = sum(PAYMENT_TYPE_COUNTS.values())  # 9,504,852

DEFAULT_PAYMENT_TYPE_WEIGHTS: dict[str, float] = {
    t: c / REFERENCE_TOTAL for t, c in PAYMENT_TYPE_COUNTS.items()
}

DEFAULT_FRAUD_RATE_BY_TYPE: dict[str, float] = {
    t: PAYMENT_TYPE_FRAUD_COUNTS[t] / PAYMENT_TYPE_COUNTS[t]
    for t in PAYMENT_TYPE_COUNTS
}

# 12 currencies, GBP carries 92% of the mass.
DEFAULT_CURRENCY_WEIGHTS: dict[str, float] = {
    "GBP": 0.92,
    **{
        c: 0.08 / 11
        for c in (
            "USD", "EUR", "JPY", "CHF", "CAD", "AUD",
            "CNY", "INR", "SEK", "NOK", "SGD",
        )
    },
}

# 15 bank locations.
DEFAULT_LOCATION_WEIGHTS: dict[str, float] = {
    "UK": 0.40,
    "US": 0.10,
    "Germany": 0.08,
    "France": 0.07,
    "Spain": 0.06,
    "Italy": 0.05,
    "Netherlands": 0.05,
    "Switzerland": 0.04,
    "UAE": 0.03,
    "Singapore": 0.03,
    "Hong Kong": 0.02,
    "Japan": 0.02,
    "Canada": 0.02,
    "Australia": 0.02,
    "Nigeria": 0.01,
}

YEAR_DAYS = 365
_YEAR_START = datetime.date(2023, 1, 1)  # a non-leap year
DAY_SECONDS = 86_400
SEASONAL_PEAK_DAYS = (182, 360)
SEASONAL_HALF_WIDTH = 30
AMOUNT_SIGMA = 0.4  # log-normal noise; mean-corrected so E[noise] = 1
WEIGHT_SUM_TOLERANCE = 1e-9
CHUNK_RECORDS = 65_536  # fixed: replay depends on it
CHUNK_LINES = 1024  # dataset lines decoded, and rows formatted, at a time
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# Historical exports misspell the label column; accept both on read,
# always write the canonical spelling.
LABEL_ALIASES = ("is_laundering", "is_laundersing")


def calendar_date(day: int) -> datetime.date:
    """The calendar date of a simulated day index (day 1 = 2023-01-01),
    wrapping every YEAR_DAYS days."""
    return _YEAR_START + datetime.timedelta(days=(day - 1) % YEAR_DAYS)


@dataclass(slots=True)
class Transaction:
    id: int
    timestamp: int  # (day - 1) * 86400 + second_of_day
    amount: float
    payment_currency: str
    received_currency: str
    sender_bank_location: str
    receiver_bank_location: str
    payment_type: str
    is_laundering: bool

    @property
    def day(self) -> int:
        return self.timestamp // DAY_SECONDS + 1


TRANSACTION_FIELDS = tuple(f.name for f in fields(Transaction))
# a transaction's field values in TRANSACTION_FIELDS order, as the decoder gives them
transaction_values = attrgetter(*TRANSACTION_FIELDS)


@dataclass
class GeneratorConfig:
    """Knobs for one generated stream. All randomness derives from seed."""

    seed: int
    count: int
    start_day: int = 1
    payment_type_weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_PAYMENT_TYPE_WEIGHTS)
    )
    fraud_rate_by_type: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_FRAUD_RATE_BY_TYPE)
    )
    currency_weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CURRENCY_WEIGHTS)
    )
    location_weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_LOCATION_WEIGHTS)
    )
    base_amount: float = 250.0
    seasonal_amplitude: float = 0.5

    def validate(self) -> None:
        if self.count <= 0:
            raise ConfigError("count must be a positive integer")
        if self.start_day < 1:
            raise ConfigError("start_day must be >= 1")
        if self.base_amount <= 0:
            raise ConfigError("base_amount must be positive")
        if not 0.0 <= self.seasonal_amplitude <= 1.0:
            raise ConfigError("seasonal_amplitude must lie in [0, 1]")
        for name, weights in (
            ("payment_type_weights", self.payment_type_weights),
            ("currency_weights", self.currency_weights),
            ("location_weights", self.location_weights),
        ):
            if not weights:
                raise ConfigError(f"{name} must not be empty")
            if any(w < 0 for w in weights.values()):
                raise ConfigError(f"{name} contains a negative weight")
            total = sum(weights.values())
            if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
                raise ConfigError(
                    f"{name} must sum to 1 within {WEIGHT_SUM_TOLERANCE}, got {total!r}"
                )
        for t in self.payment_type_weights:
            if t not in self.fraud_rate_by_type:
                raise ConfigError(f"fraud_rate_by_type is missing payment type {t!r}")
        for t, rate in self.fraud_rate_by_type.items():
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"fraud rate for {t!r} must lie in [0, 1]")


# ---------------------------------------------------------------------------
# seasonal profile and amounts
# ---------------------------------------------------------------------------

def seasonal_profile(day: int) -> float:
    """Bimodal raised-cosine profile in [0, 1], periodic over the year.

    Two bumps of half-width SEASONAL_HALF_WIDTH days centered on the
    peak days; each bump is 0.5 * (1 + cos(pi * d / half_width)) for
    circular distance d <= half_width, zero elsewhere. The bumps do not
    overlap, so the profile attains the value 1.0 exactly at the two
    peak days and is strictly smaller everywhere else.
    """
    d = (day - 1) % YEAR_DAYS + 1
    total = 0.0
    for peak in SEASONAL_PEAK_DAYS:
        delta = abs(d - peak)
        delta = min(delta, YEAR_DAYS - delta)
        if delta <= SEASONAL_HALF_WIDTH:
            total += 0.5 * (1.0 + math.cos(math.pi * delta / SEASONAL_HALF_WIDTH))
    return total


def round_money(x: float) -> float:
    """Round half-up to 2 decimals, floored at 0.01."""
    return max(math.floor(x * 100.0 + 0.5) / 100.0, 0.01)


def seasonal_amount(
    day: int, base: float, amplitude: float, is_fraud: bool, noise: float
) -> float:
    """Amount for one transaction given its multiplicative noise draw.

    Fraudulent amounts scale with the seasonal profile; legitimate ones
    do not. With noise = 1.0 and amplitude = 0 the result is exactly
    ``base`` (the generator draws mean-one log-normal noise, so the
    expected amount tracks base * (1 + amplitude * profile) for fraud).
    """
    expected = base * (1.0 + amplitude * seasonal_profile(day)) if is_fraud else base
    return round_money(expected * noise)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _cumulative(weights: dict[str, float]) -> tuple[list[str], np.ndarray]:
    names = list(weights)
    cum = np.cumsum(np.array([weights[n] for n in names], dtype=np.float64))
    return names, cum


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, len(cum) - 1)


def generate_columns(config: GeneratorConfig) -> Iterator[dict]:
    """Each chunk of config.count transactions, CHUNK_RECORDS at a time,
    as the transactions table reads its rows (storage.to_columns): id,
    timestamp and amount arrays, each string field as Categories of its
    pick indices, and the labels as a bool array.

    Constant memory: one chunk of draws is materialized at a time. Ids
    start at 1 and increase by 1.
    """
    config.validate()
    rng = np.random.Generator(np.random.PCG64(config.seed))

    types, type_cum = _cumulative(config.payment_type_weights)
    currencies, cur_cum = _cumulative(config.currency_weights)
    locations, loc_cum = _cumulative(config.location_weights)
    rates = np.array([config.fraud_rate_by_type[t] for t in types], dtype=np.float64)
    type_column, currency_column, location_column = map(_picked, (types, currencies, locations))

    # Profile values per day, computed once via the scalar function so
    # the vectorized path matches seasonal_amount() bit for bit.
    max_day = config.start_day + YEAR_DAYS
    profile = np.array([seasonal_profile(d) for d in range(max_day + 1)])

    base = config.base_amount
    amp = config.seasonal_amplitude
    count = config.count

    def chunk(produced: int, n: int) -> dict:
        # Fixed draw order; replay depends on it.
        u_type = rng.random(n)
        u_fraud = rng.random(n)
        u_pay = rng.random(n)
        u_recv = rng.random(n)
        u_sloc = rng.random(n)
        u_rloc = rng.random(n)
        secs = rng.integers(0, DAY_SECONDS, n, dtype=np.int64)
        z = rng.standard_normal(n)

        t_idx = _pick(type_cum, u_type)
        fraud = u_fraud < rates[t_idx]

        pos = np.arange(produced, produced + n, dtype=np.int64)
        days = config.start_day + (pos * YEAR_DAYS) // count
        noise = np.exp(AMOUNT_SIGMA * z - AMOUNT_SIGMA * AMOUNT_SIGMA / 2.0)
        expected = np.where(fraud, base * (1.0 + amp * profile[days]), base)

        return dict(zip(TRANSACTION_FIELDS, (
            pos + 1,
            (days - 1) * DAY_SECONDS + secs,
            np.maximum(np.floor(expected * noise * 100.0 + 0.5) / 100.0, 0.01),
            currency_column(_pick(cur_cum, u_pay)),
            currency_column(_pick(cur_cum, u_recv)),
            location_column(_pick(loc_cum, u_sloc)),
            location_column(_pick(loc_cum, u_rloc)),
            type_column(t_idx),
            fraud,
        )))

    # a chunk's draws are freed once its columns are made
    for produced in range(0, count, CHUNK_RECORDS):
        yield chunk(produced, min(CHUNK_RECORDS, count - produced))


def _picked(names: list[str]):
    """A function from pick indices into ``names`` to their string column:
    Categories whose vocabulary is the sorted names some index picks."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int32)
    rank[order] = np.arange(len(names), dtype=np.int32)
    vocabulary = [names[i] for i in order]
    return lambda picks: _categories(rank[picks], vocabulary)


def _field_slices(columns: dict, escape: bool = False) -> Iterator[list]:
    """``columns``, as the transactions table reads them, CHUNK_LINES rows
    at a time: each slice as one list per field in TRANSACTION_FIELDS
    order, of Python ints, floats, strs and bools. With ``escape`` a string
    field holds each value's JSON text instead, each vocabulary string
    escaped once."""
    ids, timestamps, amounts, *strings, labels = (columns[name] for name in TRANSACTION_FIELDS)
    vocabularies = [
        np.array([*map(_json_string, c.vocabulary)] if escape else c.vocabulary, dtype=object)
        for c in strings
    ]
    for start in range(0, len(ids), CHUNK_LINES):
        part = slice(start, start + CHUNK_LINES)
        yield [
            ids[part].tolist(),
            timestamps[part].tolist(),
            amounts[part].tolist(),
            *[v[c.codes[part]].tolist() for v, c in zip(vocabularies, strings)],
            labels[part].tolist(),
        ]


def generate(config: GeneratorConfig) -> Iterator[Transaction]:
    """Yield exactly config.count transactions: the rows of
    generate_columns, in its constant memory."""
    for columns in generate_columns(config):
        for fields in _field_slices(columns):
            yield from map(Transaction, *fields)
        del columns  # let the chunk go before the next is drawn


# ---------------------------------------------------------------------------
# dataset I/O (JSON-lines and CSV share the Transaction field names)
# ---------------------------------------------------------------------------

def _coerce_label(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    text = str(value).strip().lower()
    if text in ("1", "true", "t", "yes"):
        return True
    if text in ("0", "false", "f", "no"):
        return False
    raise DataError(f"unparseable laundering label: {value!r}")


def _transaction_values(data: dict) -> tuple:
    """One record's coerced field values, in TRANSACTION_FIELDS order."""
    label = None
    for alias in LABEL_ALIASES:
        if alias in data:
            label = data[alias]
            break
    if label is None:
        raise DataError("record is missing the is_laundering field")
    try:
        tx_id, timestamp, amount = data["id"], data["timestamp"], data["amount"]
        values = (
            int(tx_id),
            int(timestamp),
            float(amount),
            str(data["payment_currency"]),
            str(data["received_currency"]),
            str(data["sender_bank_location"]),
            str(data["receiver_bank_location"]),
            str(data["payment_type"]),
            _coerce_label(label),
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise DataError(f"malformed transaction record: {exc}") from exc
    if not math.isfinite(values[2]):
        raise DataError(f"malformed transaction record: amount {values[2]!r} is not finite")
    # int() truncates a JSON float, int() and float() read a JSON boolean
    # as 0 or 1, and text that is not a number fails in them
    if type(tx_id) is bool or type(tx_id) is float and tx_id != values[0]:
        raise DataError(f"malformed transaction record: id {tx_id!r} is not an integer")
    if type(timestamp) is bool or type(timestamp) is float and timestamp != values[1]:
        raise DataError(f"malformed transaction record: timestamp {timestamp!r} is not an integer")
    if type(amount) is bool:
        raise DataError(f"malformed transaction record: amount {amount!r} is not a number")
    # the warehouse keeps ids and timestamps as int64 columns
    if not _INT64_MIN <= values[0] <= _INT64_MAX:
        raise DataError(f"malformed transaction record: id {values[0]} is outside int64")
    if not _INT64_MIN <= values[1] <= _INT64_MAX:
        raise DataError(f"malformed transaction record: timestamp {values[1]} is outside int64")
    return values


def _parse_transaction(record: bytes) -> tuple:
    """One serialized record, a log payload or a JSON-lines dataset line,
    to its coerced field values in TRANSACTION_FIELDS order. Anything that
    is not a UTF-8 JSON object of a transaction raises DataError."""
    try:
        data = _loads_line(record.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DataError(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError("payload is not a JSON object")
    return _transaction_values(data)


# A line as transaction_to_json writes it when every string is printable
# ASCII that json does not escape, anchored at the line's ends: the id and
# timestamp as %d writes them, of at most 19 digits (a longer one is past
# int64); the amount by JSON's number grammar less a bare -0, which json
# reads as the int 0 and so as +0.0 where float() gives -0.0; the label as
# true or false. No group can hold a newline, so a match is one whole line.
_INT = rb"(0|-?[1-9][0-9]{0,18})"
_NUMBER = rb"(?!-0,)(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)"
_STRING = rb'"([\x20\x21\x23-\x5b\x5d-\x7e]*)"'
_CANONICAL_LINE = re.compile(
    rb'^\{"id":' + _INT + rb',"timestamp":' + _INT + rb',"amount":' + _NUMBER
    + rb',"payment_currency":' + _STRING + rb',"received_currency":' + _STRING
    + rb',"sender_bank_location":' + _STRING + rb',"receiver_bank_location":' + _STRING
    + rb',"payment_type":' + _STRING + rb',"is_laundering":(true|false)\}$',
    re.M,
)
_LABELS = {b"true": True, b"false": False}


def _scan(block: bytes, n: int, exact: bool = False) -> tuple | None:
    """The columns of ``block``, which holds ``n`` lines split at b"\\n",
    as scanned, when every line is a canonical transaction line whose id
    and timestamp lie within int64 and whose amount is finite: the ids,
    timestamps and amounts as lists of the values _parse_transaction gives,
    then the five string fields as one tuple of their values' bytes each,
    and the labels' bytes as one more. With ``exact``, also only when every
    amount's text is float.__repr__ of its value, so that each line is byte
    for byte what transaction_to_json writes of its values. None
    otherwise."""
    rows = _CANONICAL_LINE.findall(block)
    if len(rows) != n:
        return None
    ids, timestamps, texts, *strings, labels = zip(*rows)
    ids = list(map(int, ids))
    timestamps = list(map(int, timestamps))
    amounts = list(map(float, texts))  # an amount past the float range reads as inf
    if not (
        _INT64_MIN <= min(ids) and max(ids) <= _INT64_MAX
        and _INT64_MIN <= min(timestamps) and max(timestamps) <= _INT64_MAX
        and -math.inf < min(amounts) and max(amounts) < math.inf
    ):
        return None
    if exact and b",".join(texts) != ",".join(map(float.__repr__, amounts)).encode("ascii"):
        return None
    return ids, timestamps, amounts, strings, labels


def _scan_lines(block: bytes, n: int) -> list | None:
    """The field columns, in TRANSACTION_FIELDS order, of ``block`` as
    _scan takes it, None when it does not scan."""
    scanned = _scan(block, n)
    return None if scanned is None else _field_values(scanned)


def _field_values(scanned: tuple) -> list:
    """Columns as _scan gives them as field columns, in TRANSACTION_FIELDS
    order, of the values _parse_transaction gives each line: each distinct
    string decoded once."""
    ids, timestamps, amounts, strings, labels = scanned
    text = {value: value.decode("ascii") for value in set().union(*strings)}
    return [
        ids, timestamps, amounts,
        *[list(map(text.__getitem__, column)) for column in strings],
        list(map(_LABELS.__getitem__, labels)),
    ]


def _scanned_columns(scanned: tuple) -> dict:
    """Columns as _scan gives them as the transactions table reads them
    (storage.to_columns). A string column's codes come straight from its
    bytes, printable ASCII, which sort as their text does."""
    ids, timestamps, amounts, strings, labels = scanned
    categories = []
    for column in map(Categories.of, strings):
        vocabulary = tuple(value.decode("ascii") for value in column.vocabulary)
        categories.append(Categories(column.codes, vocabulary))
    labels = list(map(_LABELS.__getitem__, labels))
    return field_columns(TRANSACTION_ROWS, [ids, timestamps, amounts, *categories, labels])


def decode_transactions(records: list) -> tuple[list, list[tuple[int, str]]]:
    """A batch of serialized records, such as a poll's log payloads, to
    the field columns of those that decode, in TRANSACTION_FIELDS order,
    and the index and DataError text of each that does not: record by
    record, what _parse_transaction gives. A batch of canonical lines is
    decoded in one scan, any other batch record by record."""
    joined = b"\n".join(records)
    if joined.count(b"\n") == len(records) - 1:  # no record holds a newline
        columns = _scan_lines(joined, len(records))
        if columns is not None:
            return columns, []
    rows, errors = [], []
    for i, record in enumerate(records):
        try:
            rows.append(_parse_transaction(record))
        except DataError as exc:
            errors.append((i, str(exc)))
    return [list(column) for column in zip(*rows)] or [[] for _ in TRANSACTION_FIELDS], errors


def transaction_from_dict(data: dict) -> Transaction:
    return Transaction(*_transaction_values(data))


# The transactions table's rows: each field with the kind of its decoded
# value, which is its annotation.
TRANSACTION_ROWS = RowType(
    tuple((f.name, f.type) for f in fields(Transaction)), _transaction_values
)


# One transaction as the bytes json.dumps(asdict(t), separators=(",", ":"))
# gives: fields in TRANSACTION_FIELDS order, ints as %d, the finite amount as
# float.__repr__, strings escaped to ASCII by json's own escaper.
_TRANSACTION_LINE = (
    '{"id":%d,"timestamp":%d,"amount":%s,"payment_currency":%s,"received_currency":%s,'
    '"sender_bank_location":%s,"receiver_bank_location":%s,"payment_type":%s,'
    '"is_laundering":%s}'
)


def transaction_to_json(t: Transaction) -> str:
    """A transaction's JSON object on one line: its log payload, dataset
    line and warehouse row."""
    return _TRANSACTION_LINE % (
        t.id,
        t.timestamp,
        float.__repr__(t.amount),
        _json_string(t.payment_currency),
        _json_string(t.received_currency),
        _json_string(t.sender_bank_location),
        _json_string(t.receiver_bank_location),
        _json_string(t.payment_type),
        "true" if t.is_laundering else "false",
    )


_JSON_LABELS = ("false", "true")


def _json_texts(columns: dict) -> Iterator[str]:
    """The encoder's lines of ``columns``, as the transactions table reads
    them, CHUNK_LINES at a time: each slice's lines joined at newlines,
    with no final newline; each line is what transaction_to_json writes."""
    for ids, timestamps, amounts, *strings, labels in _field_slices(columns, escape=True):
        yield "\n".join(map(_TRANSACTION_LINE.__mod__, zip(
            ids, timestamps, map(float.__repr__, amounts), *strings,
            map(_JSON_LABELS.__getitem__, labels),
        )))


def _encoded_lines(columns: dict) -> list[bytes]:
    """Each row of ``columns`` as its encoder line, ASCII bytes without a newline."""
    return [
        line for text in _json_texts(columns) for line in text.encode("ascii").split(b"\n")
    ]


def _transaction_columns(transactions: Iterable[Transaction]) -> Iterator[dict]:
    """Transactions CHUNK_LINES at a time, each slice as the transactions
    table reads it (storage.to_columns)."""
    transactions = iter(transactions)
    while batch := list(islice(transactions, CHUNK_LINES)):
        yield to_columns(TRANSACTION_ROWS, list(map(transaction_values, batch)))


def write_jsonl_columns(chunks: Iterable[dict], path) -> int:
    """Write each of ``chunks``, column sets as the transactions table reads
    them, as JSON lines one slice at a time; returns how many rows."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for columns in chunks:
            for text in _json_texts(columns):
                fh.write(text)
                fh.write("\n")
            n += len(columns["id"])
            del columns  # let the chunk go before the next is drawn
    return n


def write_jsonl(transactions: Iterable[Transaction], path) -> int:
    return write_jsonl_columns(_transaction_columns(transactions), path)


def _decode_lines(lines: list, first: int) -> Iterator[tuple]:
    """The values of each of ``lines``, the first of them line number
    ``first`` of its file, decoded one at a time. Blank lines are skipped;
    a line that does not decode raises DataError naming its line number."""
    for lineno, line in enumerate(lines, start=first):
        if line.isspace():
            continue
        try:
            yield _parse_transaction(line)
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc


def _jsonl_chunks(path, raw: bytes | None, exact: bool) -> Iterator[tuple[tuple | None, Iterator]]:
    """Each chunk of CHUNK_LINES lines of a JSON-lines file, read from it
    that many at a time (or from ``raw``, its bytes already read), as a
    pair. When it scans, as _scan takes it with ``exact``: its columns as
    _scan gives them, and its lines less their newlines if ``exact`` (else
    None). Otherwise: None, and its records' values as _decode_lines gives
    them."""
    with open(path, "rb") if raw is None else io.BytesIO(raw) as fh:
        first = 1  # the line number of the chunk's first line
        while chunk := list(islice(fh, CHUNK_LINES)):
            block = b"".join(chunk)
            scanned = _scan(block, len(chunk), exact)
            if scanned is None:
                yield None, _decode_lines(chunk, first)
            elif exact:
                lines = block.split(b"\n")
                if not lines[-1]:
                    lines.pop()  # what follows the newline that ends the last line
                yield scanned, lines
            else:
                yield scanned, None
            first += len(chunk)


def read_jsonl(path, raw: bytes | None = None) -> Iterator[Transaction]:
    """The transactions of a JSON-lines file; ``raw``, when given, is
    that file's bytes, already read. Blank lines are skipped; a line that
    does not decode raises DataError naming its line number. Each chunk of
    CHUNK_LINES lines is decoded in one scan when every line of it is
    canonical, and line by line otherwise."""
    for scanned, rows in _jsonl_chunks(path, raw, exact=False):
        if scanned is None:
            yield from starmap(Transaction, rows)
        else:
            yield from map(Transaction, *_field_values(scanned))


@dataclass(frozen=True)
class Records:
    """Transactions ready to publish and store: their values as the
    transactions table reads them (storage.to_columns), and each one's
    line, the ASCII bytes transaction_to_json writes of it without a
    newline, which is both its log payload and its table row."""

    columns: dict
    lines: list

    def __len__(self) -> int:
        return len(self.lines)


def records_of(transactions: Iterable[Transaction]) -> Records:
    """Transactions as Records, each encoded once."""
    columns = to_columns(TRANSACTION_ROWS, list(map(transaction_values, transactions)))
    return Records(columns, _encoded_lines(columns))


def generated_records(config: GeneratorConfig) -> Records:
    """The transactions generate yields as Records, straight from each
    chunk's columns."""
    return _joined([
        Records(columns, _encoded_lines(columns)) for columns in generate_columns(config)
    ])


def _joined(parts: list) -> Records:
    """Records ``parts`` as one, their rows in the parts' order."""
    if not parts:
        return records_of([])
    if len(parts) == 1:
        return parts[0]
    return Records(
        concat_columns(TRANSACTION_ROWS, [part.columns for part in parts]),
        list(chain.from_iterable(part.lines for part in parts)),
    )


def read_records(path, raw: bytes | None = None) -> Records:
    """A dataset file as Records: a .csv file read as CSV, any other as
    JSON-lines; ``raw``, when given, is the file's bytes, already read. A
    JSON-lines chunk whose lines are byte for byte what transaction_to_json
    writes keeps them as its lines, and its columns come from the scan; any
    other chunk, and a CSV file, is decoded and each of its transactions
    encoded."""
    if str(path).endswith(".csv"):
        return records_of(read_csv(path, raw))
    return _joined([
        records_of(starmap(Transaction, rows)) if scanned is None
        else Records(_scanned_columns(scanned), rows)
        for scanned, rows in _jsonl_chunks(path, raw, exact=True)
    ])


def write_csv_columns(chunks: Iterable[dict], path) -> int:
    """Write ``chunks``, column sets as the transactions table reads them,
    as CSV under a header row, one slice at a time; returns how many rows."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRANSACTION_FIELDS)
        for columns in chunks:
            for ids, timestamps, amounts, *strings, labels in _field_slices(columns):
                # csv writes a float as its repr, the label as 0 or 1
                writer.writerows(zip(ids, timestamps, amounts, *strings, map(int, labels)))
            n += len(columns["id"])
            del columns  # let the chunk go before the next is drawn
    return n


def write_csv(transactions: Iterable[Transaction], path) -> int:
    return write_csv_columns(_transaction_columns(transactions), path)


def read_csv(path, raw: bytes | None = None) -> Iterator[Transaction]:
    """The transactions of a CSV file with a header row; ``raw``, when
    given, is that file's bytes, already read."""
    binary = open(path, "rb") if raw is None else io.BytesIO(raw)
    try:
        with io.TextIOWrapper(binary, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty CSV, expected a header row")
            header = set(reader.fieldnames)
            if not any(a in header for a in LABEL_ALIASES):
                raise DataError(f"{path}: header is missing the is_laundering column")
            for lineno, row in enumerate(reader, start=2):
                try:
                    yield transaction_from_dict(row)
                except DataError as exc:
                    raise DataError(f"line {lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # text is decoded in blocks, so the reader cannot name the line
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
