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

One encoder writes every serialized transaction, a log payload, a
JSON-lines dataset line and a warehouse row alike: transaction_to_json
fills one ``%`` template in TRANSACTION_FIELDS order and gives the bytes
``json.dumps(asdict(t), separators=(",", ":"))`` would (compact, keys in
field order, strings escaped to ASCII by json's own escaper).

One decoder reads every serialized transaction (a log payload, a dataset
line or CSV row, a warehouse row); a JSON line is parsed by storage's
line decoder, which gives json.loads's values and errors. A malformed
record, an out-of-range number, an id or timestamp outside int64 or a
non-finite amount raises DataError.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError
from .storage import RowType, _loads_line

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


def generate(config: GeneratorConfig) -> Iterator[Transaction]:
    """Yield exactly config.count transactions, streaming in fixed chunks.

    Constant memory: one chunk of draws is materialized at a time. Ids
    start at 1 and increase by 1.
    """
    config.validate()
    rng = np.random.Generator(np.random.PCG64(config.seed))

    types, type_cum = _cumulative(config.payment_type_weights)
    currencies, cur_cum = _cumulative(config.currency_weights)
    locations, loc_cum = _cumulative(config.location_weights)
    rates = np.array([config.fraud_rate_by_type[t] for t in types], dtype=np.float64)

    # Profile values per day, computed once via the scalar function so
    # the vectorized path matches seasonal_amount() bit for bit.
    max_day = config.start_day + YEAR_DAYS
    profile = np.array([seasonal_profile(d) for d in range(max_day + 1)])

    base = config.base_amount
    amp = config.seasonal_amplitude
    count = config.count
    produced = 0
    next_id = 1

    while produced < count:
        n = min(CHUNK_RECORDS, count - produced)
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
        pay_idx = _pick(cur_cum, u_pay)
        recv_idx = _pick(cur_cum, u_recv)
        sloc_idx = _pick(loc_cum, u_sloc)
        rloc_idx = _pick(loc_cum, u_rloc)

        pos = np.arange(produced, produced + n, dtype=np.int64)
        days = config.start_day + (pos * YEAR_DAYS) // count
        timestamps = (days - 1) * DAY_SECONDS + secs

        noise = np.exp(AMOUNT_SIGMA * z - AMOUNT_SIGMA * AMOUNT_SIGMA / 2.0)
        expected = np.where(fraud, base * (1.0 + amp * profile[days]), base)
        amounts = np.maximum(np.floor(expected * noise * 100.0 + 0.5) / 100.0, 0.01)

        for i in range(n):
            yield Transaction(
                id=next_id + i,
                timestamp=int(timestamps[i]),
                amount=float(amounts[i]),
                payment_currency=currencies[pay_idx[i]],
                received_currency=currencies[recv_idx[i]],
                sender_bank_location=locations[sloc_idx[i]],
                receiver_bank_location=locations[rloc_idx[i]],
                payment_type=types[t_idx[i]],
                is_laundering=bool(fraud[i]),
            )
        next_id += n
        produced += n


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


def write_jsonl(transactions: Iterable[Transaction], path) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for t in transactions:
            fh.write(transaction_to_json(t))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path, raw: bytes | None = None) -> Iterator[Transaction]:
    """The transactions of a JSON-lines file; ``raw``, when given, is
    that file's bytes, already read."""
    with open(path, "rb") if raw is None else io.BytesIO(raw) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                values = _parse_transaction(line)
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
            yield Transaction(*values)


def write_csv(transactions: Iterable[Transaction], path) -> int:
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRANSACTION_FIELDS)
        for t in transactions:
            writer.writerow(
                (
                    t.id,
                    t.timestamp,
                    repr(t.amount),
                    t.payment_currency,
                    t.received_currency,
                    t.sender_bank_location,
                    t.receiver_bank_location,
                    t.payment_type,
                    int(t.is_laundering),
                )
            )
            n += 1
    return n


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


def read_dataset(path, raw: bytes | None = None) -> Iterator[Transaction]:
    """Dispatch on extension: .csv reads CSV, anything else JSON-lines.
    ``raw``, when given, is the file's bytes, already read."""
    if str(path).endswith(".csv"):
        return read_csv(path, raw)
    return read_jsonl(path, raw)
