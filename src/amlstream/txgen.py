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
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError

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
DAY_SECONDS = 86_400
SEASONAL_PEAK_DAYS = (182, 360)
SEASONAL_HALF_WIDTH = 30
AMOUNT_SIGMA = 0.4  # log-normal noise; mean-corrected so E[noise] = 1
WEIGHT_SUM_TOLERANCE = 1e-9
CHUNK_RECORDS = 65_536  # fixed: replay depends on it

# Historical exports misspell the label column; accept both on read,
# always write the canonical spelling.
LABEL_ALIASES = ("is_laundering", "is_laundersing")


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

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in TRANSACTION_FIELDS}


TRANSACTION_FIELDS = tuple(f.name for f in fields(Transaction))


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
    if isinstance(value, (int, float)):
        return bool(value)
    text = str(value).strip().lower()
    if text in ("1", "true", "t", "yes"):
        return True
    if text in ("0", "false", "f", "no", ""):
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
        return (
            int(data["id"]),
            int(data["timestamp"]),
            float(data["amount"]),
            str(data["payment_currency"]),
            str(data["received_currency"]),
            str(data["sender_bank_location"]),
            str(data["receiver_bank_location"]),
            str(data["payment_type"]),
            _coerce_label(label),
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise DataError(f"malformed transaction record: {exc}") from exc


def _parse_transaction(record: bytes) -> tuple:
    """One serialized record, a log payload or a JSON-lines dataset line,
    to its coerced field values in TRANSACTION_FIELDS order. Anything that
    is not a UTF-8 JSON object of a transaction raises DataError."""
    try:
        data = json.loads(record.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DataError(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError("payload is not a JSON object")
    return _transaction_values(data)


def transaction_from_dict(data: dict) -> Transaction:
    return Transaction(*_transaction_values(data))


def transaction_to_json(t: Transaction) -> str:
    return json.dumps(t.to_dict(), separators=(",", ":"))


def write_jsonl(transactions: Iterable[Transaction], path) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for t in transactions:
            fh.write(transaction_to_json(t))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path) -> Iterator[Transaction]:
    with open(path, "rb") as fh:
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


def read_csv(path) -> Iterator[Transaction]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
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


def read_dataset(path) -> Iterator[Transaction]:
    """Dispatch on extension: .csv reads CSV, anything else JSON-lines."""
    if str(path).endswith(".csv"):
        return read_csv(path)
    return read_jsonl(path)
