"""Generator contract tests: distribution fidelity, determinism, formats."""

import csv
import io
import json
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from amlstream import cli, txgen
from amlstream.config import PipelineConfig
from amlstream.errors import ConfigError, DataError
from amlstream.storage import Categories
from amlstream.txgen import (
    DEFAULT_CURRENCY_WEIGHTS,
    DEFAULT_FRAUD_RATE_BY_TYPE,
    DEFAULT_LOCATION_WEIGHTS,
    DEFAULT_PAYMENT_TYPE_WEIGHTS,
    PAYMENT_TYPE_COUNTS,
    PAYMENT_TYPE_FRAUD_COUNTS,
    REFERENCE_TOTAL,
    SEASONAL_PEAK_DAYS,
    GeneratorConfig,
    Transaction,
    _parse_transaction,
    generate,
    read_csv,
    read_jsonl,
    read_records,
    records_of,
    seasonal_amount,
    seasonal_profile,
    transaction_from_dict,
    transaction_to_json,
    write_csv,
    write_jsonl,
)


def small_config(**overrides):
    base = dict(seed=42, count=20_000)
    base.update(overrides)
    return GeneratorConfig(**base)


# ---------------------------------------------------------------------------
# defaults
# ---------------------------------------------------------------------------

def test_default_weight_maps_sum_to_one():
    for weights in (
        DEFAULT_PAYMENT_TYPE_WEIGHTS,
        DEFAULT_CURRENCY_WEIGHTS,
        DEFAULT_LOCATION_WEIGHTS,
    ):
        assert abs(sum(weights.values()) - 1.0) <= 1e-9


def test_default_weights_match_reference_counts():
    assert REFERENCE_TOTAL == 9_504_852
    # spot-check the extreme rows of the reference ledger
    assert DEFAULT_PAYMENT_TYPE_WEIGHTS["Cash Deposit"] == 225_206 / 9_504_852
    assert DEFAULT_PAYMENT_TYPE_WEIGHTS["Credit Card"] == 2_012_909 / 9_504_852
    assert DEFAULT_FRAUD_RATE_BY_TYPE["Cash Deposit"] == 1_405 / 225_206
    assert DEFAULT_FRAUD_RATE_BY_TYPE["Cheque"] == 1_087 / 2_011_419
    assert set(PAYMENT_TYPE_COUNTS) == set(PAYMENT_TYPE_FRAUD_COUNTS)
    assert len(DEFAULT_CURRENCY_WEIGHTS) == 12
    assert len(DEFAULT_LOCATION_WEIGHTS) == 15


def test_validation_rejects_bad_configs():
    with pytest.raises(ConfigError):
        small_config(count=0).validate()
    with pytest.raises(ConfigError):
        small_config(payment_type_weights={"ACH": 0.7}).validate()
    with pytest.raises(ConfigError):
        small_config(base_amount=-5.0).validate()
    with pytest.raises(ConfigError):
        small_config(seasonal_amplitude=1.5).validate()
    # fraud rate must exist for every weighted type
    cfg = small_config()
    cfg.fraud_rate_by_type = {"ACH": 0.1}
    with pytest.raises(ConfigError):
        cfg.validate()


# ---------------------------------------------------------------------------
# seasonal profile: exhaustive scan over the year
# ---------------------------------------------------------------------------

def test_seasonal_profile_peaks_found_by_scan():
    values = {d: seasonal_profile(d) for d in range(1, 366)}
    peak = max(values.values())
    argmax = sorted(d for d, v in values.items() if v == peak)
    assert argmax == sorted(SEASONAL_PEAK_DAYS)
    assert peak == 1.0
    for d, v in values.items():
        if d not in SEASONAL_PEAK_DAYS:
            assert v < 1.0
        assert 0.0 <= v <= 1.0


def test_seasonal_profile_wraps_across_new_year():
    # the day-360 bump spills into early January
    assert seasonal_profile(1) > 0.8
    assert seasonal_profile(25) == pytest.approx(0.0, abs=1e-12)
    assert seasonal_profile(366) == seasonal_profile(1)


def test_seasonal_amount_amplitude_zero_is_flat():
    for day in (1, 90, 182, 360):
        assert seasonal_amount(day, 120.0, 0.0, True, 1.0) == 120.0
        assert seasonal_amount(day, 120.0, 0.0, False, 1.0) == 120.0


def test_seasonal_amount_fraud_peaks_beat_troughs():
    # expected (noise=1) amounts at the mid-year peak vs an off-season day
    peak = seasonal_amount(182, 100.0, 0.5, True, 1.0)
    trough = seasonal_amount(90, 100.0, 0.5, True, 1.0)
    assert peak == 150.0
    assert trough == 100.0
    # legitimate records ignore the season entirely
    assert seasonal_amount(182, 100.0, 0.5, False, 1.0) == 100.0


def test_monte_carlo_fraud_means_follow_season():
    # raise fraud rates so the day windows hold enough fraud samples
    rates = {t: 0.05 for t in DEFAULT_FRAUD_RATE_BY_TYPE}
    cfg = small_config(
        seed=7, count=150_000, seasonal_amplitude=0.5, fraud_rate_by_type=rates
    )
    peak_window, trough_window = [], []
    for t in generate(cfg):
        if not t.is_laundering:
            continue
        if 170 <= t.day <= 195:
            peak_window.append(t.amount)
        elif 60 <= t.day <= 90:
            trough_window.append(t.amount)
    assert len(peak_window) >= 10 and len(trough_window) >= 10
    assert sum(peak_window) / len(peak_window) > sum(trough_window) / len(trough_window)


# ---------------------------------------------------------------------------
# stream properties
# ---------------------------------------------------------------------------

def test_generate_exact_count_and_increasing_ids():
    cfg = small_config()
    ids = [t.id for t in generate(cfg)]
    assert len(ids) == cfg.count
    assert all(b > a for a, b in zip(ids, ids[1:]))


def test_generate_is_bit_identical_on_replay():
    cfg = small_config(seed=99, count=30_000)
    first = [asdict(t) for t in generate(cfg)]
    second = [asdict(t) for t in generate(cfg)]
    assert first == second


def test_different_seeds_differ():
    a = [asdict(t) for t in generate(small_config(seed=1, count=2_000))]
    b = [asdict(t) for t in generate(small_config(seed=2, count=2_000))]
    assert a != b


def test_modal_currency_dominates_under_defaults():
    counts = Counter(t.payment_currency for t in generate(small_config(count=50_000)))
    modal, n = counts.most_common(1)[0]
    assert modal == "GBP"
    assert n / 50_000 > 0.90


def test_payment_type_shares_within_three_binomial_se():
    n = 100_000
    counts = Counter(t.payment_type for t in generate(small_config(seed=5, count=n)))
    for ptype, p in DEFAULT_PAYMENT_TYPE_WEIGHTS.items():
        se = math.sqrt(p * (1 - p) / n)
        share = counts[ptype] / n
        assert abs(share - p) <= 3 * se, (ptype, share, p)


def test_fraud_rates_within_three_binomial_se():
    # elevated rates so the small-count types still get enough mass
    n = 200_000
    totals = Counter()
    frauds = Counter()
    for t in generate(small_config(seed=11, count=n)):
        totals[t.payment_type] += 1
        if t.is_laundering:
            frauds[t.payment_type] += 1
    for ptype, rate in DEFAULT_FRAUD_RATE_BY_TYPE.items():
        m = totals[ptype]
        se = math.sqrt(rate * (1 - rate) / m)
        observed = frauds[ptype] / m
        assert abs(observed - rate) <= 3 * se, (ptype, observed, rate)


def test_day_progression_covers_year_in_order():
    cfg = small_config(seed=3, count=5_000)
    days = [t.day for t in generate(cfg)]
    assert days[0] == 1
    assert days[-1] == 365
    assert all(b >= a for a, b in zip(days, days[1:]))


def test_amounts_positive_and_two_decimal():
    for t in generate(small_config(count=5_000)):
        assert t.amount >= 0.01
        assert round(t.amount * 100) == pytest.approx(t.amount * 100, abs=1e-6)


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------

def test_jsonl_round_trip(tmp_path):
    cfg = small_config(count=500)
    original = list(generate(cfg))
    path = tmp_path / "txns.jsonl"
    assert write_jsonl(original, path) == 500
    back = list(read_jsonl(path))
    assert [asdict(t) for t in back] == [asdict(t) for t in original]


def test_csv_round_trip(tmp_path):
    cfg = small_config(count=500)
    original = list(generate(cfg))
    path = tmp_path / "txns.csv"
    assert write_csv(original, path) == 500
    back = list(read_csv(path))
    assert [asdict(t) for t in back] == [asdict(t) for t in original]


def test_reader_accepts_misspelled_label_alias(tmp_path):
    t = next(iter(generate(small_config(count=1))))
    record = asdict(t)
    record["is_laundersing"] = record.pop("is_laundering")
    parsed = transaction_from_dict(record)
    assert parsed.is_laundering == t.is_laundering

    path = tmp_path / "legacy.jsonl"
    path.write_text(json.dumps(record) + "\n")
    back = list(read_jsonl(path))
    assert asdict(back[0]) == asdict(t)  # canonical spelling restored


def test_writer_emits_canonical_spelling(tmp_path):
    path = tmp_path / "txns.jsonl"
    write_jsonl(generate(small_config(count=3)), path)
    for line in path.read_text().splitlines():
        assert "is_laundering" in line
        assert "is_laundersing" not in line


def test_reader_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = transaction_from_dict(asdict(next(iter(generate(small_config(count=1))))))
    path.write_text(json.dumps(asdict(good)) + "\n{broken\n")
    with pytest.raises(DataError, match="line 2"):
        list(read_jsonl(path))


def read_line_by_line(path) -> list:
    """read_jsonl as it read every file, one line at a time."""
    out = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                out.append(Transaction(*_parse_transaction(line)))
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
    return out


def outcome(read, path):
    """What ``read(path)`` gives: its transactions, or its DataError's text."""
    try:
        return "value", repr(list(read(path)))
    except DataError as exc:
        return "raises", str(exc)


def dataset_lines(count: int) -> list[bytes]:
    return [transaction_to_json(t).encode() + b"\n" for t in generate(small_config(count=count))]


ODD_LINE = json.dumps(  # keys reordered, spaces, the label alias, an integer amount
    {"is_laundersing": 1, "payment_type": "ACH", "receiver_bank_location": "Z\u00fcrich",
     "sender_bank_location": "UK", "received_currency": "GBP", "payment_currency": "GBP",
     "amount": 250, "timestamp": 7, "id": 99}
).encode() + b"\n"

# name -> the lines of a file of up to 30 lines, read in chunks of 8 lines
CHUNKED_FILES = {
    "canonical": dataset_lines(30),
    "no final newline": [*dataset_lines(29), dataset_lines(30)[-1].rstrip(b"\n")],
    "odd line, no final newline": [*dataset_lines(29), ODD_LINE.rstrip(b"\n")],
    "blank lines": [b"\n", *dataset_lines(12), b"  \n", b"\r\n", *dataset_lines(15)[12:]],
    "odd line in the third chunk": [*dataset_lines(20), ODD_LINE, *dataset_lines(29)[20:]],
    "crlf lines": [line.replace(b"\n", b"\r\n") for line in dataset_lines(30)],
    "bad line in the third chunk": [*dataset_lines(19), b"{broken\n", *dataset_lines(30)[20:]],
    "bad last line": [*dataset_lines(29), b"[]"],
    # every line scans, but these amounts are not as the encoder writes them
    "amounts the encoder never writes": [
        re.sub(rb'"amount":[^,]*', b'"amount":' + amount, line)
        for line, amount in zip(dataset_lines(30), [b"100.50", b"1e2", b"7", b"2.5E+3"] * 3)
    ] + dataset_lines(30)[12:],
    "bad amount in the second chunk": [
        *dataset_lines(10), re.sub(rb'"amount":[^,]*', b'"amount":1e400', dataset_lines(11)[10]),
        *dataset_lines(30)[11:],
    ],
}


@pytest.mark.parametrize("chunk", [8, txgen.CHUNK_LINES])
@pytest.mark.parametrize("name", sorted(CHUNKED_FILES))
def test_chunked_reader_reads_what_the_line_by_line_reader_reads(tmp_path, monkeypatch, name, chunk):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"".join(CHUNKED_FILES[name]))
    monkeypatch.setattr(txgen, "CHUNK_LINES", chunk)
    expected = outcome(read_line_by_line, path)
    assert outcome(read_jsonl, path) == expected
    assert outcome(lambda p: read_jsonl(p, p.read_bytes()), path) == expected


def test_chunked_reader_names_the_true_line_of_a_bad_line_in_a_later_chunk(tmp_path, monkeypatch):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"".join(CHUNKED_FILES["bad line in the third chunk"]))
    monkeypatch.setattr(txgen, "CHUNK_LINES", 8)
    with pytest.raises(DataError, match=r"^line 20: payload is not valid JSON"):
        list(read_jsonl(path))
    # every record before it came out before the error
    read = []
    with pytest.raises(DataError):
        for t in read_jsonl(path):
            read.append(t.id)
    assert read == list(range(1, 20))


def test_timestamp_day_round_trip():
    for t in generate(small_config(count=2_000)):
        day = t.timestamp // 86_400 + 1
        assert day == t.day
        assert 0 <= t.timestamp - (day - 1) * 86_400 < 86_400


def read_records_with_raw(path):
    return read_records(path, path.read_bytes())


def column_bytes(columns):
    """Each column's dtype and bytes, a string column's vocabulary with
    its codes: equal exactly when the columns are."""
    return {
        name: (c.vocabulary, c.codes.dtype, c.codes.tobytes()) if isinstance(c, Categories)
        else (c.dtype, c.tobytes())
        for name, c in columns.items()
    }


@pytest.mark.parametrize("chunk", [8, txgen.CHUNK_LINES])
@pytest.mark.parametrize("name", sorted(CHUNKED_FILES))
def test_records_hold_what_the_reader_reads_and_the_encoders_lines(tmp_path, monkeypatch, name, chunk):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"".join(CHUNKED_FILES[name]))
    monkeypatch.setattr(txgen, "CHUNK_LINES", chunk)
    kind, expected = outcome(read_line_by_line, path)
    for read in (read_records, read_records_with_raw):
        if kind == "raises":
            with pytest.raises(DataError) as raised:
                read(path)
            assert str(raised.value) == expected
        else:
            records, encoded = read(path), records_of(read_line_by_line(path))
            assert column_bytes(records.columns) == column_bytes(encoded.columns)
            assert records.lines == encoded.lines


def test_canonical_lines_are_kept_as_read_without_the_encoder(tmp_path, monkeypatch):
    lines = dataset_lines(3_000)
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"".join(lines))

    def refuse(*args):
        raise AssertionError("a canonical line was decoded or encoded one at a time")

    monkeypatch.setattr(txgen, "transaction_to_json", refuse)
    monkeypatch.setattr(txgen, "_parse_transaction", refuse)
    records = read_records(path)
    assert records.lines == [line.rstrip(b"\n") for line in lines]
    assert list(records.columns) == list(txgen.TRANSACTION_FIELDS)
    assert all(len(getattr(c, "codes", c)) == len(lines) for c in records.columns.values())


def test_a_chunk_whose_amounts_the_encoder_writes_otherwise_is_re_encoded(tmp_path, monkeypatch):
    monkeypatch.setattr(txgen, "CHUNK_LINES", 8)
    lines = dataset_lines(24)
    lines[10] = re.sub(rb'"amount":[^,]*', b'"amount":100.50', lines[10])
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"".join(lines))
    records = read_records(path)
    # only the second chunk of 8 lines is re-encoded: one line changes
    kept = [line.rstrip(b"\n") for line in lines]
    assert [i for i, (a, b) in enumerate(zip(records.lines, kept)) if a != b] == [10]
    assert records.lines[10] == transaction_to_json(read_line_by_line(path)[10]).encode()
    assert b'"amount":100.5,' in records.lines[10]


def test_csv_records_are_the_encoders_lines(tmp_path):
    transactions = list(generate(small_config(count=50)))
    path = tmp_path / "data.csv"
    write_csv(transactions, path)
    records = read_records(path)
    assert records.lines == [transaction_to_json(t).encode() for t in transactions]
    assert column_bytes(records.columns) == column_bytes(records_of(transactions).columns)


def test_amounts_in_any_repr_form_are_kept_as_read(tmp_path):
    lines = [re.sub(rb'"amount":[^,]*', b'"amount":' + amount, line)
             for line, amount in zip(dataset_lines(4), [b"0.125", b"1e+16", b"1e-05", b"123.456"])]
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"".join(lines))
    assert read_records(path).lines == [line.rstrip(b"\n") for line in lines]


# ---------------------------------------------------------------------------
# column chunks against the per-row generator and writers
# ---------------------------------------------------------------------------

def oracle_generate(config):
    """The generator as it was written one Transaction at a time: the same
    draws, each row read out of the chunk's arrays by scalar indexing."""
    config.validate()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    types, type_cum = txgen._cumulative(config.payment_type_weights)
    currencies, cur_cum = txgen._cumulative(config.currency_weights)
    locations, loc_cum = txgen._cumulative(config.location_weights)
    rates = np.array([config.fraud_rate_by_type[t] for t in types], dtype=np.float64)
    profile = np.array([seasonal_profile(d) for d in range(config.start_day + txgen.YEAR_DAYS + 1)])
    base, amp, count = config.base_amount, config.seasonal_amplitude, config.count
    produced, next_id = 0, 1
    while produced < count:
        n = min(txgen.CHUNK_RECORDS, count - produced)
        u_type, u_fraud, u_pay, u_recv, u_sloc, u_rloc = (rng.random(n) for _ in range(6))
        secs = rng.integers(0, txgen.DAY_SECONDS, n, dtype=np.int64)
        z = rng.standard_normal(n)
        t_idx = txgen._pick(type_cum, u_type)
        fraud = u_fraud < rates[t_idx]
        pay_idx, recv_idx = txgen._pick(cur_cum, u_pay), txgen._pick(cur_cum, u_recv)
        sloc_idx, rloc_idx = txgen._pick(loc_cum, u_sloc), txgen._pick(loc_cum, u_rloc)
        pos = np.arange(produced, produced + n, dtype=np.int64)
        days = config.start_day + (pos * txgen.YEAR_DAYS) // count
        timestamps = (days - 1) * txgen.DAY_SECONDS + secs
        noise = np.exp(txgen.AMOUNT_SIGMA * z - txgen.AMOUNT_SIGMA * txgen.AMOUNT_SIGMA / 2.0)
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


def oracle_jsonl(transactions) -> bytes:
    return "".join(transaction_to_json(t) + "\n" for t in transactions).encode("utf-8")


def oracle_csv(transactions) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(txgen.TRANSACTION_FIELDS)
    for t in transactions:
        writer.writerow((t.id, t.timestamp, repr(t.amount), t.payment_currency,
                         t.received_currency, t.sender_bank_location, t.receiver_bank_location,
                         t.payment_type, int(t.is_laundering)))
    return out.getvalue().encode("utf-8")


# vocabularies that need JSON escapes and CSV quoting, listed out of
# sorted order, one of them never drawn
ESCAPING_GENERATOR = {
    "payment_type_weights": {"Wire": 0.3, 'Cash "Deposit"': 0.3, "Back\\slash": 0.2,
                             "Tab\there": 0.2, "Never": 0.0},
    "fraud_rate_by_type": {"Wire": 0.1, 'Cash "Deposit"': 0.5, "Back\\slash": 0.0,
                           "Tab\there": 0.2, "Never": 0.0},
    "currency_weights": {"£GBP": 0.5, "EUR": 0.25, "€X": 0.25},
    "location_weights": {"Zürich": 0.3, "Hong Kong, SAR": 0.3, "UK": 0.2,
                         "Line\nbreak": 0.1, "東京": 0.1},
}


def generator_config(count, **section):
    return PipelineConfig(seed=13, generator={"count": count, **section}).generator_config()


@pytest.mark.parametrize("count", [1, 1_023, 1_024, 1_025, txgen.CHUNK_RECORDS + 1])
def test_generate_out_is_the_per_row_writers_bytes(tmp_path, count):
    oracle = list(oracle_generate(generator_config(count)))
    for name, written in (("x.jsonl", oracle_jsonl(oracle)), ("x.csv", oracle_csv(oracle))):
        out = tmp_path / name
        argv = ["--data-dir", str(tmp_path / "data"), "--seed", "13"]
        assert cli.main([*argv, "generate", "--count", str(count), "--out", str(out)]) == 0
        assert out.read_bytes() == written, name


@pytest.mark.parametrize("section", [{"start_day": 200}, ESCAPING_GENERATOR],
                         ids=["start_day", "escaping"])
def test_configured_generate_out_is_the_per_row_writers_bytes(tmp_path, section):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 13, "generator": {"count": 3_000, **section}}))
    oracle = list(oracle_generate(generator_config(3_000, **section)))
    for name, written in (("x.jsonl", oracle_jsonl(oracle)), ("x.csv", oracle_csv(oracle))):
        out = tmp_path / name
        argv = ["--config", str(config), "--data-dir", str(tmp_path / "data")]
        assert cli.main([*argv, "generate", "--out", str(out)]) == 0
        assert out.read_bytes() == written, name
    lines = (tmp_path / "x.jsonl").read_bytes().splitlines()
    assert lines == [json.dumps(asdict(t), separators=(",", ":")).encode() for t in oracle]


@pytest.mark.parametrize("section", [{}, {"start_day": 200}, ESCAPING_GENERATOR],
                         ids=["defaults", "start_day", "escaping"])
def test_generate_is_the_per_row_generators_values_and_types(section):
    config = generator_config(txgen.CHUNK_RECORDS + 1_500, **section)
    rows = [tuple(asdict(t).values()) for t in generate(config)]
    assert rows == [tuple(asdict(t).values()) for t in oracle_generate(config)]
    kinds = (int, int, float, str, str, str, str, str, bool)
    assert {tuple(map(type, row)) for row in rows} == {kinds}


@pytest.mark.parametrize("section", [{}, ESCAPING_GENERATOR], ids=["defaults", "escaping"])
def test_generated_records_are_the_oracles_encoded(monkeypatch, section):
    monkeypatch.setattr(txgen, "CHUNK_RECORDS", 700)  # three chunks to join
    config = generator_config(1_600, **section)
    records, oracle = txgen.generated_records(config), list(oracle_generate(config))
    assert records.lines == oracle_jsonl(oracle).splitlines()
    assert column_bytes(records.columns) == column_bytes(records_of(oracle).columns)
    columns = list(txgen.generate_columns(config))
    assert [len(c["id"]) for c in columns] == [700, 700, 200]
    for chunk in columns:  # each chunk's vocabulary holds only the values it draws
        for c in chunk.values():
            if isinstance(c, Categories):
                assert np.bincount(c.codes, minlength=len(c.vocabulary)).all()
                assert list(c.vocabulary) == sorted(c.vocabulary)


def test_writers_of_transactions_are_the_per_row_writers_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(txgen, "CHUNK_LINES", 8)
    oracle = list(oracle_generate(generator_config(50, **ESCAPING_GENERATOR)))
    assert write_jsonl(iter(oracle), tmp_path / "x.jsonl") == 50
    assert write_csv(iter(oracle), tmp_path / "x.csv") == 50
    assert (tmp_path / "x.jsonl").read_bytes() == oracle_jsonl(oracle)
    assert (tmp_path / "x.csv").read_bytes() == oracle_csv(oracle)
    assert records_of(oracle).lines == oracle_jsonl(oracle).splitlines()


def traced_peak(tmp_path, count) -> int:
    out = tmp_path / f"{count}.jsonl"
    argv = ["--data-dir", str(tmp_path / "data"), "--seed", "1"]
    tracemalloc.start()
    try:
        assert cli.main([*argv, "generate", "--count", str(count), "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_out_memory_does_not_grow_with_count(tmp_path):
    """A draw chunk and one slice of its lines at a time: 200,000 rows peak
    where 70,000 do (both past one CHUNK_RECORDS chunk), while the lines of
    200,000 rows alone would take some 50 MB."""
    small, large = traced_peak(tmp_path, 70_000), traced_peak(tmp_path, 200_000)
    assert large <= small * 1.1 + (1 << 20), (small, large)
