"""Generator contract tests: distribution fidelity, determinism, formats."""

import json
import math
from collections import Counter
from dataclasses import asdict

import pytest

from amlstream.errors import ConfigError, DataError
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
    generate,
    read_csv,
    read_jsonl,
    seasonal_amount,
    seasonal_profile,
    transaction_from_dict,
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


def test_timestamp_day_round_trip():
    for t in generate(small_config(count=2_000)):
        day = t.timestamp // 86_400 + 1
        assert day == t.day
        assert 0 <= t.timestamp - (day - 1) * 86_400 < 86_400
