"""The JSON-lines codec against the stdlib calls it stands in for.

transaction_to_json must give the bytes of json.dumps(asdict(t),
separators=(",", ":")), and storage._loads_line the value of
json.loads(line), or the same exception with the same text, on good
lines and on every small corruption of them. The batch decoder must give,
record by record, what the per-record decoder gives, and a rule alert's
template the line _ALERT_LINE gives.
"""

import csv
import json
from dataclasses import asdict, replace

import pytest

from amlstream import streamproc, txgen
from amlstream.errors import DataError
from amlstream.eventlog import EventLog
from amlstream.storage import _loads_line
from amlstream.streamproc import (
    _ALERT_LINE,
    _RULE_ALERT_LINE,
    RULE_CORRIDOR,
    RULE_HIGH_RISK,
    RULE_VELOCITY,
    StreamProcessor,
)
from amlstream.txgen import (
    TRANSACTION_FIELDS,
    GeneratorConfig,
    Transaction,
    _parse_transaction,
    _transaction_values,
    decode_transactions,
    generate,
    read_csv,
    transaction_to_json,
)


def reference_json(t: Transaction) -> str:
    return json.dumps(asdict(t), separators=(",", ":"))


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 5, 7])
def test_encoder_gives_the_bytes_of_json_dumps_on_generated_rows(seed):
    for t in generate(GeneratorConfig(seed=seed, count=3000)):
        assert transaction_to_json(t) == reference_json(t)


ODD_STRINGS = [
    "Zürich",
    "東京",
    "emoji \U0001f600",
    'quote " inside',
    "back\\slash",
    "tab\tand\x01\x1f\x7f",
    "line\u2028separator",
    "",
]


def test_encoder_gives_the_bytes_of_json_dumps_on_csv_strings(tmp_path):
    path = tmp_path / "odd.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRANSACTION_FIELDS)
        for i, text in enumerate(ODD_STRINGS):
            writer.writerow([i, i, "1.5", text, "GBP", text, "UK", text, i % 2])
    read = list(read_csv(path))
    assert [t.payment_currency for t in read] == ODD_STRINGS
    for t in read:
        assert transaction_to_json(t) == reference_json(t)
        assert Transaction(*_parse_transaction(transaction_to_json(t).encode())) == t


@pytest.mark.parametrize("amount", [5e-324, 1e16, 0.1, -0.0, 1e-7, 123456789.125, 1.7976931348623157e308])
@pytest.mark.parametrize("number", [-(2**63), -1, 0, 2**63 - 1])
def test_encoder_gives_the_bytes_of_json_dumps_on_edge_numbers(amount, number):
    base = next(iter(generate(GeneratorConfig(seed=3, count=1))))
    for label in (False, True):
        t = replace(base, id=number, timestamp=number, amount=amount, is_laundering=label)
        line = transaction_to_json(t)
        assert line == reference_json(t)
        assert Transaction(*_parse_transaction(line.encode())) == t


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def outcome(fn, text):
    """What ``fn(text)`` gives: ("value", repr) or ("raises", type, text);
    repr tells apart 1 and 1.0, 0.0 and -0.0, and shows NaN."""
    try:
        return "value", repr(fn(text))
    except (ValueError, RecursionError) as exc:
        return "raises", type(exc), str(exc)


GOOD_TRANSACTION = transaction_to_json(next(iter(generate(GeneratorConfig(seed=1, count=1)))))
GOOD_ALERT = (_ALERT_LINE % (17, "rule:velocity", 1.0, "rule:velocity", 42, 17)).rstrip("\n")


def corrupted(line: str):
    """Every copy of ``line`` with one character deleted, duplicated, or
    with one of three of its bits flipped."""
    for i, char in enumerate(line):
        yield line[:i] + line[i + 1 :]
        yield line[:i] + char + line[i:]
        for bit in (0x01, 0x20, 0x40):
            yield line[:i] + chr(ord(char) ^ bit) + line[i + 1 :]


EXTRA_LINES = [
    "",
    " ",
    "{}",
    "[]",
    "null",
    '"text"',
    "1",
    "-0",
    "1.5e3",
    '{"a": NaN, "b": Infinity, "c": -Infinity}',
    "NaN",
    '{"a": 1, "a": 2}',
    '{"a": {"b": [1, {"c": null}]}}',
    "[" * 50 + "]" * 50,
    '{"a":' * 50 + "1" + "}" * 50,
    "[" * 100_000,
    '{"a":' * 100_000,
    '{"a": "\\ud800"}',
    '{"a": "\\u00e9\\n"}',
    '{"a": "\x01"}',
    '{"a": 1} x',
    '{"a": 1}{"a": 2}',
    "\x1c{}",
    "{}\x85",
    "{} ",
]


def decoder_corpus():
    for good in (GOOD_TRANSACTION, GOOD_ALERT, *EXTRA_LINES):
        yield good
        yield " " + good
        yield good + " "
        yield good + "\n"
        yield "\t" + good + "\r\n"
        yield "\ufeff" + good  # a BOM
    for good in (GOOD_TRANSACTION, GOOD_ALERT):
        yield from corrupted(good)


def test_decoder_matches_json_loads_on_a_corrupted_corpus():
    corpus = list(decoder_corpus())
    assert len(corpus) > 1500
    values = errors = 0
    for line in corpus:
        expected = outcome(json.loads, line)
        assert outcome(_loads_line, line) == expected, line
        values += expected[0] == "value"
        errors += expected[0] == "raises"
    assert values > 500 and errors > 400  # both sides of the codec are exercised


def old_parse_transaction(record: bytes) -> tuple:
    """The decoder as it read payloads through json.loads."""
    try:
        data = json.loads(record.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DataError(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError("payload is not a JSON object")
    return _transaction_values(data)


def corrupted_payloads() -> list[bytes]:
    """GOOD_TRANSACTION's payload, with a newline, with a BOM, and every
    copy of it with one byte deleted, duplicated or with one bit flipped."""
    good = GOOD_TRANSACTION.encode()
    corpus = [good, good + b"\n", b"\xef\xbb\xbf" + good]
    for i in range(len(good)):
        corpus.append(good[:i] + good[i + 1 :])
        corpus.append(good[:i] + good[i : i + 1] + good[i:])
        corpus.append(good[:i] + bytes([good[i] ^ 0x80]) + good[i + 1 :])  # not UTF-8
        corpus.append(good[:i] + bytes([good[i] ^ 0x01]) + good[i + 1 :])
    return corpus


def test_payload_decoder_matches_the_json_loads_decoder_on_corrupted_bytes():
    corpus = corrupted_payloads()

    def result(fn, record):
        try:
            return "value", fn(record)
        except DataError as exc:
            return "raises", str(exc)

    for record in corpus:
        assert result(_parse_transaction, record) == result(old_parse_transaction, record), record


# ---------------------------------------------------------------------------
# batch decode
# ---------------------------------------------------------------------------

def per_record(records) -> tuple[list, list]:
    """What _parse_transaction gives each of ``records``: the field columns
    of those that decode, and the index and text of each DataError."""
    rows, errors = [], []
    for i, record in enumerate(records):
        try:
            rows.append(_parse_transaction(record))
        except DataError as exc:
            errors.append((i, str(exc)))
    return [list(column) for column in zip(*rows)] or [[] for _ in TRANSACTION_FIELDS], errors


def assert_decodes_as_per_record(records):
    # repr tells apart 1 and 1.0, 0.0 and -0.0, and True and 1
    assert repr(decode_transactions(records)) == repr(per_record(records)), records


def payloads(count: int, seed: int = 4) -> list[bytes]:
    return [transaction_to_json(t).encode() for t in generate(GeneratorConfig(seed=seed, count=count))]


def test_batch_decoder_matches_the_per_record_decoder_on_corrupted_bytes():
    before, after = payloads(2)
    corpus = corrupted_payloads()
    scanned = 0
    for record in corpus:
        assert_decodes_as_per_record([before, record, after])
        scanned += txgen._scan_lines(b"\n".join([before, record, after]), 3) is not None
    # some corruptions leave a canonical line (a digit flipped to a digit),
    # and those batches take the scan
    assert 0 < scanned < len(corpus) // 4


def edited(field: str, text: str) -> bytes:
    """GOOD_TRANSACTION with ``field``'s value text replaced by ``text``."""
    data = json.loads(GOOD_TRANSACTION)
    value = json.dumps(data[field], separators=(",", ":"))
    line = GOOD_TRANSACTION.replace(f'"{field}":{value}', f'"{field}":{text}', 1)
    assert line != GOOD_TRANSACTION
    return line.encode()


ODD_PAYLOADS = {
    "id -0": edited("id", "-0"),
    "amount -0": edited("amount", "-0"),
    "amount -0.0": edited("amount", "-0.0"),
    "amount -0e1": edited("amount", "-0e1"),
    "integer amount": edited("amount", "250"),
    "exponent amount": edited("amount", "2.5E+2"),
    "huge integer amount": edited("amount", "1" + "0" * 400),
    "amount 1e400": edited("amount", "1e400"),
    "amount -1e400": edited("amount", "-1e400"),
    "int64 id": edited("id", str(2**63 - 1)),
    "int64 min timestamp": edited("timestamp", str(-(2**63))),
    "19-digit id past int64": edited("id", "9999999999999999999"),
    "19-digit timestamp past int64": edited("timestamp", str(-(2**63) - 1)),
    "20-digit id": edited("id", "1" * 20),
    "leading zero id": edited("id", "01"),
    "label alias": GOOD_TRANSACTION.replace('"is_laundering"', '"is_laundersing"').encode(),
    "non-ASCII string": edited("payment_currency", '"Zürich"'),
    "escaped string": edited("payment_currency", '"Z\\u00fcrich"'),
    "escaped quote": edited("payment_type", '"a\\"b"'),
    "control character": edited("payment_type", '"a\x01b"'),
    "keys reordered": json.dumps(
        dict(reversed(list(json.loads(GOOD_TRANSACTION).items()))), separators=(",", ":")
    ).encode(),
    "spaces": json.dumps(json.loads(GOOD_TRANSACTION)).encode(),
    "label 1": edited("is_laundering", "1"),
    "trailing newline": GOOD_TRANSACTION.encode() + b"\n",
    "carriage return": GOOD_TRANSACTION.encode() + b"\r",
    "empty": b"",
}


@pytest.mark.parametrize("size", [1, 50, 1000])
@pytest.mark.parametrize("name", sorted(ODD_PAYLOADS))
def test_batch_decoder_matches_the_per_record_decoder_on_odd_payloads(name, size):
    batch = payloads(size)
    batch[size // 2] = ODD_PAYLOADS[name]
    assert_decodes_as_per_record(batch)


def test_a_newline_in_a_payload_or_a_split_object_takes_the_per_record_path():
    a, b, c, d = payloads(4)
    batches = [
        [a, b + b"\n" + c, d],  # one payload holding two canonical lines
        [a, b + b"\n", c],  # a trailing newline, which JSON reads as whitespace
        [a, b'{"k":"', b'"}', d],  # joined at a comma they would read as {"k":","}
        [a + b"\n" + b, b"{not json"],
    ]
    for batch in batches:
        assert_decodes_as_per_record(batch)
    # in the last batch the scan alone finds as many canonical lines as
    # records; the newline count is what refuses it
    assert txgen._scan_lines(b"\n".join(batches[-1]), 2) is not None
    assert [i for i, _ in decode_transactions(batches[-1])[1]] == [0, 1]


@pytest.mark.parametrize("size", [1, 50, 1000])
def test_a_canonical_batch_is_decoded_in_one_scan(monkeypatch, size):
    batch = payloads(size, seed=size)
    expected = per_record(batch)

    def refuse(record):
        raise AssertionError("a canonical batch was decoded record by record")

    monkeypatch.setattr(txgen, "_parse_transaction", refuse)
    assert repr(decode_transactions(batch)) == repr(expected)
    assert expected[1] == []


def test_a_drain_dead_letters_what_the_per_record_decoder_refuses(tmp_path, monkeypatch):
    good = payloads(300, seed=9)
    bad = corrupted_payloads()[::7] + list(ODD_PAYLOADS.values())
    log = EventLog(str(tmp_path / "log"))
    log.create_topic("transactions", partition_count=3)
    for i, payload in enumerate(good):
        log.publish("transactions", str(i % 5).encode(), payload)
        if i < len(bad):
            log.publish("transactions", str(i % 7).encode(), bad[i])

    def drained(group):
        proc = StreamProcessor(
            log, "transactions", group,
            alerts_path=str(tmp_path / group / "alerts.jsonl"),
            dead_letter_path=str(tmp_path / group / "dead.jsonl"),
            batch_max=64,
        )
        proc.drain_all()
        proc.close()
        return [(tmp_path / group / name).read_bytes() for name in ("dead.jsonl", "alerts.jsonl")]

    scanned = drained("scanned")
    monkeypatch.setattr(streamproc, "decode_transactions", per_record)
    assert scanned == drained("per-record")
    dead = [json.loads(line) for line in scanned[0].splitlines()]
    assert len(dead) == sum(1 for record in bad if per_record([record])[1])
    assert {row["partition"] for row in dead} == {0, 1, 2}


@pytest.mark.parametrize("source", [RULE_HIGH_RISK, RULE_CORRIDOR, RULE_VELOCITY])
@pytest.mark.parametrize("tx_id", [-(2**63), -1, 0, 17, 2**63 - 1])
@pytest.mark.parametrize("tick", [0, 42, 2**62])
def test_rule_alert_template_gives_the_alert_line(source, tx_id, tick):
    line = (_RULE_ALERT_LINE % (source, source, tick)) % (tx_id, tx_id)
    assert line == _ALERT_LINE % (tx_id, source, 1.0, source, tick, tx_id)
