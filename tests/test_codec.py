"""The JSON-lines codec against the stdlib calls it stands in for.

transaction_to_json must give the bytes of json.dumps(asdict(t),
separators=(",", ":")), and storage._loads_line the value of
json.loads(line), or the same exception with the same text, on good
lines and on every small corruption of them.
"""

import csv
import json
from dataclasses import asdict, replace

import pytest

from amlstream.errors import DataError
from amlstream.storage import _loads_line
from amlstream.streamproc import _ALERT_LINE
from amlstream.txgen import (
    TRANSACTION_FIELDS,
    GeneratorConfig,
    Transaction,
    _parse_transaction,
    _transaction_values,
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


def test_payload_decoder_matches_the_json_loads_decoder_on_corrupted_bytes():
    good = GOOD_TRANSACTION.encode()
    corpus = [good, good + b"\n", b"\xef\xbb\xbf" + good]
    for i in range(len(good)):
        corpus.append(good[:i] + good[i + 1 :])
        corpus.append(good[:i] + good[i : i + 1] + good[i:])
        corpus.append(good[:i] + bytes([good[i] ^ 0x80]) + good[i + 1 :])  # not UTF-8
        corpus.append(good[:i] + bytes([good[i] ^ 0x01]) + good[i + 1 :])

    def result(fn, record):
        try:
            return "value", fn(record)
        except DataError as exc:
            return "raises", str(exc)

    for record in corpus:
        assert result(_parse_transaction, record) == result(old_parse_transaction, record), record
