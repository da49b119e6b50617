"""Blob and table store contract tests."""

import json
import os

import numpy as np
import pytest

from amlstream.errors import AlreadyExistsError, ConfigError, DataError, NotFoundError
from amlstream.eventlog import EventLog
from amlstream.lifecycle import ModelRegistry
from amlstream.models import EvalMetrics, train_logistic
from amlstream.storage import BlobStore, TableStore
from amlstream.streamproc import StreamProcessor, publish_transaction
from amlstream.txgen import Transaction


# ---------------------------------------------------------------------------
# blobs
# ---------------------------------------------------------------------------

def test_blob_round_trip(tmp_path):
    store = BlobStore(tmp_path)
    data = b"\x00\x01binary\xffpayload"
    store.put_blob("raw", "2023-05-01", "batch-1.jsonl", data)
    assert (tmp_path / "raw" / "2023-05-01" / "batch-1.jsonl").read_bytes() == data
    assert store.get_blob("raw", "2023-05-01", "batch-1.jsonl") == data


def test_blob_missing_raises(tmp_path):
    store = BlobStore(tmp_path)
    with pytest.raises(NotFoundError):
        store.get_blob("raw", "2023-05-01", "nope")


def test_blob_overwrite_replaces_content(tmp_path):
    store = BlobStore(tmp_path)
    store.put_blob("raw", "2023-05-01", "x", b"old")
    store.put_blob("raw", "2023-05-01", "x", b"new")
    assert store.get_blob("raw", "2023-05-01", "x") == b"new"
    # no temp litter left behind
    leftovers = list((tmp_path / "raw" / "2023-05-01").glob("*.tmp"))
    assert leftovers == []


def test_blob_key_validation(tmp_path):
    store = BlobStore(tmp_path)
    with pytest.raises(ConfigError):
        store.put_blob("raw", "May 1", "x", b"")
    with pytest.raises(ConfigError):
        store.put_blob("../etc", "2023-01-01", "x", b"")
    with pytest.raises(ConfigError):
        store.put_blob("raw", "2023-01-01", "a/b", b"")


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def make_store(tmp_path):
    store = TableStore(tmp_path / "tables")
    store.create_table("alerts", key="key")
    return store


def lines(rows):
    """Rows as the one-object JSON lines a table stores."""
    return [json.dumps(row) for row in rows]


def test_upsert_is_idempotent_per_key(tmp_path):
    store = make_store(tmp_path)
    row = {"key": "1:rule", "transaction_id": 1, "source": "rule", "score": 1.0, "month": 2}
    assert store.upsert_rows("alerts", lines([row])) == 1
    store.upsert_rows("alerts", lines([row]))
    assert store.count("alerts") == 1
    updated = dict(row, score=0.5)
    store.upsert_rows("alerts", lines([updated]))
    assert store.query("alerts")[0]["score"] == 0.5


def test_table_survives_restart_with_journal_and_checkpoint(tmp_path):
    store = make_store(tmp_path)
    rows = alert_rows(20)
    store.upsert_rows("alerts", lines(rows[:10]))
    store.upsert_rows("alerts", lines(rows[10:]))
    store.close()

    again = TableStore(tmp_path / "tables")
    assert again.count("alerts") == 20
    assert again.query("alerts") == sorted(rows, key=lambda r: r["key"])
    again.close()


def alert_rows(n):
    return [
        {"key": f"k{i}", "transaction_id": i, "source": "rule", "score": 1.0, "month": 1}
        for i in range(n)
    ]


def test_torn_journal_tail_is_dropped_and_truncated(tmp_path):
    store = make_store(tmp_path)
    rows = alert_rows(4)
    store.upsert_rows("alerts", lines(rows[:3]))
    store.close()
    journal = tmp_path / "tables" / "alerts" / "journal.jsonl"
    whole = journal.read_bytes()
    journal.write_bytes(whole + b'{"key": "k3", "month": 1, "sco')  # crash mid-append

    again = TableStore(tmp_path / "tables")
    assert again.query("alerts") == rows[:3]
    assert journal.read_bytes() == whole  # the next append starts on a clean line
    again.upsert_rows("alerts", lines(rows[3:]))
    again.close()
    assert TableStore(tmp_path / "tables").query("alerts") == rows


def test_bad_journal_line_mid_file_names_path_and_line(tmp_path):
    store = make_store(tmp_path)
    store.upsert_rows("alerts", lines(alert_rows(3)))
    store.close()
    journal = tmp_path / "tables" / "alerts" / "journal.jsonl"
    text = journal.read_text().splitlines(keepends=True)
    text[1] = '{"key": "k1", "sco\n'
    journal.write_text("".join(text))
    again = TableStore(tmp_path / "tables")  # opening reads only the schemas
    with pytest.raises(DataError, match=r"journal\.jsonl:2: bad journal line"):
        again.query("alerts")


def test_table_is_read_from_its_journal_not_from_memory(tmp_path):
    reader = make_store(tmp_path)
    writer = TableStore(tmp_path / "tables")
    writer.upsert_rows("alerts", lines(alert_rows(2)))
    assert reader.query("alerts") == alert_rows(2)
    writer.upsert_rows("alerts", lines([dict(alert_rows(1)[0], score=0.5)]))
    assert reader.count("alerts") == 2
    assert reader.query("alerts")[0]["score"] == 0.5
    writer.close()


def table_upsert(tmp_path):
    store = make_store(tmp_path)
    return tmp_path / "tables" / "alerts" / "journal.jsonl", lambda: store.upsert_rows(
        "alerts", lines(alert_rows(3))
    )


def registry_register(tmp_path):
    registry = ModelRegistry(str(tmp_path / "registry.jsonl"), BlobStore(tmp_path / "blobs"))
    X = np.random.default_rng(1).standard_normal((30, 3))
    model = train_logistic(X, X[:, 0] > 0, {"max_iters": 5}, schema_hash="a" * 16)
    metrics = EvalMetrics(tn=1, fp=0, fn=0, tp=1, accuracy=1.0, f1=1.0, threshold=0.5)
    return tmp_path / "registry.jsonl", lambda: registry.register(model, metrics, {}, tick=1)


def stream_drain(tmp_path):
    log = EventLog(str(tmp_path / "log"))
    log.create_topic("transactions", partition_count=1)
    for i in range(3):  # a high-risk payment type, so the batch has alerts to write
        publish_transaction(
            log,
            "transactions",
            Transaction(i, i, 10.0, "GBP", "GBP", "UK", "UK", "Cash Deposit", False),
        )
    processor = StreamProcessor(
        log,
        "transactions",
        "stream",
        alerts_path=str(tmp_path / "alerts.jsonl"),
        dead_letter_path=str(tmp_path / "dead.jsonl"),
    )
    return tmp_path / "alerts.jsonl", processor.drain_once


@pytest.mark.parametrize("append", [table_upsert, registry_register, stream_drain])
def test_journal_append_is_fsynced_before_it_returns(tmp_path, monkeypatch, append):
    journal, call = append(tmp_path)
    synced = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        st = os.fstat(fd)
        synced.append((st.st_dev, st.st_ino))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    call()
    st = os.stat(journal)
    assert synced.count((st.st_dev, st.st_ino)) == 1


def test_create_table_idempotent_and_conflicting(tmp_path):
    store = make_store(tmp_path)
    store.create_table("alerts", key="key")  # same key: fine
    with pytest.raises(AlreadyExistsError):
        store.create_table("alerts", key="id")
    with pytest.raises(ConfigError):
        store.create_table("../x", key="a")


def test_schema_holds_name_and_key_and_older_schemas_load(tmp_path):
    make_store(tmp_path)
    schema = tmp_path / "tables" / "alerts" / "schema.json"
    assert json.loads(schema.read_text()) == {"name": "alerts", "key": "key"}
    # the older form also declared column types; the columns are not read
    schema.write_text(json.dumps({"name": "alerts", "columns": {"key": "str"}, "key": "key"}))
    again = TableStore(tmp_path / "tables")
    again.create_table("alerts", key="key")  # same key: the file is kept
    again.upsert_rows("alerts", lines(alert_rows(2)))
    assert again.query("alerts") == alert_rows(2)
    assert "columns" in json.loads(schema.read_text())


def test_missing_table_raises(tmp_path):
    store = TableStore(tmp_path / "tables")
    with pytest.raises(NotFoundError):
        store.upsert_rows("ghost", [])


def test_query_results_sorted_by_key(tmp_path):
    store = make_store(tmp_path)
    for key in ("z", "a", "m"):
        store.upsert_rows(
            "alerts",
            lines([{"key": key, "transaction_id": 1, "source": "rule", "score": 1.0, "month": 1}]),
        )
    assert [r["key"] for r in store.query("alerts")] == ["a", "m", "z"]


def test_journal_lines_are_json(tmp_path):
    store = make_store(tmp_path)
    line = '{"key":"a","transaction_id":7,"source":"rule","score":0.25,"month":3}'
    store.upsert_rows("alerts", [line])
    store.close()
    journal = (tmp_path / "tables" / "alerts" / "journal.jsonl").read_text()
    assert journal == line + "\n"  # stored as given, not re-encoded
    assert json.loads(journal)["transaction_id"] == 7
