"""Blob and table store contract tests."""

import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from amlstream import storage
from amlstream.errors import AlreadyExistsError, ConfigError, DataError, NotFoundError
from amlstream.eventlog import EventLog
from amlstream.lifecycle import ModelRegistry
from amlstream.models import EvalMetrics, train_logistic
from amlstream.storage import (
    COMPACTION_NAME,
    BlobStore,
    Categories,
    RowType,
    TableStore,
    to_columns,
)
from amlstream.streamproc import ALERT_ROWS, StreamProcessor, publish_transaction
from amlstream.txgen import (
    TRANSACTION_ROWS,
    GeneratorConfig,
    Transaction,
    generate,
    transaction_to_json,
    transaction_values,
)


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


def test_journal_line_that_is_not_utf8_names_path_and_line(tmp_path):
    journal = tmp_path / "journal.jsonl"
    journal.write_bytes(b'{"a": "x"}\n \xe2\x80\xa8 \n{"a": "\xffy"}\n')
    # a line of Unicode whitespace is blank; a byte that is not UTF-8
    # inside a string value makes its line bad, not a lone surrogate
    with pytest.raises(DataError, match=r"journal\.jsonl:3: bad journal line: UnicodeDecodeError"):
        storage.read_journal(journal, lambda row: row)
    journal.write_bytes(b'{"a": "x"}\n \xe2\x80\xa8 \n{"a": "\xc3\xbf\\u00ff"}\n')
    assert storage.read_journal(journal, lambda row: row) == [{"a": "x"}, {"a": "\xff\xff"}]


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


# ---------------------------------------------------------------------------
# the columnar compaction beside a journal
# ---------------------------------------------------------------------------

def tx_line(t):
    return transaction_to_json(t)


def hand_over(store, table, lines, values):
    """Upsert ``lines`` as a command does, then hand them over to the
    table with ``values``, each line's values as its RowType decodes
    them; returns what upsert_rows returned."""
    journal = store.journal_path(table)
    start = journal.stat().st_size if journal.exists() else 0
    written = store.upsert_rows(table, lines)
    end = start + sum(len(line.encode("utf-8")) + 1 for line in lines)
    row_type = TABLE_TYPES[table][1]
    store.appended(table, start, end, len(values), lambda: to_columns(row_type, values))
    return written


def hand_over_transactions(store, transactions):
    return hand_over(
        store, "transactions", [tx_line(t) for t in transactions],
        [transaction_values(t) for t in transactions],
    )


def compact_older_lines(store, table):
    """Hand the table an empty run at the journal's end with COMPACT_ROWS
    at 1, so that it compacts the lines past its compaction."""
    end = store.journal_path(table).stat().st_size
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(storage, "COMPACT_ROWS", 1)
        store.appended(table, end, end, 0, lambda: to_columns(TABLE_TYPES[table][1], []))


def transactions_store(root):
    store = TableStore(root)
    store.create_table("transactions", key="id", row_type=TRANSACTION_ROWS)
    return store


def journal_oracle(root):
    """The table as columns, folded from its journal alone."""
    store = transactions_store(root)
    decode = TRANSACTION_ROWS.decode
    return to_columns(TRANSACTION_ROWS, [decode(row) for row in store.query("transactions")])


def assert_same_columns(got, want):
    assert list(got) == list(want)
    for name, column in want.items():
        if isinstance(column, Categories):
            assert got[name].vocabulary == column.vocabulary, name
            np.testing.assert_array_equal(got[name].codes, column.codes, err_msg=name)
        else:
            assert got[name].dtype == column.dtype, name
            np.testing.assert_array_equal(got[name], column, err_msg=name)


def random_upserts(store, rng, batches, ids):
    """Upsert ``batches`` batches of transactions whose ids are drawn from
    ``ids``, so later batches replace earlier rows across compactions."""
    pool = list(generate(GeneratorConfig(seed=int(rng.integers(1_000)), count=batches * 40)))
    for b in range(batches):
        window = [
            replace(t, id=int(rng.integers(1, ids)), amount=float(rng.integers(1, 10**6)) / 100)
            for t in pool[b * 40 : b * 40 + int(rng.integers(1, 41))]
        ]
        hand_over_transactions(store, window)


@pytest.mark.parametrize("seed", range(4))
def test_fold_over_compaction_and_tail_equals_the_journal_fold(tmp_path, monkeypatch, seed):
    monkeypatch.setattr(storage, "COMPACT_ROWS", 50)
    rng = np.random.default_rng(seed)
    root = tmp_path / "tables"
    store = transactions_store(root)
    journal = store.journal_path("transactions")
    for session in range(4):
        random_upserts(store, rng, batches=int(rng.integers(1, 8)), ids=300)
        store.close()
        if session % 2:  # a crash tore the last append
            with open(journal, "ab") as fh:
                fh.write(b'{"id": 7, "timestamp": ')
        reader = transactions_store(root)
        assert_same_columns(reader.columns("transactions"), journal_oracle(root))
        assert reader.count("transactions") == len(journal_oracle(root)["id"])
        store = transactions_store(root)
    assert (root / "transactions" / COMPACTION_NAME).exists()


def garble(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(raw)


def rewrite_compaction(edit):
    """Rewrite the compaction with ``edit`` applied to its JSON header and
    its arrays, each checked for itself when the file is read."""
    def corrupt(path):
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        header = json.loads(arrays.pop("header").tobytes())
        edit(header, arrays)
        text = json.dumps(header).encode()
        with open(path, "wb") as fh:
            np.savez(fh, header=np.frombuffer(text, dtype=np.uint8), **arrays)

    return corrupt


def swap_first_keys(header, arrays):
    arrays["column.id"][[0, 1]] = arrays["column.id"][[1, 0]]


def sorted_key_journal(path):
    """Rewrite the journal as older versions wrote it, sorted-key rows,
    with one amount changed as well."""
    journal = path.parent / "journal.jsonl"
    rows = [json.loads(line) for line in journal.read_text().splitlines()]
    rows[0]["amount"] = 0.5
    journal.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))


def append_rows(path):
    more = [replace(t, id=t.id + 10_000) for t in generate(GeneratorConfig(seed=9, count=30))]
    more += [replace(t, id=1, amount=2.5) for t in more[:1]]  # replaces a compacted row
    with open(path.parent / "journal.jsonl", "a") as fh:
        fh.write("".join(tx_line(t) + "\n" for t in more))


# state name -> how to put the compaction (the file at the path given) in it
COMPACTION_STATES = {
    "valid": lambda path: None,
    "no_file": lambda path: path.unlink(),
    "cut_file": lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    "garbled_bytes": garble,
    "wrong_format": rewrite_compaction(lambda header, arrays: header.update(format=99)),
    "length_past_journal_end": rewrite_compaction(
        lambda header, arrays: header.update(length=header["length"] + 1)
    ),
    "journal_rewritten_under_it": sorted_key_journal,
    "rows_appended_past_it": append_rows,
    "keys_not_increasing": rewrite_compaction(swap_first_keys),
    "code_outside_vocabulary": rewrite_compaction(
        lambda header, arrays: header["vocabularies"]["payment_type"].pop()
    ),
    "short_column": rewrite_compaction(
        lambda header, arrays: arrays.update({"column.amount": arrays["column.amount"][1:]})
    ),
}


@pytest.fixture(scope="module")
def compacted(tmp_path_factory):
    """A transactions table of 200 rows whose compaction covers all of them."""
    root = tmp_path_factory.mktemp("compacted") / "tables"
    store = transactions_store(root)
    rows = list(generate(GeneratorConfig(seed=4, count=200)))
    store.upsert_rows("transactions", [tx_line(t) for t in rows])
    store.close()
    store = transactions_store(root)
    compact_older_lines(store, "transactions")  # compacts the 200 older lines
    store.close()
    assert (root / "transactions" / COMPACTION_NAME).exists()
    return root


# table name -> its primary key and RowType
TABLE_TYPES = {"transactions": ("id", TRANSACTION_ROWS), "alerts": ("alert_id", ALERT_ROWS)}


def table_store(root, table, decode=None):
    """A store declaring ``table``, its RowType decoding through ``decode`` if given."""
    key, row_type = TABLE_TYPES[table]
    store = TableStore(root)
    store.create_table(table, key=key, row_type=replace(row_type, decode=decode or row_type.decode))
    return store


def fold_oracle(root, table):
    """The table as columns, folded from its journal alone and ordered by
    the columns its key is made of."""
    _, row_type = TABLE_TYPES[table]
    names = [name for name, _ in row_type.columns]
    positions = [names.index(name) for name in row_type.key]
    rows = [row_type.decode(row) for row in table_store(root, table).query(table)]
    return to_columns(row_type, sorted(rows, key=lambda values: [values[p] for p in positions]))


ALERT_SOURCES = ("rule:high_risk_type", "model:v2")  # not in vocabulary order


def alert_line(tx_id, source, score=1.0, tick=0, alert_id=None):
    """An alerts-table row as the stream writes it."""
    row = {"alert_id": alert_id or f"{tx_id}:{source}", "score": score, "source": source,
           "tick": tick, "transaction_id": tx_id}
    return json.dumps(row, sort_keys=True)


@pytest.fixture(scope="module")
def compacted_alerts(tmp_path_factory):
    """An alerts table of 200 rows, two sources on each of 100 transactions
    appended in descending id order, whose compaction covers all of them."""
    root = tmp_path_factory.mktemp("compacted_alerts") / "tables"
    store = table_store(root, "alerts")
    store.upsert_rows("alerts", [alert_line(t, s, tick=t) for t in range(100, 0, -1) for s in ALERT_SOURCES])
    store.close()
    store = table_store(root, "alerts")
    compact_older_lines(store, "alerts")  # compacts the 200 older lines
    store.close()
    assert (root / "alerts" / COMPACTION_NAME).exists()
    return root


def swap_alert_rows(column, i, j):
    """Swap one column's values in two rows of an alerts compaction."""
    def edit(header, arrays):
        arrays["column." + column][[i, j]] = arrays["column." + column][[j, i]]
    return rewrite_compaction(edit)


def rescore_first_alert(path):
    journal = path.parent / "journal.jsonl"
    rows = [json.loads(line) for line in journal.read_text().splitlines()]
    rows[0]["score"] = 0.5
    journal.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))


def append_alerts(*lines):
    def append(path):
        with open(path.parent / "journal.jsonl", "a") as fh:
            fh.write("".join(line + "\n" for line in lines))
    return append


# state name -> how to put an alerts compaction (the file at the path given)
# in it; the compaction's rows, in key order, start (1, "model:v2"),
# (1, "rule:high_risk_type"), (2, "model:v2")
ALERT_COMPACTION_STATES = {
    **{state: COMPACTION_STATES[state] for state in (
        "valid", "no_file", "cut_file", "garbled_bytes", "wrong_format", "length_past_journal_end"
    )},
    "journal_rewritten_under_it": rescore_first_alert,
    "rows_appended_past_it": append_alerts(
        *[alert_line(t, "rule:velocity", tick=t) for t in range(200, 230)],
        alert_line(1, "model:v2", score=0.25),  # replaces a compacted row
    ),
    "keys_not_increasing": swap_alert_rows("transaction_id", 0, 2),
    "key_pairs_not_increasing": swap_alert_rows("source", 0, 1),
    "code_outside_vocabulary": rewrite_compaction(
        lambda header, arrays: header["vocabularies"]["source"].pop()
    ),
    "short_column": rewrite_compaction(
        lambda header, arrays: arrays.update({"column.score": arrays["column.score"][1:]})
    ),
    # replaces the row stored as 7:model:v2 with one whose values form 8:model:v2
    "stored_key_not_its_values": append_alerts(alert_line(8, "model:v2", alert_id="7:model:v2")),
}

# (table, state) -> how many rows reading the table decodes; a compaction
# that fails a check leaves all 200 rows to decode
DECODED = {
    ("transactions", "valid"): 0,
    ("transactions", "rows_appended_past_it"): 31,
    ("alerts", "valid"): 0,
    ("alerts", "rows_appended_past_it"): 31,
    ("alerts", "stored_key_not_its_values"): 1 + 200,  # the row past it, then the fold
}


@pytest.mark.parametrize(
    "table, state",
    [pytest.param("transactions", state, id=state) for state in sorted(COMPACTION_STATES)]
    + [pytest.param("alerts", state, id=f"alerts-{state}") for state in sorted(ALERT_COMPACTION_STATES)],
)
def test_every_compaction_state_reads_the_journal_fold(compacted, compacted_alerts, tmp_path, table, state):
    root = tmp_path / "tables"
    shutil.copytree({"transactions": compacted, "alerts": compacted_alerts}[table], root)
    states = {"transactions": COMPACTION_STATES, "alerts": ALERT_COMPACTION_STATES}[table]
    states[state](root / table / COMPACTION_NAME)
    decoded = []

    def counting_decode(row):
        decoded.append(row)
        return TABLE_TYPES[table][1].decode(row)

    store = table_store(root, table, counting_decode)
    want = fold_oracle(root, table)
    assert_same_columns(store.columns(table), want)
    assert store.count(table) == len(table_store(root, table).query(table))
    # an adopted compaction leaves only the rows past it to decode
    assert len(decoded) == DECODED.get((table, state), 200)


def counting_store(root, decoded):
    """A transactions store whose RowType records the id of each row it decodes."""
    def counting_decode(row):
        decoded.append(row["id"])
        return TRANSACTION_ROWS.decode(row)

    store = TableStore(root)
    store.create_table("transactions", key="id", row_type=RowType(TRANSACTION_ROWS.columns, counting_decode))
    return store


def test_a_compaction_extended_from_an_adopted_one_is_adopted(tmp_path):
    """The second session's compaction extends the CRC of the first, which
    it adopted, over only its own rows; the CRC a reader takes over the
    journal in 1 MiB chunks must still match it."""
    root = tmp_path / "tables"
    rows = list(generate(GeneratorConfig(seed=3, count=2 * storage.COMPACT_ROWS)))
    compaction = root / "transactions" / COMPACTION_NAME
    for session in range(2):
        store = transactions_store(root)
        batch = rows[session * storage.COMPACT_ROWS : (session + 1) * storage.COMPACT_ROWS]
        hand_over_transactions(store, batch)
        store.close()
        with np.load(compaction) as npz:
            assert json.loads(npz["header"].tobytes())["rows"] == len(batch) * (session + 1)
    assert store.journal_path("transactions").stat().st_size > 1 << 20

    decoded = []
    store = counting_store(root, decoded)
    assert_same_columns(store.columns("transactions"), journal_oracle(root))
    assert decoded == []


def test_a_bad_line_past_a_compaction_is_named_by_its_line_in_the_journal(compacted, tmp_path):
    root = tmp_path / "tables"
    shutil.copytree(compacted, root)
    more = [replace(t, id=t.id + 10_000) for t in generate(GeneratorConfig(seed=9, count=6))]
    journal = root / "transactions" / "journal.jsonl"
    with open(journal, "a") as fh:
        fh.write("".join(tx_line(t) + "\n" for t in more[:5]))
    decoded = []
    assert len(counting_store(root, decoded).columns("transactions")["id"]) == 205
    assert sorted(decoded) == sorted(t.id for t in more[:5])  # the compaction was adopted
    with open(journal, "a") as fh:
        fh.write('{"id": 7, "amount": \n' + tx_line(more[5]) + "\n")
    with pytest.raises(DataError, match=r"journal\.jsonl:206: bad journal line"):
        transactions_store(root).columns("transactions")


# a source -> what its alerts' transaction ids stand for as transaction ids
SOURCE_IDS = {"rule:velocity": 0, "model:v1": 100, "model:v2": 200}


def alerts_run(store, journal, pairs, tick):
    """A stream's alert lines for ``pairs``, appended to the journal
    itself; their values."""
    with open(journal, "a") as fh:
        fh.write("".join(alert_line(t, s, tick=tick) + "\n" for t, s in pairs))
    return [(t, s, 1.0, tick) for t, s in pairs]


def transactions_run(store, journal, pairs, tick):
    """Transactions standing for ``pairs``, upserted; their values."""
    rows = [replace(make_transaction(), id=t + SOURCE_IDS[s], timestamp=tick) for t, s in pairs]
    store.upsert_rows("transactions", [tx_line(t) for t in rows])
    return [transaction_values(t) for t in rows]


@pytest.mark.parametrize(
    "table, append",
    [pytest.param(t, run, id=t) for t, run in (("alerts", alerts_run), ("transactions", transactions_run))],
)
def test_handed_over_rows_compact_once_they_double_the_rows_covered(tmp_path, monkeypatch, table, append):
    """appended rewrites the compaction only when the rows past it are at
    least COMPACT_ROWS and at least the rows it covers, builds their columns
    only then, and does nothing unless the journal ends where they do."""
    monkeypatch.setattr(storage, "COMPACT_ROWS", 10)
    root = tmp_path / "tables"
    store = table_store(root, table)
    journal = store.journal_path(table)
    journal.touch()
    built = []

    def hand_over(pairs, foreign=""):
        """Append rows for ``pairs`` as a writer does, then ``foreign``
        lines of another writer, and hand the rows over."""
        start = journal.stat().st_size
        values = append(store, journal, pairs, len(built))
        end = journal.stat().st_size
        with open(journal, "a") as fh:
            fh.write(foreign)

        def columns():
            built.append(len(values))
            return to_columns(TABLE_TYPES[table][1], values)

        store.appended(table, start, end, len(values), columns)
        with np.load(root / table / COMPACTION_NAME) as npz:
            return json.loads(npz["header"].tobytes())["rows"]

    with pytest.raises(FileNotFoundError):
        hand_over([(t, "rule:velocity") for t in range(9)])  # fewer than COMPACT_ROWS
    assert hand_over([(t, "rule:velocity") for t in range(9, 12)]) == 12  # 9 older lines, 3 new
    assert hand_over([(t, "model:v1") for t in range(11)]) == 12  # fewer than the 12 covered
    assert hand_over([(t, "rule:velocity") for t in range(5)]) == 23  # 11 older, 5 replacing
    foreign = {"alerts": alert_line(99, "rule:velocity"), "transactions": tx_line(make_transaction())}
    assert hand_over([(t, "model:v2") for t in range(30)], foreign[table] + "\n") == 23
    assert built == [3, 5]
    assert_same_columns(table_store(root, table).columns(table), fold_oracle(root, table))


def test_compaction_from_handed_columns_equals_one_from_decoded_lines(tmp_path, monkeypatch):
    monkeypatch.setattr(storage, "COMPACT_ROWS", 100)
    rows = list(generate(GeneratorConfig(seed=6, count=150)))
    rows += [replace(t, id=3, amount=1.5) for t in rows[:2]]
    handed = transactions_store(tmp_path / "handed")
    hand_over_transactions(handed, rows)
    decoded = transactions_store(tmp_path / "decoded")
    decoded.upsert_rows("transactions", [tx_line(t) for t in rows])  # only appends
    decoded.close()
    assert not (tmp_path / "decoded" / "transactions" / COMPACTION_NAME).exists()
    compact_older_lines(transactions_store(tmp_path / "decoded"), "transactions")
    a, b = (tmp_path / d / "transactions" / COMPACTION_NAME for d in ("handed", "decoded"))
    assert a.read_bytes() == b.read_bytes()


def test_a_row_that_does_not_decode_is_never_compacted(tmp_path, monkeypatch):
    monkeypatch.setattr(storage, "COMPACT_ROWS", 10)
    store = transactions_store(tmp_path)
    bad = json.loads(tx_line(next(generate(GeneratorConfig(seed=1, count=1)))))
    store.upsert_rows("transactions", [json.dumps(dict(bad, id=999, amount="x"))])
    store.close()
    store = transactions_store(tmp_path)
    rows = list(generate(GeneratorConfig(seed=2, count=20)))
    assert hand_over_transactions(store, rows) == 20
    assert not (tmp_path / "transactions" / COMPACTION_NAME).exists()
    with pytest.raises(DataError, match="journal.jsonl: unreadable"):
        store.columns("transactions")  # the bad row still wins its key


def test_a_tail_key_of_another_type_still_names_the_journal(compacted, tmp_path):
    root = tmp_path / "tables"
    shutil.copytree(compacted, root)
    with open(root / "transactions" / "journal.jsonl", "a") as fh:
        fh.write(json.dumps(dict(json.loads(tx_line(make_transaction())), id="5")) + "\n")
    with pytest.raises(DataError, match="journal.jsonl: unreadable"):
        transactions_store(root).columns("transactions")


def make_transaction():
    return Transaction(1, 0, 1.0, "GBP", "GBP", "UK", "UK", "ACH", False)


def test_string_values_keep_trailing_nul_characters(tmp_path, monkeypatch):
    # NumPy string arrays would read "ACH\0" back as "ACH"
    monkeypatch.setattr(storage, "COMPACT_ROWS", 2)
    rows = [
        replace(make_transaction(), id=1, payment_type="ACH"),
        replace(make_transaction(), id=2, payment_type="ACH\x00"),
        replace(make_transaction(), id=3, sender_bank_location="\x00"),
    ]
    store = transactions_store(tmp_path)
    hand_over_transactions(store, rows)
    assert (tmp_path / "transactions" / COMPACTION_NAME).exists()
    columns = transactions_store(tmp_path).columns("transactions")
    assert columns["payment_type"].vocabulary == ("ACH", "ACH\x00")
    assert columns["sender_bank_location"].vocabulary == ("\x00", "UK")
    assert_same_columns(columns, journal_oracle(tmp_path))
