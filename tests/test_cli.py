"""End-to-end tests for the command line interface.

Each flow runs in-process through cli.main so exit codes and console
output are observable. Datasets are kept small; model settings are
reduced through the config file so the suite stays fast.
"""

import builtins
import hashlib
import itertools
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict, replace

import pytest

from amlstream import cli, eventlog, lifecycle, storage, streamproc, txgen
from amlstream.config import PipelineConfig
from amlstream.eventlog import EventLog
from amlstream.lifecycle import ModelRegistry
from amlstream.storage import BlobStore, TableStore
from amlstream.txgen import (
    GeneratorConfig,
    generate,
    read_dataset,
    transaction_to_json,
    write_jsonl,
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli_process(argv):
    """Run the CLI in a fresh interpreter, as an operator's shell would."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run(
        [sys.executable, "-m", "amlstream.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def write_config(path, **overrides):
    base = {
        "seed": 11,
        "generator": {"count": 3000},
        "topic": {"partitions": 2},
        "models": {
            "logistic_regression": {"max_iters": 60},
            "random_forest": {"n_trees": 5},
        },
    }
    base.update(overrides)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(base, handle)
    return str(path)


DEMO_GENERATOR = {
    "count": 6000,
    "fraud_rate_by_type": {
        "Credit Card": 0.001,
        "Debit Card": 0.001,
        "Cheque": 0.001,
        "ACH": 0.001,
        "Cross-border": 0.60,
        "Cash Withdrawal": 0.02,
        "Cash Deposit": 0.85,
    },
}


def demo_config(tmp_path, name, **drift_overrides):
    drift = {"window": 2000, "f1_guard": 0.05}
    drift.update(drift_overrides)
    return write_config(
        tmp_path / name,
        seed=7,
        generator=dict(DEMO_GENERATOR),
        data_dir=str(tmp_path / f"{name}.data"),
        report_dir=str(tmp_path / f"{name}.reports"),
        stream={"cadence": 1000, "batch_max": 2000},
        drift=drift,
        models={
            "logistic_regression": {"max_iters": 120},
            "random_forest": {"n_trees": 8},
        },
    )


# ---------------------------------------------------------------------------
# exit codes and argument handling
# ---------------------------------------------------------------------------

def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kafka": {"brokers": 3}}')
    assert cli.main(["--config", str(path), "generate", "--count", "5"]) == 2
    assert "config.kafka" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, argv, named",
    [
        ({"seed": "x"}, [], "seed"),
        ({"topic": {"partitions": "4"}}, [], "topic.partitions"),
        ({"stream": {"batch_max": 2.5}}, [], "stream.batch_max"),
        ({"rules": {"enable_velocity": 1}}, [], "rules.enable_velocity"),
        ({"drift": {"psi_threshold": True}}, [], "drift.psi_threshold"),
        ({"seed": -3}, [], "seed"),
        ({}, ["--seed", "-1"], "seed"),
        ({}, ["stream", "--rate", "0"], "--rate"),
        ({}, ["stream", "--rate", "-5"], "--rate"),
        ({"generator": {"count": "x"}}, [], "generator.count"),
        ({"generator": {"base_amount": True}}, [], "generator.base_amount"),
        ({"generator": {"currency_weights": {"GBP": "1"}}}, [], "generator.currency_weights.GBP"),
        ({"models": {"random_forest": {"n_trees": "5"}}}, [], "models.random_forest.n_trees"),
        ({"models": {"random_forest": {"features_per_split": 2.0}}}, [],
         "models.random_forest.features_per_split"),
        ({"models": {"decision_tree": {"max_depth": 2.5}}}, [], "models.decision_tree.max_depth"),
        ({"models": {"logistic_regression": {"l2": "0"}}}, [], "models.logistic_regression.l2"),
        ({"topic": 3}, [], "topic"),
        ({"generator": []}, [], "generator"),
        ({"rules": {"high_risk_types": [[1]]}}, [], "rules.high_risk_types"),
        ({"rules": {"high_risk_types": [1, 2]}}, [], "rules.high_risk_types"),
        ({"rules": {"high_risk_types": 5}}, [], "rules.high_risk_types"),
        # a config file that is not UTF-8 or nests too deep is named by its path
        pytest.param(b'{"seed": "\xff"}', [], "config.json", id="not-utf8-config"),
        pytest.param(b"[" * 100_000, [], "config.json", id="nested-config"),
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, config, argv, named):
    path = tmp_path / "config.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(json.dumps({"data_dir": str(tmp_path / "data"), **config}))
    command = argv if "stream" in argv else argv + ["generate", "--count", "5"]
    proc = run_cli_process(["--config", str(path), *command])
    assert proc.returncode == 2, proc.stderr
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("decision_tree", "min_leaf", 0),
        ("decision_tree", "max_depth", -1),
        ("random_forest", "features_per_split", 0),
        ("random_forest", "features_per_split", -2),
        ("random_forest", "n_trees", 0),
        ("random_forest", "min_leaf", 0),
        ("logistic_regression", "max_iters", -1),
        ("logistic_regression", "tolerance", -1e-6),
        ("logistic_regression", "l2", -0.5),
    ],
)
def test_out_of_range_hyperparameter_exits_2_before_training(tmp_path, capsys, kind, key, value):
    data = tmp_path / "data"
    path = write_config(tmp_path / "config.json", data_dir=str(data), models={kind: {key: value}})
    # without the config check, train on an empty data dir would exit 4
    assert cli.main(["--config", path, "train"]) == 2
    assert f"models.{kind}.{key}" in capsys.readouterr().err
    assert not data.exists()


def test_missing_config_file_exits_3(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["--config", missing, "generate", "--count", "5"]) == 3
    assert "filesystem error" in capsys.readouterr().err


def test_config_must_be_json_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert cli.main(["--config", str(path), "generate", "--count", "5"]) == 2


def test_generate_requires_count(tmp_path, capsys):
    assert cli.main(["--data-dir", str(tmp_path), "generate"]) == 2
    assert "count" in capsys.readouterr().err


def test_generate_rejects_unknown_extension(tmp_path, capsys):
    code = cli.main(
        [
            "--data-dir",
            str(tmp_path),
            "generate",
            "--count",
            "5",
            "--out",
            str(tmp_path / "data.parquet"),
        ]
    )
    assert code == 2


def test_report_without_data_exits_4(tmp_path, capsys):
    assert cli.main(["--data-dir", str(tmp_path / "d"), "report"]) == 4
    assert "ingest" in capsys.readouterr().err


def test_train_without_data_exits_4(tmp_path, capsys):
    assert cli.main(["--data-dir", str(tmp_path / "d"), "train"]) == 4
    assert "ingest" in capsys.readouterr().err


GOOD_LINE = b'{"id":1,"timestamp":5,"amount":1.0,"payment_currency":"GBP",' \
    b'"received_currency":"GBP","sender_bank_location":"UK",' \
    b'"receiver_bank_location":"UK","payment_type":"ACH","is_laundering":false}'


# name -> (file content, what stderr names); the bad record is on line 2
BAD_DATASETS = {
    "number.jsonl": (GOOD_LINE + b"\n5\n", "line 2: payload is not a JSON object"),
    "null.jsonl": (GOOD_LINE + b"\nnull\n", "line 2: payload is not a JSON object"),
    "string.jsonl": (GOOD_LINE + b'\n"x"\n', "line 2: payload is not a JSON object"),
    "latin1.jsonl": (GOOD_LINE + b"\n\xff\xfe\n", "line 2: payload is not valid JSON"),
    "overflow.jsonl": (
        GOOD_LINE + b"\n" + GOOD_LINE.replace(b'"timestamp":5', b'"timestamp":1e400'),
        "line 2: malformed transaction record",
    ),
    "nested.jsonl": (GOOD_LINE + b"\n" + b"[" * 100_000 + b"\n", "line 2: payload is not valid JSON"),
    "nan_amount.jsonl": (
        GOOD_LINE + b"\n" + GOOD_LINE.replace(b'"amount":1.0', b'"amount":NaN'),
        "line 2: malformed transaction record: amount nan is not finite",
    ),
    "infinite_amount.jsonl": (
        GOOD_LINE + b"\n" + GOOD_LINE.replace(b'"amount":1.0', b'"amount":1e400'),
        "line 2: malformed transaction record: amount inf is not finite",
    ),
    # int() would truncate these, and two ids could then land on one key
    "fractional_id.jsonl": (
        GOOD_LINE + b"\n" + GOOD_LINE.replace(b'"id":1', b'"id":2.5'),
        "line 2: malformed transaction record: id 2.5 is not an integer",
    ),
    "fractional_timestamp.jsonl": (
        GOOD_LINE + b"\n" + GOOD_LINE.replace(b'"timestamp":5', b'"timestamp":7.9'),
        "line 2: malformed transaction record: timestamp 7.9 is not an integer",
    ),
    "fractional_label.jsonl": (
        GOOD_LINE + b"\n" + GOOD_LINE.replace(b'"is_laundering":false', b'"is_laundering":0.4'),
        "line 2: unparseable laundering label: 0.4",
    ),
    "label_two.jsonl": (
        GOOD_LINE + b"\n" + GOOD_LINE.replace(b'"is_laundering":false', b'"is_laundering":2'),
        "line 2: unparseable laundering label: 2",
    ),
    # the warehouse keeps ids and timestamps as int64 columns
    "id_past_int64.jsonl": (
        GOOD_LINE + b"\n" + GOOD_LINE.replace(b'"id":1', b'"id":%d' % 2**70),
        f"line 2: malformed transaction record: id {2**70} is outside int64",
    ),
    "timestamp_below_int64.jsonl": (
        GOOD_LINE + b"\n" + GOOD_LINE.replace(b'"timestamp":5', b'"timestamp":%d' % -(2**63 + 1)),
        f"line 2: malformed transaction record: timestamp {-(2**63 + 1)} is outside int64",
    ),
    # float() and int() would read these as 1, 0 and 1.0
    "boolean_id.jsonl": (
        GOOD_LINE + b"\n" + GOOD_LINE.replace(b'"id":1', b'"id":true'),
        "line 2: malformed transaction record: id True is not an integer",
    ),
    "boolean_timestamp.jsonl": (
        GOOD_LINE + b"\n" + GOOD_LINE.replace(b'"timestamp":5', b'"timestamp":false'),
        "line 2: malformed transaction record: timestamp False is not an integer",
    ),
    "boolean_amount.jsonl": (
        GOOD_LINE + b"\n" + GOOD_LINE.replace(b'"amount":1.0', b'"amount":true'),
        "line 2: malformed transaction record: amount True is not a number",
    ),
    # a CSV reader decodes text in blocks, so it names the file, not the line
    "latin1.csv": (
        b"id,timestamp,amount,payment_currency,received_currency,"
        b"sender_bank_location,receiver_bank_location,payment_type,is_laundering\n"
        b"1,5,1.0,GBP,GBP,UK,UK,ACH,0\n2,5,1.0,GBP,GBP,Espa\xf1a,UK,ACH,0\n",
        "latin1.csv: not UTF-8 text",
    ),
    # a missing label is not "not laundering"
    "empty_label.csv": (
        b"id,timestamp,amount,payment_currency,received_currency,"
        b"sender_bank_location,receiver_bank_location,payment_type,is_laundering\n"
        b"1,5,1.0,GBP,GBP,UK,UK,ACH,\n",
        "line 2: unparseable laundering label: ''",
    ),
}


@pytest.mark.parametrize("name", list(BAD_DATASETS))
def test_ingest_of_bad_dataset_exits_4_without_traceback(tmp_path, name):
    content, named = BAD_DATASETS[name]
    dataset = tmp_path / name
    dataset.write_bytes(content)
    data = tmp_path / "data"
    proc = run_cli_process(["--data-dir", str(data), "ingest", "--input", str(dataset)])
    assert proc.returncode == 4, proc.stderr
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not data.exists()


@pytest.mark.parametrize("name", ["id_past_int64.jsonl", "timestamp_below_int64.jsonl"])
def test_train_on_a_dataset_outside_int64_exits_4_naming_the_line(tmp_path, capsys, name):
    content, named = BAD_DATASETS[name]
    dataset = tmp_path / name
    dataset.write_bytes(content)
    assert cli.main(["--data-dir", str(tmp_path / "data"), "train", "--dataset", str(dataset)]) == 4
    assert named in capsys.readouterr().err


def test_ingest_missing_input_exits_3(tmp_path):
    code = cli.main(
        ["--data-dir", str(tmp_path / "d"), "ingest", "--input", str(tmp_path / "no.jsonl")]
    )
    assert code == 3


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_ingest_reads_its_input_once(tmp_path, monkeypatch, capsys, suffix):
    dataset = tmp_path / f"input{suffix}"
    write = txgen.write_csv if suffix == ".csv" else write_jsonl
    write(generate(GeneratorConfig(seed=3, count=200)), str(dataset))
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(dataset):
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    data = tmp_path / "data"
    assert cli.main(["--data-dir", str(data), "ingest", "--input", str(dataset)]) == 0
    monkeypatch.undo()
    assert opened == ["rb"]
    # the archived blob is the bytes that were parsed and published
    [archived] = (data / "blobs").rglob(dataset.name)
    assert archived.read_bytes() == dataset.read_bytes()
    assert "published 200 records" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_both_formats(tmp_path, capsys):
    jsonl = tmp_path / "a.jsonl"
    csv_path = tmp_path / "a.csv"
    for out in (jsonl, csv_path):
        code = cli.main(
            ["--data-dir", str(tmp_path), "--seed", "3", "generate", "--count", "40", "--out", str(out)]
        )
        assert code == 0
    rows_jsonl = list(read_dataset(str(jsonl)))
    rows_csv = list(read_dataset(str(csv_path)))
    assert len(rows_jsonl) == 40
    assert rows_jsonl == rows_csv  # same seed, format round trip


def test_generate_seed_changes_output(tmp_path):
    a, b, c = (tmp_path / n for n in ("s1.jsonl", "s2.jsonl", "s1again.jsonl"))
    cli.main(["--data-dir", str(tmp_path), "--seed", "1", "generate", "--count", "50", "--out", str(a)])
    cli.main(["--data-dir", str(tmp_path), "--seed", "2", "generate", "--count", "50", "--out", str(b)])
    cli.main(["--data-dir", str(tmp_path), "--seed", "1", "generate", "--count", "50", "--out", str(c)])
    assert a.read_bytes() == c.read_bytes()
    assert a.read_bytes() != b.read_bytes()


# sha256 of ``generate --count 2000`` at seed 7, which ``ingest`` stores
# unchanged as the transactions journal, and of the event-log segments
# that ingest publishes it to, as json.dumps encoded every transaction
GENERATED_SHA256 = "f7fffa9bd98be1704a8338b0e953b2b991a326c42582213f349d6369b915f108"
SEGMENT_SHA256 = {
    "p000": "b9446bb2a6d3203fb634399cf29cd94f7e5eb80f323a328eceb6bbee26c677ab",
    "p001": "348ebffee21eb9fcefd789ae60191031a2b0f4c4db0a374b7f928da86db85d43",
    "p002": "193566a1f3e8da83961303bbd2d5a6e99731cf8eed3fdc01ef5fb17cb5623a4b",
    "p003": "25d09aa45784e7370a8e9457c6bde9db900d056c0a6f8ab66e75539290991722",
}


def test_generated_and_ingested_bytes_are_pinned(tmp_path):
    data = tmp_path / "data"
    argv = ["--data-dir", str(data), "--seed", "7"]
    assert cli.main([*argv, "generate", "--count", "2000"]) == 0
    assert cli.main([*argv, "ingest"]) == 0

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert digest(data / "transactions.jsonl") == GENERATED_SHA256
    assert digest(data / "tables" / "transactions" / "journal.jsonl") == GENERATED_SHA256
    segments = {
        path.parent.name: digest(path)
        for path in (data / "log" / "transactions").glob("p*/segment-*.log")
    }
    assert segments == SEGMENT_SHA256


# ---------------------------------------------------------------------------
# the full pipeline flow
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """generate -> ingest -> train -> stream -> report, shared by checks below."""
    root = tmp_path_factory.mktemp("flow")
    config_path = write_config(
        root / "config.json",
        data_dir=str(root / "data"),
        report_dir=str(root / "reports"),
    )
    codes = [
        cli.main(["--config", config_path, "generate"]),
        cli.main(["--config", config_path, "ingest"]),
        cli.main(["--config", config_path, "train"]),
        cli.main(["--config", config_path, "stream"]),
        cli.main(["--config", config_path, "report"]),
    ]
    return root, config_path, codes


def flow_registry(root):
    return ModelRegistry(
        str(root / "data" / "registry.jsonl"), BlobStore(str(root / "data" / "blobs"))
    )


def test_flow_exit_codes(flow):
    _, _, codes = flow
    assert codes == [0, 0, 0, 0, 0]


# the on-disk table schemas: a table is a name and a primary key, and its
# rows are the JSON-object lines their producers wrote
STORED_SCHEMAS = {
    "transactions": {"name": "transactions", "key": "id"},
    "alerts": {"name": "alerts", "key": "alert_id"},
}


def test_flow_warehouse_state(flow):
    root, _, _ = flow
    for name, schema in STORED_SCHEMAS.items():
        text = (root / "data" / "tables" / name / "schema.json").read_text()
        assert text == json.dumps(schema), name
    tables = TableStore(str(root / "data" / "tables"))
    assert tables.count("transactions") == 3000
    alerts = tables.query("alerts")
    assert alerts, "stream should have produced alerts"
    tx_ids = {row["id"] for row in tables.query("transactions")}
    assert {a["transaction_id"] for a in alerts} <= tx_ids
    assert not (root / "data" / "tables" / "model_metrics").exists()
    # the registry holds both metric splits of each of the three kinds
    records = flow_registry(root).records()
    assert [r.kind for r in records] == ["logistic_regression", "decision_tree", "random_forest"]
    assert all(r.test_metrics is not None for r in records)


def test_flow_report_files(flow):
    root, _, _ = flow
    report_dir = root / "reports"
    for name in cli.REPORT_FILES:
        assert (report_dir / name).is_file(), name
    header = (report_dir / "payment_type_table.csv").read_text().splitlines()[0]
    assert header == "payment_type,transactions,fraud,fraud_percent"
    lines = (report_dir / "alerts_per_month.csv").read_text().splitlines()
    assert len(lines) == 13  # header plus one row per month


def test_flow_confusion_matrix_matches_metrics(flow):
    root, _, _ = flow
    active = flow_registry(root).active()
    assert active is not None
    test = active.test_metrics
    lines = (root / "reports" / "confusion_matrix.csv").read_text().splitlines()
    assert lines[1] == f"actual_negative,{test.tn},{test.fp}"
    assert lines[2] == f"actual_positive,{test.fn},{test.tp}"


def test_flow_report_rerun_is_byte_identical(flow):
    root, config_path, _ = flow
    second = root / "reports2"
    code = cli.main(["--config", config_path, "--report-dir", str(second), "report"])
    assert code == 0
    for name in cli.REPORT_FILES:
        first = (root / "reports" / name).read_bytes()
        again = (second / name).read_bytes()
        assert first == again, name


def test_flow_train_from_dataset_file(flow, tmp_path):
    root, _, _ = flow
    dataset = root / "data" / "transactions.jsonl"
    config_path = write_config(
        tmp_path / "config.json",
        data_dir=str(tmp_path / "data"),
        report_dir=str(tmp_path / "reports"),
    )
    assert cli.main(["--config", config_path, "train", "--dataset", str(dataset)]) == 0
    tables = TableStore(str(tmp_path / "data" / "tables"))
    assert tables.count("transactions") == 3000  # dataset mirrored into the warehouse


def test_ingest_stores_each_log_payload_as_its_table_row(flow):
    root, _, _ = flow
    log = EventLog(str(root / "data" / "log"))
    records = log.poll("payload-check", "transactions", 10_000)
    log.close()
    payloads = {json.loads(record.payload)["id"]: record.payload for record in records}
    rows = (root / "data" / "tables" / "transactions" / "journal.jsonl").read_bytes().splitlines()
    assert len(rows) == len(payloads) == 3000
    for row in rows:
        assert row == payloads[json.loads(row)["id"]]


# the transactions table as older versions wrote it: sorted-key rows and
# a schema.json that also declared each column's type
OLDER_TRANSACTIONS_SCHEMA = {
    "name": "transactions",
    "columns": {
        "id": "int",
        "timestamp": "int",
        "amount": "float",
        "payment_currency": "str",
        "received_currency": "str",
        "sender_bank_location": "str",
        "receiver_bank_location": "str",
        "payment_type": "str",
        "is_laundering": "bool",
    },
    "key": "id",
}


def test_report_reads_an_older_sorted_key_warehouse(flow, tmp_path):
    root, config_path, _ = flow
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    table = data / "tables" / "transactions"
    journal = table / "journal.jsonl"
    rows = [json.loads(line) for line in journal.read_text().splitlines()]
    older = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    assert older != journal.read_text()
    journal.write_text(older)
    (table / "schema.json").write_text(json.dumps(OLDER_TRANSACTIONS_SCHEMA))
    reports = tmp_path / "reports"
    argv = ["--config", config_path, "--data-dir", str(data), "--report-dir", str(reports)]
    assert cli.main([*argv, "report"]) == 0
    for name in cli.REPORT_FILES:
        assert (reports / name).read_bytes() == (root / "reports" / name).read_bytes(), name


def cut_in_half(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def append_line(line):
    def corrupt(path):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    return corrupt


def edit_json(edit):
    def corrupt(path):
        document = json.loads(path.read_text())
        edit(document)
        path.write_text(json.dumps(document))

    return corrupt


def edit_commit(edit):
    """Edit the next offsets of the stream group's last positions line."""
    def corrupt(path):
        lines = path.read_text().splitlines()
        last = max(i for i, line in enumerate(lines) if json.loads(line)["group"] == "stream")
        commit = json.loads(lines[last])
        edit(commit["next"])
        lines[last] = json.dumps(commit)
        path.write_text("".join(line + "\n" for line in lines))

    return corrupt


def garble_second_line(path):
    """Put a line that is not JSON between the file's first line and a copy of it."""
    first = path.read_text().splitlines()[0]
    path.write_text(f'{first}\n{{"group": "stream", "next": \n{first}\n')


def active_model_blob(data):
    active = ModelRegistry(str(data / "registry.jsonl"), BlobStore(str(data / "blobs"))).active()
    return data / "blobs" / "models" / "2023-01-01" / active.blob_name


def served_forest_blob(data):
    """Activate the flow's forest, as stream_to_pinned_forest does; its blob."""
    registry = ModelRegistry(str(data / "registry.jsonl"), BlobStore(str(data / "blobs")))
    forest = next(r for r in registry.records() if r.kind == "random_forest")
    registry.activate(forest.version, tick=0)
    return active_model_blob(data)


# a well-formed transactions-table row
TABLE_ROW = {
    "id": 1,
    "timestamp": 0,
    "amount": 1.0,
    "payment_currency": "GBP",
    "received_currency": "GBP",
    "sender_bank_location": "UK",
    "receiver_bank_location": "UK",
    "payment_type": "ACH",
    "is_laundering": False,
}

# (file to corrupt, how, the command that reads it, the line the error
# names: True for the file's last line, a number for another, or False)
CORRUPT_FILES = {
    "empty_positions": (
        lambda data: data / "log" / "transactions" / "positions.jsonl",
        lambda path: path.write_text(""),
        ["stream"],
        False,
    ),
    "positions_line_garbled": (
        lambda data: data / "log" / "transactions" / "positions.jsonl",
        garble_second_line,
        ["stream"],
        2,
    ),
    "cut_topic": (lambda data: data / "log" / "transactions" / "topic.json", cut_in_half, ["stream"], False),
    "partition_count_text": (
        lambda data: data / "log" / "transactions" / "topic.json",
        edit_json(lambda topic: topic.update(partition_count="4")),
        ["stream"],
        False,
    ),
    "partition_count_zero": (
        lambda data: data / "log" / "transactions" / "topic.json",
        edit_json(lambda topic: topic.update(partition_count=0)),
        ["stream", "--feed", "{feed}"],
        False,
    ),
    "offset_text": (
        lambda data: data / "log" / "transactions" / "positions.jsonl",
        edit_commit(lambda offsets: offsets.update({"0": "5"})),
        ["stream"],
        False,
    ),
    "offset_past_end": (
        lambda data: data / "log" / "transactions" / "positions.jsonl",
        edit_commit(lambda offsets: offsets.update({"0": offsets["0"] + 64})),
        ["stream"],
        False,
    ),
    "offset_negative": (
        lambda data: data / "log" / "transactions" / "positions.jsonl",
        edit_commit(lambda offsets: offsets.update({"0": -4})),
        ["stream"],
        False,
    ),
    "cut_table_schema": (
        lambda data: data / "tables" / "transactions" / "schema.json", cut_in_half, ["report"], False,
    ),
    "table_row_not_an_object": (
        lambda data: data / "tables" / "transactions" / "journal.jsonl",
        append_line("[1, 2]"),
        ["report"],
        True,
    ),
    "table_row_without_key": (
        lambda data: data / "tables" / "transactions" / "journal.jsonl",
        append_line('{"amount": 1.0}'),
        ["report"],
        True,
    ),
    "table_key_not_hashable": (
        lambda data: data / "tables" / "transactions" / "journal.jsonl",
        append_line('{"id": [1]}'),
        ["report"],
        True,
    ),
    "table_key_mixed_types": (
        lambda data: data / "tables" / "transactions" / "journal.jsonl",
        append_line(json.dumps(dict(TABLE_ROW, id="5"))),
        ["report"],
        False,
    ),
    "table_amount_text": (
        lambda data: data / "tables" / "transactions" / "journal.jsonl",
        append_line(json.dumps(dict(TABLE_ROW, amount="x"))),
        ["report"],
        False,
    ),
    "table_name_not_text": (
        lambda data: data / "tables" / "transactions" / "schema.json",
        edit_json(lambda schema: schema.update(name=[1])),
        ["train"],
        False,
    ),
    "topic_name_not_text": (
        lambda data: data / "log" / "transactions" / "topic.json",
        edit_json(lambda topic: topic.update(name=[1])),
        ["stream"],
        False,
    ),
    "alert_key_mixed_types": (
        lambda data: data / "tables" / "alerts" / "journal.jsonl",
        append_line(
            '{"alert_id": 5, "score": 1.0, "source": "rule:x", "tick": 5, "transaction_id": 1}'
        ),
        ["report"],
        False,
    ),
    "alert_row_without_score": (
        lambda data: data / "tables" / "alerts" / "journal.jsonl",
        append_line('{"alert_id": "1:rule:x", "source": "rule:x", "tick": 5, "transaction_id": 1}'),
        ["report"],
        False,
    ),
    "alert_tick_overflow": (
        lambda data: data / "tables" / "alerts" / "journal.jsonl",
        append_line(
            '{"alert_id": "1:rule:x", "score": 1.0, "source": "rule:x", "tick": 1e400, '
            '"transaction_id": 1}'
        ),
        ["report"],
        False,
    ),
    "registry_metric_overflow": (
        lambda data: data / "registry.jsonl",
        append_line(
            '{"event": "register", "payload": {"blob_name": "v9.json", "kind": "decision_tree", '
            '"metrics": {"accuracy": 1.0, "f1": 1.0, "fn": 0, "fp": 0, "threshold": 0.5, '
            '"tn": 1e400, "tp": 0}, "reference_profile": {}, "schema_hash": "x", '
            '"test_metrics": null}, "tick": 0, "version": 9}'
        ),
        ["report"],
        True,
    ),
    "nested_topic": (
        lambda data: data / "log" / "transactions" / "topic.json",
        lambda path: path.write_text("[" * 100_000),
        ["stream"],
        False,
    ),
    "nested_table_row": (
        lambda data: data / "tables" / "transactions" / "journal.jsonl",
        append_line("[" * 100_000),
        ["train"],
        True,
    ),
    "registry_unknown_version": (
        lambda data: data / "registry.jsonl",
        append_line('{"event": "activate", "payload": {}, "tick": 0, "version": 99}'),
        ["report"],
        True,
    ),
    "registry_without_payload": (
        lambda data: data / "registry.jsonl",
        append_line('{"event": "register", "tick": 0, "version": 9}'),
        ["report"],
        True,
    ),
    "cut_schema_blob": (
        lambda data: next((data / "blobs" / "schemas").glob("*/*.json")), cut_in_half, ["report"], False,
    ),
    "cut_model_blob": (active_model_blob, cut_in_half, ["stream", "--feed", "{feed}"], False),
    "tree_column_out_of_range": (
        served_forest_blob,
        edit_json(lambda blob: blob["parameters"]["trees"][0].update(column=999)),
        ["stream", "--feed", "{feed}"],
        False,
    ),
    # older versions rolled a partition to a second segment after 65,536 records
    "leftover_segment": (
        lambda data: data / "log" / "transactions" / "p000" / "segment-00000001.log",
        lambda path: path.write_bytes(b""),
        ["stream"],
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_FILES))
def test_corrupt_persisted_file_exits_4_naming_it(flow, tmp_path, capsys, case):
    target, corrupt, command, names_line = CORRUPT_FILES[case]
    root, config_path, _ = flow
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    feed = tmp_path / "feed.jsonl"
    write_jsonl(generate(GeneratorConfig(seed=5, count=20)), str(feed))
    path = target(data)
    corrupt(path)
    capsys.readouterr()
    argv = [
        "--config", config_path, "--data-dir", str(data), "--report-dir", str(tmp_path / "reports"),
        *[arg.format(feed=feed) for arg in command],
    ]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    expected = path.name
    if names_line is True:
        expected += f":{len(path.read_text().splitlines())}"
    elif names_line:
        expected += f":{names_line}"
    assert expected in err, err


# (journal, the bytes the last of whose occurrences a 0xFF byte is put
# after, so inside a string value, and the command that reads the journal)
NOT_UTF8_LINES = {
    "transactions_train": (("tables", "transactions", "journal.jsonl"), b'"payment_type":"', ["train"]),
    "transactions_report": (("tables", "transactions", "journal.jsonl"), b'"payment_type":"', ["report"]),
    "registry_report": (("registry.jsonl",), b'"kind": "', ["report"]),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8_LINES))
def test_journal_line_that_is_not_utf8_exits_4_naming_it(flow, tmp_path, capsys, case):
    parts, before, command = NOT_UTF8_LINES[case]
    root, config_path, _ = flow
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    path = data.joinpath(*parts)
    raw = path.read_bytes()
    cut = raw.rindex(before) + len(before)
    path.write_bytes(raw[:cut] + b"\xff" + raw[cut:])
    capsys.readouterr()
    argv = ["--config", config_path, "--data-dir", str(data),
            "--report-dir", str(tmp_path / "reports"), *command]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    line = raw[:cut].count(b"\n") + 1
    assert f"{path.name}:{line}: bad journal line" in err, err
    assert "UnicodeDecodeError" in err, err


# ---------------------------------------------------------------------------
# paced streaming
# ---------------------------------------------------------------------------

def test_stream_feed_keeps_latency_bounded(tmp_path, capsys):
    config_path = write_config(
        tmp_path / "config.json",
        data_dir=str(tmp_path / "data"),
        generator={"count": 600},
        stream={"cadence": 1000, "batch_max": 2000},
    )
    feed = tmp_path / "feed.jsonl"
    assert cli.main(["--config", config_path, "generate", "--out", str(feed)]) == 0
    capsys.readouterr()
    assert cli.main(["--config", config_path, "stream", "--feed", str(feed), "--rate", "200"]) == 0
    out = capsys.readouterr().out
    assert "drained 600 records" in out
    match = re.search(r"latency ticks p50=(\d+) p95=(\d+) max=(\d+)", out)
    assert match, out
    p50, p95, worst = (int(g) for g in match.groups())
    assert p95 <= 2000  # never more than two cadence intervals behind
    assert p50 <= p95 <= worst


def test_report_after_feeding_new_ids(tmp_path, capsys):
    config_path = write_config(
        tmp_path / "config.json",
        data_dir=str(tmp_path / "data"),
        report_dir=str(tmp_path / "reports"),
    )
    feed = tmp_path / "feed.jsonl"
    fresh = [replace(t, id=t.id + 10_000) for t in generate(GeneratorConfig(seed=12, count=500))]
    write_jsonl(fresh, str(feed))
    for argv in (["generate"], ["ingest"], ["train"], ["stream", "--feed", str(feed)], ["report"]):
        assert cli.main(["--config", config_path, *argv]) == 0, argv
    tables = TableStore(str(tmp_path / "data" / "tables"))
    assert tables.count("transactions") == 3_500  # fed records land in the warehouse
    lines = (tmp_path / "reports" / "alerts_per_month.csv").read_text().splitlines()
    assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == tables.count("alerts")


def test_stream_feed_hands_its_rows_over_once_after_its_last_window(tmp_path, capsys):
    """A feed of more than COMPACT_ROWS rows but fewer than the transactions
    compaction covers leaves that compaction as it was, and report reads
    what a fold of the whole journal reads; a feed that brings the rows past
    it to the rows it covers leaves one compaction over the whole journal."""
    covered = storage.COMPACT_ROWS + 2_000
    data = tmp_path / "data"
    config_path = write_config(tmp_path / "config.json", data_dir=str(data))
    argv = ["--config", config_path]
    for command in (["generate", "--count", str(covered)], ["ingest"], ["train"]):
        assert cli.main([*argv, *command]) == 0, command
    compaction = data / "tables" / "transactions" / storage.COMPACTION_NAME
    before = compaction.read_bytes()

    def feed(name, count, offset):
        path = tmp_path / name
        write_jsonl([replace(t, id=t.id + offset) for t in generate(GeneratorConfig(seed=5, count=count))], str(path))
        assert cli.main([*argv, "stream", "--feed", str(path), "--rate", "1000"]) == 0

    feed("first.jsonl", storage.COMPACT_ROWS + 1, 100_000)
    assert compaction.read_bytes() == before
    # the alerts this first drain raised, more than COMPACT_ROWS, are handed over too
    alerts = data / "tables" / "alerts"
    _, length, _ = storage._read_compaction(alerts / storage.COMPACTION_NAME, streamproc.ALERT_ROWS, "alert_id")
    assert length == (alerts / "journal.jsonl").stat().st_size
    shutil.copytree(data, tmp_path / "folded")
    (tmp_path / "folded" / "tables" / "transactions" / storage.COMPACTION_NAME).unlink()
    reports = {}
    for name, root in (("compacted", data), ("folded", tmp_path / "folded")):
        report_argv = [*argv, "--data-dir", str(root), "--report-dir", str(tmp_path / f"{name}-reports")]
        assert cli.main([*report_argv, "report"]) == 0
        reports[name] = {f: (tmp_path / f"{name}-reports" / f).read_bytes() for f in cli.REPORT_FILES}
    assert reports["compacted"] == reports["folded"]

    feed("second.jsonl", covered - storage.COMPACT_ROWS - 1, 200_000)
    tables = cli.Workspace(PipelineConfig(data_dir=str(data))).tables
    columns, length, _ = storage._read_compaction(compaction, txgen.TRANSACTION_ROWS, "id")
    assert length == tables.journal_path("transactions").stat().st_size
    assert len(columns["id"]) == tables.count("transactions") == 2 * covered


def test_stream_feed_hands_nothing_over_past_another_writers_line(tmp_path, monkeypatch):
    """A line another writer appends to the transactions journal between
    two of the feed's windows leaves the journal ending past the bytes the
    feed wrote, so the feed writes no compaction that would cover that line
    undecoded; the same feed with no such line is compacted, that line
    included."""
    data = tmp_path / "data"
    config_path = write_config(tmp_path / "config.json", data_dir=str(data))
    argv = ["--config", config_path]
    for command in (["generate"], ["ingest"], ["train"]):
        assert cli.main([*argv, *command]) == 0, command
    compaction = data / "tables" / "transactions" / storage.COMPACTION_NAME
    assert not compaction.exists()
    monkeypatch.setattr(storage, "COMPACT_ROWS", 1)
    foreign = replace(next(generate(GeneratorConfig(seed=9, count=1))), id=900_000)
    publish, windows = cli._publish_and_store, []

    def publish_then_append_foreign(ws, window, echo):
        span = publish(ws, window, echo)
        if not windows:
            with open(ws.tables.journal_path("transactions"), "a", encoding="utf-8") as fh:
                fh.write(transaction_to_json(foreign) + "\n")
        windows.append(span)
        return span

    def feed(name, offset):
        path = tmp_path / name
        write_jsonl([replace(t, id=t.id + offset) for t in generate(GeneratorConfig(seed=5, count=300))], str(path))
        assert cli.main([*argv, "stream", "--feed", str(path), "--rate", "100"]) == 0

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_publish_and_store", publish_then_append_foreign)
        feed("first.jsonl", 100_000)
    assert len(windows) == 3 and not compaction.exists()
    tables = cli.Workspace(PipelineConfig(data_dir=str(data))).tables
    assert tables.count("transactions") == 3_301
    assert foreign.id in tables.columns("transactions")["id"]
    tables.close()

    feed("second.jsonl", 200_000)
    tables = cli.Workspace(PipelineConfig(data_dir=str(data))).tables
    columns, length, _ = storage._read_compaction(compaction, txgen.TRANSACTION_ROWS, "id")
    assert length == tables.journal_path("transactions").stat().st_size
    assert len(columns["id"]) == tables.count("transactions") == 3_601
    assert foreign.id in columns["id"]
    tables.close()


def compact_transactions(data, monkeypatch):
    """Write a compaction over every row of a data dir's transactions."""
    tables = cli.Workspace(PipelineConfig(data_dir=str(data))).tables
    end = tables.journal_path("transactions").stat().st_size
    with monkeypatch.context() as patch:
        patch.setattr(storage, "COMPACT_ROWS", 1)
        # an empty run handed over at the journal's end: the older lines are compacted
        tables.appended(
            "transactions", end, end, 0, lambda: storage.to_columns(txgen.TRANSACTION_ROWS, [])
        )
    tables.close()
    assert (data / "tables" / "transactions" / storage.COMPACTION_NAME).exists()


def alerts_oracle(tables):
    """The alerts table as columns, folded from its journal alone and
    ordered by the columns its key is made of."""
    rows = [streamproc.ALERT_ROWS.decode(row) for row in tables.query("alerts")]
    return storage.to_columns(streamproc.ALERT_ROWS, sorted(rows, key=lambda v: v[:2]))


def assert_same_columns(got, want):
    assert list(got) == list(want)
    for name, column in want.items():
        if isinstance(column, storage.Categories):
            assert got[name].vocabulary == column.vocabulary, name
            assert got[name].codes.tolist() == column.codes.tolist(), name
        else:
            assert got[name].dtype == column.dtype, name
            assert got[name].tolist() == column.tolist(), name


def test_stream_reads_no_warehouse_table(flow, tmp_path, monkeypatch):
    root, config_path, _ = flow
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    (data / "log" / "transactions" / eventlog.POSITIONS_NAME).unlink()  # so the stream drains again
    compact_transactions(data, monkeypatch)
    compactions, written = [], []
    real_read_compaction = storage._read_compaction
    real_write_compaction = storage._write_compaction

    def recording_read_compaction(path, row_type, key):
        compactions.append(path)
        return real_read_compaction(path, row_type, key)

    def recording_write_compaction(path, row_type, key, compaction):
        written.append(path)
        real_write_compaction(path, row_type, key, compaction)

    monkeypatch.setattr(storage, "_read_compaction", recording_read_compaction)
    monkeypatch.setattr(storage, "_write_compaction", recording_write_compaction)
    read = []
    real_read_journal = storage.read_journal

    def recording_read_journal(path, decode):
        read.append(os.path.relpath(path, data))
        return real_read_journal(path, decode)

    for module in (storage, lifecycle, streamproc):
        monkeypatch.setattr(module, "read_journal", recording_read_journal)
    assert cli.main(["--config", config_path, "--data-dir", str(data), "stream"]) == 0
    assert "registry.jsonl" in read  # the active model is still looked up
    assert not [path for path in read if path.startswith("tables")], read
    # no transactions compaction is read or written, and the alerts, drained
    # twice and so past COMPACT_ROWS, are compacted to the journal's fold
    assert not [path for path in compactions + written if path.parent.name == "transactions"]
    assert [path.parent.name for path in written] == ["alerts"]
    monkeypatch.undo()
    tables = cli.Workspace(PipelineConfig(data_dir=str(data))).tables
    columns, length, _ = storage._read_compaction(written[0], streamproc.ALERT_ROWS, "alert_id")
    assert length == tables.journal_path("alerts").stat().st_size
    assert_same_columns(columns, alerts_oracle(tables))


def test_report_decodes_only_the_rows_past_the_compaction(flow, tmp_path, monkeypatch, capsys):
    root, config_path, _ = flow
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    compact_transactions(data, monkeypatch)
    # seven rows past the compaction, three of them replacing compacted rows
    extra = [replace(t, id=t.id + 10_000) for t in generate(GeneratorConfig(seed=8, count=4))]
    extra += [replace(t, amount=t.amount + 1) for t in generate(GeneratorConfig(seed=11, count=3))]
    with open(data / "tables" / "transactions" / "journal.jsonl", "a") as fh:
        fh.write("".join(transaction_to_json(t) + "\n" for t in extra))
    decoded = []

    def counting_decode(row):
        decoded.append(row["id"])
        return txgen._transaction_values(row)

    counting = storage.RowType(txgen.TRANSACTION_ROWS.columns, counting_decode)
    reports = {}
    for name in ("compacted", "journal"):
        if name == "journal":
            (data / "tables" / "transactions" / storage.COMPACTION_NAME).unlink()
        decoded.clear()
        monkeypatch.setattr(cli, "TRANSACTION_ROWS", counting)
        argv = ["--config", config_path, "--data-dir", str(data), "--report-dir", str(tmp_path / name)]
        assert cli.main([*argv, "report"]) == 0
        reports[name] = {f: (tmp_path / name / f).read_bytes() for f in cli.REPORT_FILES}
        if name == "compacted":
            assert sorted(decoded) == sorted(t.id for t in extra)
    assert len(decoded) == 3_004  # the whole journal's fold
    assert reports["compacted"] == reports["journal"]


def test_report_names_a_bad_line_past_the_compaction_by_its_journal_line(
    flow, tmp_path, monkeypatch, capsys
):
    root, config_path, _ = flow
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    compact_transactions(data, monkeypatch)
    journal = data / "tables" / "transactions" / "journal.jsonl"
    extra = [replace(t, id=t.id + 10_000) for t in generate(GeneratorConfig(seed=8, count=5))]
    with open(journal, "a") as fh:
        fh.write("".join(transaction_to_json(t) + "\n" for t in extra[:4]))
    decoded = []

    def counting_decode(row):
        decoded.append(row["id"])
        return txgen._transaction_values(row)

    monkeypatch.setattr(
        cli, "TRANSACTION_ROWS", storage.RowType(txgen.TRANSACTION_ROWS.columns, counting_decode)
    )
    argv = ["--config", config_path, "--data-dir", str(data), "--report-dir", str(tmp_path / "r")]
    assert cli.main([*argv, "report"]) == 0
    assert sorted(decoded) == sorted(t.id for t in extra[:4])  # the compaction was adopted
    line = journal.read_bytes().count(b"\n") + 1
    with open(journal, "a") as fh:
        fh.write('{"id": 7, "amount": \n' + transaction_to_json(extra[4]) + "\n")
    capsys.readouterr()
    assert cli.main([*argv, "report"]) == 4
    err = capsys.readouterr().err
    assert line > 3_000
    assert f"{journal.name}:{line}: bad journal line" in err, err


def test_stream_feed_syncs_records_before_committing_them(tmp_path, monkeypatch, capsys):
    config_path = write_config(tmp_path / "config.json", data_dir=str(tmp_path / "data"))
    feed = tmp_path / "feed.jsonl"
    write_jsonl(generate(GeneratorConfig(seed=5, count=300)), str(feed))
    synced = {}  # (device, inode) -> file size at its last fsync
    real_fsync = os.fsync

    def recording_fsync(fd):
        real_fsync(fd)
        st = os.fstat(fd)
        synced[(st.st_dev, st.st_ino)] = st.st_size

    commits, unsynced = [], []
    real_commit = EventLog.commit_watermark

    def checking_commit(self, group, topic, watermark):
        commits.append(dict(watermark))
        for segment in (self.root / topic).glob("*/segment-*.log"):
            st = segment.stat()
            if synced.get((st.st_dev, st.st_ino)) != st.st_size:
                unsynced.append((segment.name, dict(watermark)))
        real_commit(self, group, topic, watermark)

    published = []  # records per publish call
    real_publish_many = EventLog.publish_many

    def counting_publish_many(self, topic, keys, payloads):
        published.append(len(keys))
        return real_publish_many(self, topic, keys, payloads)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(EventLog, "commit_watermark", checking_commit)
    monkeypatch.setattr(EventLog, "publish_many", counting_publish_many)
    argv = ["--config", config_path, "stream", "--feed", str(feed), "--rate", "100"]
    assert cli.main(argv) == 0
    batches = re.search(r"drained 300 records in (\d+) batches", capsys.readouterr().out)
    assert batches
    assert commits
    assert len(commits) == int(batches.group(1))  # one commit per batch
    assert not unsynced
    assert published == [100, 100, 100]  # one publish call per window


@pytest.fixture
def checked_replaces(monkeypatch):
    """Records the target name of each os.replace, and of each whose
    source was not fsynced at its current size."""
    synced = {}  # (device, inode) -> file size at its last fsync
    real_fsync = os.fsync

    def recording_fsync(fd):
        real_fsync(fd)
        st = os.fstat(fd)
        synced[(st.st_dev, st.st_ino)] = st.st_size

    replaced, unsynced = [], []
    real_replace = os.replace

    def checking_replace(src, dst):
        st = os.stat(src)
        replaced.append(os.path.basename(dst))
        if synced.get((st.st_dev, st.st_ino)) != st.st_size:
            unsynced.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", checking_replace)
    return replaced, unsynced


def test_whole_file_writes_are_fsynced_before_each_replace(tmp_path, checked_replaces, capsys):
    config_path = write_config(tmp_path / "config.json", data_dir=str(tmp_path / "data"))
    feed = tmp_path / "feed.jsonl"
    write_jsonl(generate(GeneratorConfig(seed=5, count=300)), str(feed))
    replaced, unsynced = checked_replaces
    argv = ["--config", config_path, "stream", "--feed", str(feed), "--rate", "100"]
    assert cli.main(argv) == 0
    batches = re.search(r"drained 300 records in (\d+) batches", capsys.readouterr().out)
    assert batches
    assert int(batches.group(1)) > 2
    # closing the log at the end indexes the fed records
    assert sorted(set(replaced)) == ["positions.jsonl", "schema.json", eventlog.INDEX_NAME, "topic.json"]
    # a batch appends its commit: positions.jsonl is written whole by the
    # topic's first commit and rewritten by the close, never per batch
    assert replaced.count("positions.jsonl") == 2
    assert replaced[-1] == "positions.jsonl"
    assert not unsynced


# sha256 of the sidecar files the two ingests below leave, from a seed-5
# dataset of one more record or row than the interval that writes them
INDEX_SHA256 = "9071ef584b81797c22e5244ac8ab15f81f6e1ebe05ea95de63b80187abba0fb9"
COMPACTION_SHA256 = "1d19539b8fb6e69a6f0a1c0520078ba62206586ef87e722e373db012b8b9f8e6"


def test_ingest_past_the_index_interval_leaves_a_synced_index(tmp_path, checked_replaces):
    count = eventlog.INDEX_INTERVAL + 1
    config_path = write_config(
        tmp_path / "config.json", data_dir=str(tmp_path / "data"), topic={"partitions": 1}
    )
    dataset = tmp_path / "dataset.jsonl"
    write_jsonl(generate(GeneratorConfig(seed=5, count=count)), str(dataset))
    replaced, unsynced = checked_replaces
    assert cli.main(["--config", config_path, "ingest", "--input", str(dataset)]) == 0
    assert replaced.count(eventlog.INDEX_NAME) == 1
    assert not unsynced
    index = tmp_path / "data" / "log" / "transactions" / "p000" / eventlog.INDEX_NAME
    assert struct.unpack_from("<Q", index.read_bytes()) == (count,)  # it covers every record
    assert hashlib.sha256(index.read_bytes()).hexdigest() == INDEX_SHA256


def test_ingest_past_the_row_threshold_leaves_a_synced_compaction(tmp_path, checked_replaces):
    count = storage.COMPACT_ROWS + 1
    config_path = write_config(tmp_path / "config.json", data_dir=str(tmp_path / "data"))
    dataset = tmp_path / "dataset.jsonl"
    write_jsonl(generate(GeneratorConfig(seed=5, count=count)), str(dataset))
    replaced, unsynced = checked_replaces
    assert cli.main(["--config", config_path, "ingest", "--input", str(dataset)]) == 0
    assert replaced.count(storage.COMPACTION_NAME) == 1
    assert not unsynced
    tables = cli.Workspace(PipelineConfig(data_dir=str(tmp_path / "data"))).tables
    assert tables.count("transactions") == count
    compaction = tmp_path / "data" / "tables" / "transactions" / storage.COMPACTION_NAME
    assert hashlib.sha256(compaction.read_bytes()).hexdigest() == COMPACTION_SHA256


def test_stream_on_empty_workspace_is_quiet(tmp_path, capsys):
    config_path = write_config(tmp_path / "config.json", data_dir=str(tmp_path / "data"))
    assert cli.main(["--config", config_path, "stream"]) == 0
    assert "drained 0 records" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the alert sink: the alerts table's journal, written by the stream
# ---------------------------------------------------------------------------

class Killed(Exception):
    """Stands in for the stream's process dying at a chosen point."""


# where the killed stream dies: (owner, method, the call that raises)
KILLS = {
    "between_batches": (streamproc.StreamProcessor, "drain_once", 4),
    "between_alert_write_and_commit": (EventLog, "commit_watermark", 4),
}


@pytest.fixture(scope="module")
def trained_for_resume(tmp_path_factory):
    """A trained, undrained data dir. Velocity is off: its windows start
    empty on a resume, a known defect this test leaves out."""
    root = tmp_path_factory.mktemp("resume")
    config_path = write_config(
        root / "config.json",
        data_dir=str(root / "data"),
        stream={"batch_max": 500},
        rules={"enable_velocity": False},
    )
    for argv in (["generate"], ["ingest"], ["train"]):
        assert cli.main(["--config", config_path, *argv]) == 0, argv
    return root, config_path


def alert_outputs(data, reports):
    return {
        "alerts_per_month.csv": (reports / "alerts_per_month.csv").read_text(),
        "fraud_by_payment_type.csv": (reports / "fraud_by_payment_type.csv").read_text(),
        "alert rows": TableStore(str(data / "tables")).count("alerts"),
    }


@pytest.fixture(scope="module")
def unbroken_outputs(trained_for_resume, tmp_path_factory):
    root, config_path = trained_for_resume
    work = tmp_path_factory.mktemp("unbroken")
    shutil.copytree(root / "data", work / "data")
    argv = ["--config", config_path, "--data-dir", str(work / "data"), "--report-dir", str(work / "reports")]
    assert cli.main([*argv, "stream"]) == 0
    assert cli.main([*argv, "report"]) == 0
    return alert_outputs(work / "data", work / "reports")


def test_resume_writes_the_same_files_with_or_without_the_index(trained_for_resume, tmp_path, capsys):
    root, config_path = trained_for_resume
    kept, lost = tmp_path / "kept", tmp_path / "lost"
    shutil.copytree(root / "data", kept)
    feed = tmp_path / "feed.jsonl"
    write_jsonl(generate(GeneratorConfig(seed=5, count=200)), str(feed))
    argv = ["--config", config_path, "--data-dir", str(kept)]
    assert cli.main([*argv, "stream"]) == 0
    EventLog(kept / "log").close()  # closing indexes every record so far
    assert cli.main([*argv, "ingest", "--input", str(feed)]) == 0  # an unindexed tail
    shutil.copytree(kept, lost)
    indexes = sorted((lost / "log").glob(f"*/p*/{eventlog.INDEX_NAME}"))
    assert len(indexes) == 2
    for index in indexes:
        index.unlink()

    written = []
    for data in (kept, lost):
        capsys.readouterr()
        assert cli.main(["--config", config_path, "--data-dir", str(data), "stream"]) == 0
        assert "drained 200 records" in capsys.readouterr().out
        files = ["tables/alerts/journal.jsonl", "dead_letter.jsonl", "log/transactions/positions.jsonl"]
        written.append({name: (data / name).read_bytes() for name in files})
    assert written[0] == written[1]


def kill_stream(argv, kill):
    """Run ``stream`` until it dies at the point ``kill`` names."""
    owner, name, dying_call = KILLS[kill]
    real = getattr(owner, name)
    calls = itertools.count(1)

    def dying(*args):
        if next(calls) == dying_call:
            raise Killed
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, dying)
        with pytest.raises(Killed):
            cli.main([*argv, "stream"])


@pytest.mark.parametrize("kill", sorted(KILLS))
def test_killed_stream_resumes_to_the_unbroken_report(
    trained_for_resume, unbroken_outputs, tmp_path, kill
):
    root, config_path = trained_for_resume
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    argv = ["--config", config_path, "--data-dir", str(data), "--report-dir", str(tmp_path / "reports")]
    kill_stream(argv, kill)
    assert (data / "log" / "transactions" / eventlog.POSITIONS_NAME).exists()  # some batches committed
    resumed = run_cli_process([*argv, "stream"])
    assert resumed.returncode == 0, resumed.stderr
    assert cli.main([*argv, "report"]) == 0
    assert alert_outputs(data, tmp_path / "reports") == unbroken_outputs


def test_stream_killed_mid_commit_line_resumes_to_the_unbroken_report(
    trained_for_resume, unbroken_outputs, tmp_path
):
    root, config_path = trained_for_resume
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    argv = ["--config", config_path, "--data-dir", str(data), "--report-dir", str(tmp_path / "reports")]
    positions = data / "log" / "transactions" / eventlog.POSITIONS_NAME
    real_append = storage.JournalWriter.append
    appends = itertools.count(1)

    def dying_append(self, lines):
        # the topic's first commit writes the file whole; the third line
        # appended after it gets half way to the file
        if self._handle.name == str(positions) and next(appends) == 3:
            self._handle.write(lines.encode("utf-8")[: len(lines) // 2])
            self._handle.flush()
            raise Killed
        return real_append(self, lines)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(storage.JournalWriter, "append", dying_append)
        with pytest.raises(Killed):
            cli.main([*argv, "stream"])
    torn = positions.read_bytes()
    assert torn.count(b"\n") == 3 and not torn.endswith(b"\n")
    resumed = run_cli_process([*argv, "stream"])
    assert resumed.returncode == 0, resumed.stderr
    assert cli.main([*argv, "report"]) == 0
    assert alert_outputs(data, tmp_path / "reports") == unbroken_outputs


@pytest.fixture(scope="module")
def compacted_for_resume(trained_for_resume, tmp_path_factory):
    """trained_for_resume drained once with its alerts compacted, then 2,500
    records of new ids ingested and left undrained."""
    root, config_path = trained_for_resume
    work = tmp_path_factory.mktemp("compacted_resume")
    data = work / "data"
    shutil.copytree(root / "data", data)
    argv = ["--config", config_path, "--data-dir", str(data)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(storage, "COMPACT_ROWS", 1)  # this drain raises fewer alerts than that
        assert cli.main([*argv, "stream"]) == 0
    assert (data / "tables" / "alerts" / storage.COMPACTION_NAME).exists()
    feed = work / "feed.jsonl"
    fresh = [replace(t, id=t.id + 10_000) for t in generate(GeneratorConfig(seed=5, count=2500))]
    write_jsonl(fresh, str(feed))
    assert cli.main([*argv, "ingest", "--input", str(feed)]) == 0
    return data, config_path


def outputs_past_compaction(data, reports):
    """alert_outputs, with the alert rows a Workspace counts by adopting
    the alerts compaction."""
    tables = cli.Workspace(PipelineConfig(data_dir=str(data))).tables
    return {**alert_outputs(data, reports), "compacted alert rows": tables.count("alerts")}


@pytest.fixture(scope="module")
def unbroken_past_compaction(compacted_for_resume, tmp_path_factory):
    data, config_path = compacted_for_resume
    work = tmp_path_factory.mktemp("unbroken_past_compaction")
    shutil.copytree(data, work / "data")
    argv = ["--config", config_path, "--data-dir", str(work / "data"), "--report-dir", str(work / "reports")]
    assert cli.main([*argv, "stream"]) == 0
    assert cli.main([*argv, "report"]) == 0
    return outputs_past_compaction(work / "data", work / "reports")


@pytest.mark.parametrize("kill", sorted(KILLS))
def test_killed_stream_resumes_past_an_alerts_compaction(
    compacted_for_resume, unbroken_past_compaction, tmp_path, kill
):
    source, config_path = compacted_for_resume
    data = tmp_path / "data"
    shutil.copytree(source, data)
    compaction = data / "tables" / "alerts" / storage.COMPACTION_NAME
    before = compaction.read_bytes()
    argv = ["--config", config_path, "--data-dir", str(data), "--report-dir", str(tmp_path / "reports")]
    kill_stream(argv, kill)
    assert compaction.read_bytes() == before  # what the killed stream wrote lies past it
    resumed = run_cli_process([*argv, "stream"])
    assert resumed.returncode == 0, resumed.stderr
    assert compaction.read_bytes() == before  # fewer rows past it than it covers
    assert cli.main([*argv, "report"]) == 0
    assert outputs_past_compaction(data, tmp_path / "reports") == unbroken_past_compaction


def test_alerts_columns_equal_the_journal_fold(trained_for_resume, tmp_path, monkeypatch):
    """With and without a compaction, the alerts table's columns and count
    equal its plain fold: over a replayed batch, a row past the compaction
    that replaces a compacted key, and a drain of fewer rows than it covers,
    which reads no compaction column and writes none."""
    root, config_path = trained_for_resume
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    argv = ["--config", config_path, "--data-dir", str(data)]
    journal = data / "tables" / "alerts" / "journal.jsonl"
    compaction = data / "tables" / "alerts" / storage.COMPACTION_NAME

    def assert_fold():
        tables = cli.Workspace(PipelineConfig(data_dir=str(data))).tables
        assert_same_columns(tables.columns("alerts"), alerts_oracle(tables))
        assert tables.count("alerts") == len(tables.query("alerts"))

    monkeypatch.setattr(storage, "COMPACT_ROWS", 100)
    kill_stream(argv, "between_alert_write_and_commit")  # the resumed stream replays a batch
    assert not compaction.exists()
    assert_fold()
    assert cli.main([*argv, "stream"]) == 0  # compacts the killed stream's lines and its own
    assert compaction.exists()
    tables = cli.Workspace(PipelineConfig(data_dir=str(data))).tables
    assert tables.count("alerts") < journal.read_bytes().count(b"\n")  # the replayed keys
    assert_fold()

    first = json.loads(journal.read_text().splitlines()[0])
    with open(journal, "a") as fh:
        fh.write(json.dumps(dict(first, score=0.125), sort_keys=True) + "\n")
    assert_fold()

    feed = tmp_path / "feed.jsonl"
    write_jsonl([replace(t, id=t.id + 10_000) for t in generate(GeneratorConfig(seed=5, count=300))], str(feed))
    assert cli.main([*argv, "ingest", "--input", str(feed)]) == 0
    size, before = journal.stat().st_size, compaction.read_bytes()
    touched = []
    with monkeypatch.context() as patch:
        patch.setattr(storage, "_read_compaction", lambda *args: touched.append(args))
        patch.setattr(storage, "_write_compaction", lambda *args: touched.append(args))
        assert cli.main([*argv, "stream"]) == 0
    assert touched == []
    assert journal.stat().st_size > size
    assert compaction.read_bytes() == before
    assert_fold()


def stream_to_pinned_forest(tmp_path, **overrides):
    """The alerts journal after a seed-7, 3,000-row ingest -> train ->
    stream of the drill's data, served by the forest: its scores, unlike the
    logistic model's, do not depend on the BLAS thread count."""
    data = tmp_path / "data"
    config_path = write_config(
        tmp_path / "config.json",
        seed=7,
        generator=dict(DEMO_GENERATOR, count=3000),
        data_dir=str(data),
        **overrides,
    )
    for argv in (["generate"], ["ingest"], ["train"]):
        assert cli.main(["--config", config_path, *argv]) == 0, argv
    registry = ModelRegistry(str(data / "registry.jsonl"), BlobStore(str(data / "blobs")))
    forest = next(r for r in registry.records() if r.kind == "random_forest")
    registry.activate(forest.version, tick=0)
    assert cli.main(["--config", config_path, "stream"]) == 0
    assert not (data / "alerts.jsonl").exists()
    sink = (data / "tables" / "alerts" / "journal.jsonl").read_bytes()
    assert f'"source": "model:v{forest.version}"'.encode() in sink
    return sink


# sha256 of that journal with the high-risk and velocity rules off
ALERT_SINK_SHA256 = "ae51c30d3cd7501afd9f8924e0c3245b2b304d91c28325147f19dea40d2041e0"


def test_alert_sink_bytes_are_pinned_table_rows(tmp_path):
    # high-risk types are where the drill's laundering is, and velocity
    # fires on nearly every record: off, so the model's alerts show
    sink = stream_to_pinned_forest(
        tmp_path, rules={"enable_high_risk": False, "enable_velocity": False}
    )
    assert hashlib.sha256(sink).hexdigest() == ALERT_SINK_SHA256
    # upserting the lines through the table writes the same bytes, and
    # every folded row decodes to an alert that re-encodes to its line
    lines = sink.decode("utf-8").splitlines()
    scratch = TableStore(str(tmp_path / "scratch"))
    scratch.create_table("alerts", key="alert_id")
    assert scratch.upsert_rows("alerts", lines) == len(lines)
    scratch.close()
    assert (tmp_path / "scratch" / "alerts" / "journal.jsonl").read_bytes() == sink
    rows = scratch.query("alerts")
    assert len(rows) == len(lines)
    for row in rows:
        alert = streamproc.alert_from_dict(row)
        encoded = {"alert_id": f"{alert.transaction_id}:{alert.source}", **asdict(alert)}
        assert json.dumps(encoded, sort_keys=True) == json.dumps(row, sort_keys=True)


# sha256 of that journal with all rules on, as the per-record drain wrote
# it before the drain went columnar
INTERLEAVED_SINK_SHA256 = "21b94fd020cdc5bbd4110213e2a52339a3a1d5a25545cee6e607861b741cec78"


def test_alert_sink_pins_rule_and_model_interleaving(tmp_path):
    # all three rules on, with a narrow high-risk set and a loose velocity
    # limit so that every rule and the model alert, in 50-record batches
    sink = stream_to_pinned_forest(
        tmp_path,
        rules={"high_risk_types": ["Cash Withdrawal"], "velocity_max_count": 150},
        stream={"batch_max": 50},
    )
    for source in (streamproc.RULE_HIGH_RISK, streamproc.RULE_CORRIDOR, streamproc.RULE_VELOCITY):
        assert f'"source": "{source}"'.encode() in sink
    assert hashlib.sha256(sink).hexdigest() == INTERLEAVED_SINK_SHA256


# ---------------------------------------------------------------------------
# the scripted demo
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def demo_outcome(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    config = PipelineConfig.from_file(demo_config(root, "shift"))
    outcome = cli.run_demo(config, shift=True, echo=lambda *_: None)
    return outcome


def test_demo_control_windows_stay_quiet(demo_outcome):
    assert demo_outcome["control_decisions"] == ["none", "none"]


def test_demo_shift_triggers_retrain(demo_outcome):
    shift = demo_outcome["shift"]
    assert shift["decision"] == "retrain"
    assert shift["psi"] > 0.2
    assert shift["worst_feature"] in ("payment_currency", "received_currency")


def test_demo_promotes_challenger(demo_outcome):
    shift = demo_outcome["shift"]
    assert shift["challenger_version"] == 4
    assert shift["challenger_status"] == "active"
    assert shift["active_version_after"] == 4


def test_demo_writes_report_bundle(demo_outcome):
    assert len(demo_outcome["report_files"]) == len(cli.REPORT_FILES)
    for path in demo_outcome["report_files"]:
        assert os.path.isfile(path)


def test_demo_keeps_the_configured_f1_guard(tmp_path):
    # no generator section: the demo runs on its own generator settings
    config = PipelineConfig.from_dict(
        {
            "data_dir": str(tmp_path / "data"),
            "report_dir": str(tmp_path / "reports"),
            "drift": {"window": 1000, "f1_guard": 0.0},
            "models": {"logistic_regression": {"max_iters": 120}, "random_forest": {"n_trees": 8}},
        }
    )
    cli.run_demo(config, shift=False, echo=lambda *_: None)
    assert config.generator == cli.DEMO_GENERATOR
    assert config.drift.f1_guard == 0.0


def test_demo_no_shift_sees_no_drift(tmp_path):
    config = PipelineConfig.from_file(demo_config(tmp_path, "quiet"))
    outcome = cli.run_demo(config, shift=False, echo=lambda *_: None)
    assert outcome["control_decisions"] == ["none", "none"]
    assert outcome["shift"] is None
