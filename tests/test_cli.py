"""End-to-end tests for the command line interface.

Each flow runs in-process through cli.main so exit codes and console
output are observable. Datasets are kept small; model settings are
reduced through the config file so the suite stays fast.
"""

import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from amlstream import cli, lifecycle, storage, streamproc
from amlstream.config import PipelineConfig
from amlstream.eventlog import EventLog
from amlstream.lifecycle import ModelRegistry
from amlstream.storage import BlobStore, TableStore
from amlstream.txgen import GeneratorConfig, generate, read_dataset, write_jsonl


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
    # a CSV reader decodes text in blocks, so it names the file, not the line
    "latin1.csv": (
        b"id,timestamp,amount,payment_currency,received_currency,"
        b"sender_bank_location,receiver_bank_location,payment_type,is_laundering\n"
        b"1,5,1.0,GBP,GBP,UK,UK,ACH,0\n2,5,1.0,GBP,GBP,Espa\xf1a,UK,ACH,0\n",
        "latin1.csv: not UTF-8 text",
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


def test_ingest_missing_input_exits_3(tmp_path):
    code = cli.main(
        ["--data-dir", str(tmp_path / "d"), "ingest", "--input", str(tmp_path / "no.jsonl")]
    )
    assert code == 3


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


# the on-disk table schemas, spelled out so that a renamed or reordered
# Transaction or Alert field shows up here rather than silently on disk
STORED_SCHEMAS = {
    "transactions": {
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
    },
    "alerts": {
        "name": "alerts",
        "columns": {
            "alert_id": "str",
            "transaction_id": "int",
            "source": "str",
            "score": "float",
            "tick": "int",
        },
        "key": "alert_id",
    },
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


def active_model_blob(data):
    active = ModelRegistry(str(data / "registry.jsonl"), BlobStore(str(data / "blobs"))).active()
    return data / "blobs" / "models" / "2023-01-01" / active.blob_name


# (file to corrupt, how, the command that reads it, whether the error names a line)
CORRUPT_FILES = {
    "empty_positions": (
        lambda data: data / "log" / "transactions" / "positions.json",
        lambda path: path.write_text(""),
        ["stream"],
        False,
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
        lambda data: data / "log" / "transactions" / "positions.json",
        edit_json(lambda positions: positions["stream"].update({"0": "5"})),
        ["stream"],
        False,
    ),
    "offset_past_end": (
        lambda data: data / "log" / "transactions" / "positions.json",
        edit_json(lambda positions: positions["stream"].update({"0": positions["stream"]["0"] + 64})),
        ["stream"],
        False,
    ),
    "offset_negative": (
        lambda data: data / "log" / "transactions" / "positions.json",
        edit_json(lambda positions: positions["stream"].update({"0": -4})),
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
    "alert_row_without_score": (
        lambda data: data / "tables" / "alerts" / "journal.jsonl",
        append_line('{"alert_id": "1:rule:x", "source": "rule:x", "tick": 5, "transaction_id": 1}'),
        ["report"],
        False,
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
    if names_line:
        expected += f":{len(path.read_text().splitlines())}"
    assert expected in err, err


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


def test_stream_reads_no_warehouse_table(flow, tmp_path, monkeypatch):
    root, config_path, _ = flow
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    (data / "log" / "transactions" / "positions.json").unlink()  # so the stream drains again
    read = []
    real_read_journal = storage.read_journal

    def recording_read_journal(path, decode=None):
        read.append(os.path.relpath(path, data))
        return real_read_journal(path, decode)

    for module in (storage, lifecycle, streamproc):
        monkeypatch.setattr(module, "read_journal", recording_read_journal)
    assert cli.main(["--config", config_path, "--data-dir", str(data), "stream"]) == 0
    assert "registry.jsonl" in read  # the active model is still looked up
    assert not [path for path in read if path.startswith("tables")], read


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

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(EventLog, "commit_watermark", checking_commit)
    argv = ["--config", config_path, "stream", "--feed", str(feed), "--rate", "100"]
    assert cli.main(argv) == 0
    batches = re.search(r"drained 300 records in (\d+) batches", capsys.readouterr().out)
    assert batches
    assert commits
    assert len(commits) == int(batches.group(1))  # one commit per batch
    assert not unsynced


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


@pytest.mark.parametrize("kill", sorted(KILLS))
def test_killed_stream_resumes_to_the_unbroken_report(
    trained_for_resume, unbroken_outputs, tmp_path, monkeypatch, kill
):
    root, config_path = trained_for_resume
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    argv = ["--config", config_path, "--data-dir", str(data), "--report-dir", str(tmp_path / "reports")]
    owner, name, dying_call = KILLS[kill]
    real = getattr(owner, name)
    calls = itertools.count(1)

    def dying(*args):
        if next(calls) == dying_call:
            raise Killed
        return real(*args)

    monkeypatch.setattr(owner, name, dying)
    with pytest.raises(Killed):
        cli.main([*argv, "stream"])
    monkeypatch.undo()
    assert (data / "log" / "transactions" / "positions.json").exists()  # some batches committed
    resumed = run_cli_process([*argv, "stream"])
    assert resumed.returncode == 0, resumed.stderr
    assert cli.main([*argv, "report"]) == 0
    assert alert_outputs(data, tmp_path / "reports") == unbroken_outputs


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
    # every line is a row the alerts table accepts, and upserting the
    # lines through the table writes the same bytes
    scratch = TableStore(str(tmp_path / "scratch"))
    scratch.create_table("alerts", cli.ALERT_COLUMNS, key="alert_id")
    scratch.upsert_rows("alerts", [json.loads(line) for line in sink.splitlines()])
    scratch.close()
    assert (tmp_path / "scratch" / "alerts" / "journal.jsonl").read_bytes() == sink


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


def test_demo_no_shift_sees_no_drift(tmp_path):
    config = PipelineConfig.from_file(demo_config(tmp_path, "quiet"))
    outcome = cli.run_demo(config, shift=False, echo=lambda *_: None)
    assert outcome["control_decisions"] == ["none", "none"]
    assert outcome["shift"] is None
