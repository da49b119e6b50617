"""tools/same_outputs.py's comparison on small trees, and its flow run against a
stub CLI; the program's own flow is not run."""

import importlib.util
import json
from pathlib import Path

import pytest

from amlstream.config import PipelineConfig
from amlstream.errors import DataError
from amlstream import txgen
from amlstream.txgen import read_jsonl, transaction_to_json

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

TREE = {
    "data/log/t/p000/segment-00000000.log": b"\x05\x00\x00\x00frame",
    "data/tables/transactions/journal.jsonl": b'{"id": 1}\n',
    "reports/summary.csv": b"a,b\n1,2\n",
}


def make_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return same_outputs.digests(root)


def changed_byte(files):
    data = bytearray(files["reports/summary.csv"])
    data[-2] ^= 0x01
    return dict(files, **{"reports/summary.csv": bytes(data)})


def missing_file(files):
    return {name: data for name, data in files.items() if not name.startswith("data/tables")}


# case -> (how the change's tree differs, the differences named)
CASES = {
    "identical": (lambda files: files, []),
    "one_byte_changed": (changed_byte, ["differs: reports/summary.csv"]),
    "one_file_missing": (missing_file, ["only in parent: data/tables/transactions/journal.jsonl"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_differing_file_is_named(tmp_path, case):
    edit, named = CASES[case]
    parent = make_tree(tmp_path / "parent", TREE)
    change = make_tree(tmp_path / "change", edit(TREE))
    assert same_outputs.compare_files(parent, change) == named
    # a file only the change has is named from its side
    flipped = [line.replace("only in parent", "only in change") for line in named]
    assert same_outputs.compare_files(change, parent) == flipped


def test_every_differing_console_line_is_named():
    parent = ["$ amlstream ingest -> exit 0", "stored 10 transactions"]
    assert same_outputs.compare_lines(parent, list(parent)) == []
    assert same_outputs.compare_lines(parent, [parent[0], "stored 11 transactions"]) == [
        "console line 2:\n  parent: stored 10 transactions\n  change: stored 11 transactions"
    ]
    assert same_outputs.compare_lines(parent, parent[:1]) == [
        "console line 2:\n  parent: stored 10 transactions\n  change: <none>"
    ]


def test_scores_config_turns_every_rule_off_and_alerts_on_every_score():
    config = PipelineConfig.from_dict(same_outputs.SCORES_CONFIG)
    assert not any(value for name, value in vars(config.rules).items() if name.startswith("enable_"))
    assert config.stream.alert_threshold == 0.0


STUB_CLI = """import sys
args = sys.argv[1:]
if "--config" in args:
    print(open(args[args.index("--config") + 1]).read())
print(" ".join(args))
"""


def run_stub_flow(tmp_path) -> tuple[list[str], Path]:
    """The flow's console lines, run with a checkout whose CLI prints its
    arguments and the config it is given, and the dir it ran in."""
    stub = tmp_path / "checkout" / "src" / "amlstream"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text(STUB_CLI)
    root = tmp_path / "root"
    root.mkdir()
    return same_outputs.run_flow(tmp_path / "checkout", root, same_outputs.flow(7, 100)), root


def test_the_flow_streams_a_second_feed_under_the_scores_config(tmp_path):
    lines, _ = run_stub_flow(tmp_path)
    step = lines.index(
        "$ amlstream --config {root}/scores.json --data-dir {root}/data --report-dir "
        "{root}/reports --seed 7 stream --feed {root}/scores-feed.jsonl -> exit 0"
    )
    assert json.loads(lines[step + 1]) == same_outputs.SCORES_CONFIG
    generated = [line for line in lines if line.endswith("--out <root>/scores-feed.jsonl")]
    assert generated == [
        "--data-dir <root>/data --report-dir <root>/reports --seed 9 generate --count 600 "
        "--out <root>/scores-feed.jsonl"
    ]
    # the second feed is streamed after the first and before the demo
    commands = [line for line in lines if line.startswith("$ ")]
    assert commands.index(lines[step]) == len(commands) - 2


def test_the_flow_ingests_lines_the_generator_never_writes(tmp_path):
    lines, root = run_stub_flow(tmp_path)
    for name in ("odd", "bad"):
        assert (
            f"$ amlstream --data-dir {{root}}/{name} --report-dir {{root}}/{name}-reports --seed 7 "
            f"ingest --input {{root}}/{name}.jsonl -> exit 0"
        ) in lines
    odd = list(read_jsonl(root / "odd.jsonl"))
    assert [t.id for t in odd] == [1, 2, 3, 4]
    assert [t.is_laundering for t in odd] == [False, True, False, True]
    assert [t.amount for t in odd] == [250.0, 150.0, 99.99, 7.0]
    assert {odd[0].sender_bank_location, odd[1].receiver_bank_location} == {"Zürich"}
    assert odd[1].payment_type == "Cash Deposit" and odd[3].payment_currency == "£GB"
    # one line is as the generator writes it, the others are not
    written = (root / "odd.jsonl").read_text(encoding="utf-8").splitlines()
    assert [transaction_to_json(t) in written for t in odd] == [False, False, True, False]
    with pytest.raises(DataError, match=r"^line 3: malformed transaction record: amount nan"):
        list(read_jsonl(root / "bad.jsonl"))


def test_the_flow_ingests_scanned_lines_with_amounts_the_encoder_never_writes(tmp_path):
    lines, root = run_stub_flow(tmp_path)
    assert (
        "$ amlstream --data-dir {root}/amounts --report-dir {root}/amounts-reports --seed 7 "
        "ingest --input {root}/amounts.jsonl -> exit 0"
    ) in lines
    raw = (root / "amounts.jsonl").read_bytes().splitlines(keepends=True)
    chunk = same_outputs.CHUNK_LINES
    assert chunk == txgen.CHUNK_LINES and len(raw) == same_outputs.AMOUNT_CHUNKS * chunk
    first, second = b"".join(raw[:chunk]), b"".join(raw[chunk:])
    # the first chunk is read as it is, the second scans but its amounts are re-encoded
    assert txgen._scan(first, chunk, exact=True) is not None
    assert txgen._scan(second, chunk) is not None
    assert txgen._scan(second, chunk, exact=True) is None


def test_a_lock_file_is_no_output(tmp_path):
    files = dict(TREE, **{"data/.lock": b""})
    assert list(make_tree(tmp_path, files)) == sorted(TREE)


def test_the_flow_generates_and_ingests_csv_and_escaping_vocabularies(tmp_path):
    lines, root = run_stub_flow(tmp_path)
    commands = [line for line in lines if line.startswith("$ ")]
    csv_at = "--data-dir {root}/csv --report-dir {root}/csv-reports --seed 7"
    escaping_at = ("--config {root}/escaping.json --data-dir {root}/escaping "
                   "--report-dir {root}/escaping-reports --seed 7")
    expected = [
        f"$ amlstream {csv_at} generate --count 100 --out {{root}}/generated.csv -> exit 0",
        f"$ amlstream {csv_at} ingest --input {{root}}/generated.csv -> exit 0",
        f"$ amlstream {escaping_at} generate --count 600 -> exit 0",
        f"$ amlstream {escaping_at} ingest -> exit 0",
    ]
    first = commands.index(expected[0])
    assert commands[first : first + 4] == expected
    # the stub printed the config each escaping command was given
    assert json.loads(lines[lines.index(expected[2]) + 1]) == same_outputs.ESCAPING_CONFIG
    config = PipelineConfig.from_dict(same_outputs.ESCAPING_CONFIG).generator_config(count=10)
    vocabulary = [*config.payment_type_weights, *config.currency_weights, *config.location_weights]
    assert {'"', "\\", "\t", "\n", ",", "ü", "東"} <= set("".join(vocabulary))
    assert vocabulary[:5] != sorted(vocabulary[:5]) and 0.0 in config.payment_type_weights.values()
