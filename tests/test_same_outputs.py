"""tools/same_outputs.py's comparison on small trees, and its flow run against a
stub CLI; the program's own flow is not run."""

import importlib.util
import json
from pathlib import Path

import pytest

from amlstream.config import PipelineConfig

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


def test_the_flow_streams_a_second_feed_under_the_scores_config(tmp_path):
    # a checkout whose CLI prints its arguments and the config it is given
    stub = tmp_path / "checkout" / "src" / "amlstream"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text(STUB_CLI)
    root = tmp_path / "root"
    root.mkdir()
    lines = same_outputs.run_flow(tmp_path / "checkout", root, same_outputs.flow(7, 100))
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
