"""Check that two checkouts leave the same files and print the same output.

    python3 tools/same_outputs.py --parent ../base --change . --seed 7 --count 8000

For each checkout, in a temp dir of its own, it runs the CLI of that
checkout (``python -m amlstream.cli`` with PYTHONPATH=<checkout>/src and
OPENBLAS_NUM_THREADS=1) through one flow at a fixed seed:

    generate --count N, ingest, train, stream, report
    generate --count 600 --out feed.jsonl at the next seed, stream --feed
    feed.jsonl, report into a second report dir
    ingest --input odd.jsonl, ingest --input bad.jsonl and ingest --input
    amounts.jsonl, each on a data dir of its own
    generate --count N --out generated.csv, ingest --input generated.csv,
    on a data dir of its own
    generate --count 600, ingest under --config escaping.json, on a data
    dir of its own
    generate --count 600 --out scores-feed.jsonl at the seed after, stream
    --feed scores-feed.jsonl under --config scores.json
    demo, on a data dir of its own

escaping.json, which the tool writes, gives the generator vocabularies
whose values JSON escapes and CSV quotes: non-ASCII text, a double quote,
a backslash, a tab, a newline and a comma, listed out of sorted order, one
of them never drawn.

scores.json, which the tool also writes, turns every rule off and sets
stream.alert_threshold to 0.0, so that the served model's score of every
record of that feed reaches the alerts journal; without it the rules
flag nearly every record and the model's scores reach no file.

odd.jsonl and bad.jsonl, which the tool also writes, hold lines that the
generator never writes: keys in another order, spaces, the
``is_laundersing`` label alias, raw non-ASCII and ``\\u``-escaped strings,
integer and exponent amounts, a blank line; bad.jsonl has a line whose
amount is NaN, so its ingest exits 4 naming that line. amounts.jsonl,
written too, holds AMOUNT_CHUNKS chunks of the dataset reader's
CHUNK_LINES lines, every line in the generator's layout; the amounts of
the first chunk are as the generator writes them, while a few of the
second's are in forms it never writes (``100.50``, ``1e2``, ``7``), so
the reader stores the first chunk's lines as read and re-encodes the
second's. Their ingests put what the dataset reader makes of such lines,
the stored bytes and the error text, among the compared files and
console lines.

It then names every file whose sha256 differs or that only one side
has, and every console line that differs once each temp dir's path is
replaced by ``<root>``. A data dir's ``.lock``, the empty file a writing
command holds its lock on, is no output and is left out. A command's exit code is one of its console
lines. The tool exits 1 on any difference, 0 on none.

The default 8,000-row flow activates logistic regression at every seed
tried (1, 2, 3, 4, 5, 7, 11), so it never serves a tree. ``--seed 7
--count 50000`` activates the random forest; check a change to tree
scoring with that invocation too.

Standard library only; it does not import the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FEED_COUNT = 600
ODD_LINES = [  # dataset lines in forms the generator never writes
    '{"timestamp": 86400, "id": 1, "amount": 250, "payment_currency": "GBP", '
    '"received_currency": "EUR", "sender_bank_location": "Zürich", '
    '"receiver_bank_location": "UK", "payment_type": "ACH", "is_laundersing": false}',
    '{"id":2,"timestamp":90061,"amount":1.5e2,"payment_currency":"GBP",'
    '"received_currency":"GBP","sender_bank_location":"UK",'
    '"receiver_bank_location":"Z\\u00fcrich","payment_type":"Cash\\u0020Deposit",'
    '"is_laundersing":true}',
    "",
    '{"id":3,"timestamp":172800,"amount":99.99,"payment_currency":"USD",'
    '"received_currency":"GBP","sender_bank_location":"US","receiver_bank_location":"UK",'
    '"payment_type":"Cross-border","is_laundering":false}',
    '{ "id" : 4 , "timestamp" : 259200 , "amount" : 7 , "payment_currency" : "\\u00a3GB" ,'
    ' "received_currency" : "GBP" , "sender_bank_location" : "東京" ,'
    ' "receiver_bank_location" : "UK" , "payment_type" : "Cheque" , "is_laundering" : true }',
]
BAD_LINES = [*ODD_LINES[:2], ODD_LINES[3].replace('"amount":99.99', '"amount":NaN'), ODD_LINES[4]]
CHUNK_LINES = 1024  # txgen's: the dataset reader scans a file this many lines at a time
AMOUNT_CHUNKS = 2
AMOUNT_LINE = (  # the generator's layout
    '{"id":%d,"timestamp":%d,"amount":%s,"payment_currency":"GBP","received_currency":"%s",'
    '"sender_bank_location":"%s","receiver_bank_location":"UK","payment_type":"%s",'
    '"is_laundering":%s}'
)
ODD_AMOUNTS = {CHUNK_LINES + 3: "100.50", CHUNK_LINES + 40: "1e2", CHUNK_LINES + 41: "7",
               CHUNK_LINES + 500: "2.5E+3"}  # line index -> an amount the generator never writes
LOCK_NAME = ".lock"


def amount_lines() -> list[str]:
    """amounts.jsonl's lines: the generator's layout throughout, with the
    amounts of ODD_AMOUNTS on their lines and float.__repr__'s elsewhere."""
    currencies, senders = ("GBP", "EUR", "USD"), ("UK", "US", "France", "Japan")
    types = ("ACH", "Cheque", "Cash Deposit")
    return [
        AMOUNT_LINE % (
            i + 1, 3_600 * i, ODD_AMOUNTS.get(i, repr(round(1 + i * 1.37, 2))),
            currencies[i % 3], senders[i % 4], types[i % 3], "true" if i % 50 == 0 else "false",
        )
        for i in range(AMOUNT_CHUNKS * CHUNK_LINES)
    ]


ESCAPING_CONFIG = {"generator": {  # vocabularies JSON escapes and CSV quotes
    "payment_type_weights": {"Wire": 0.3, 'Cash "Deposit"': 0.3, "Back\\slash": 0.2,
                             "Tab\there": 0.2, "Never": 0.0},
    "fraud_rate_by_type": {"Wire": 0.1, 'Cash "Deposit"': 0.5, "Back\\slash": 0.0,
                           "Tab\there": 0.2, "Never": 0.0},
    "currency_weights": {"£GBP": 0.5, "EUR": 0.25, "€X": 0.25},
    "location_weights": {"Zürich": 0.3, "Hong Kong, SAR": 0.3, "UK": 0.2,
                         "Line\nbreak": 0.1, "東京": 0.1},
}}
SCORES_CONFIG = {  # every rule off, every score an alert
    "rules": {"enable_high_risk": False, "enable_corridor": False, "enable_velocity": False},
    "stream": {"alert_threshold": 0.0},
}


def flow(seed: int, count: int) -> list[list[str]]:
    """The CLI arguments of each command of the flow; ``{root}`` is the temp dir."""
    def at(data: str, reports: str, seed: int = seed) -> list[str]:
        return ["--data-dir", "{root}/" + data, "--report-dir", "{root}/" + reports,
                "--seed", str(seed)]

    base = at("data", "reports")
    return [
        [*base, "generate", "--count", str(count)],
        [*base, "ingest"],
        [*base, "train"],
        [*base, "stream"],
        [*base, "report"],
        [*at("data", "reports", seed + 1), "generate", "--count", str(FEED_COUNT),
         "--out", "{root}/feed.jsonl"],
        [*base, "stream", "--feed", "{root}/feed.jsonl"],
        [*at("data", "feed-reports"), "report"],
        [*at("odd", "odd-reports"), "ingest", "--input", "{root}/odd.jsonl"],
        [*at("bad", "bad-reports"), "ingest", "--input", "{root}/bad.jsonl"],
        [*at("amounts", "amounts-reports"), "ingest", "--input", "{root}/amounts.jsonl"],
        [*at("csv", "csv-reports"), "generate", "--count", str(count),
         "--out", "{root}/generated.csv"],
        [*at("csv", "csv-reports"), "ingest", "--input", "{root}/generated.csv"],
        ["--config", "{root}/escaping.json", *at("escaping", "escaping-reports"),
         "generate", "--count", str(FEED_COUNT)],
        ["--config", "{root}/escaping.json", *at("escaping", "escaping-reports"), "ingest"],
        [*at("data", "reports", seed + 2), "generate", "--count", str(FEED_COUNT),
         "--out", "{root}/scores-feed.jsonl"],
        ["--config", "{root}/scores.json", *base, "stream", "--feed", "{root}/scores-feed.jsonl"],
        [*at("demo", "demo-reports"), "demo"],
    ]


def run_flow(checkout: Path, root: Path, commands: list[list[str]]) -> list[str]:
    """Write scores.json, escaping.json, odd.jsonl, bad.jsonl and
    amounts.jsonl into ``root``, then run ``commands`` with the CLI of
    ``checkout`` there; returns their console lines, ``root`` replaced by
    ``<root>``."""
    (root / "scores.json").write_text(json.dumps(SCORES_CONFIG, sort_keys=True))
    (root / "escaping.json").write_text(json.dumps(ESCAPING_CONFIG, sort_keys=True))
    for name, lines in (("odd.jsonl", ODD_LINES), ("bad.jsonl", BAD_LINES),
                        ("amounts.jsonl", amount_lines())):
        (root / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"), OPENBLAS_NUM_THREADS="1")
    lines = []
    for command in commands:
        argv = [arg.replace("{root}", str(root)) for arg in command]
        proc = subprocess.run(
            [sys.executable, "-m", "amlstream.cli", *argv],
            cwd=root, env=env, capture_output=True, text=True,
        )
        lines.append(f"$ amlstream {' '.join(command)} -> exit {proc.returncode}")
        lines += (proc.stdout + proc.stderr).replace(str(root), "<root>").splitlines()
    return lines


def digests(root: Path) -> dict[str, str]:
    """The sha256 of every file under ``root`` but a lock file, by its path
    relative to it."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != LOCK_NAME
    }


def compare_files(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """One line per file whose digest differs or that one side lacks."""
    out = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in change:
            out.append(f"only in parent: {name}")
        elif name not in parent:
            out.append(f"only in change: {name}")
        elif parent[name] != change[name]:
            out.append(f"differs: {name}")
    return out


def compare_lines(parent: list[str], change: list[str]) -> list[str]:
    """One entry per console line that differs, by its line number."""
    out = []
    for i in range(max(len(parent), len(change))):
        a = parent[i] if i < len(parent) else "<none>"
        b = change[i] if i < len(change) else "<none>"
        if a != b:
            out.append(f"console line {i + 1}:\n  parent: {a}\n  change: {b}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=8000)
    args = parser.parse_args(argv)
    commands = flow(args.seed, args.count)
    files, lines = {}, {}
    with tempfile.TemporaryDirectory() as parent_root, tempfile.TemporaryDirectory() as change_root:
        for side, root in (("parent", Path(parent_root)), ("change", Path(change_root))):
            print(f"running the {side}'s flow", file=sys.stderr)
            lines[side] = run_flow(getattr(args, side), root, commands)
            files[side] = digests(root)
    differences = compare_files(files["parent"], files["change"])
    differences += compare_lines(lines["parent"], lines["change"])
    for line in differences:
        print(line)
    print(f"{len(files['change'])} files and {len(lines['change'])} console lines compared; "
          f"{len(differences)} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
