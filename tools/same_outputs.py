"""Check that two checkouts leave the same files and print the same output.

    python3 tools/same_outputs.py --parent ../base --change . --seed 7 --count 8000

For each checkout, in a temp dir of its own, it runs the CLI of that
checkout (``python -m amlstream.cli`` with PYTHONPATH=<checkout>/src and
OPENBLAS_NUM_THREADS=1) through one flow at a fixed seed:

    generate --count N, ingest, train, stream, report
    generate --count 600 --out feed.jsonl at the next seed, stream --feed
    feed.jsonl, report into a second report dir
    generate --count 600 --out scores-feed.jsonl at the seed after, stream
    --feed scores-feed.jsonl under --config scores.json
    demo, on a data dir of its own

scores.json, which the tool writes, turns every rule off and sets
stream.alert_threshold to 0.0, so that the served model's score of every
record of that feed reaches the alerts journal; without it the rules
flag nearly every record and the model's scores reach no file.

It then names every file whose sha256 differs or that only one side
has, and every console line that differs once each temp dir's path is
replaced by ``<root>``. A command's exit code is one of its console
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
        [*at("data", "reports", seed + 2), "generate", "--count", str(FEED_COUNT),
         "--out", "{root}/scores-feed.jsonl"],
        ["--config", "{root}/scores.json", *base, "stream", "--feed", "{root}/scores-feed.jsonl"],
        [*at("demo", "demo-reports"), "demo"],
    ]


def run_flow(checkout: Path, root: Path, commands: list[list[str]]) -> list[str]:
    """Write scores.json into ``root``, then run ``commands`` with the CLI
    of ``checkout`` there; returns their console lines, ``root`` replaced
    by ``<root>``."""
    (root / "scores.json").write_text(json.dumps(SCORES_CONFIG, sort_keys=True))
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
    """The sha256 of every file under ``root``, by its path relative to it."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
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
