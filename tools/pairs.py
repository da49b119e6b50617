"""Compare two checkouts on the benchmark in interleaved pairs.

    python3 tools/pairs.py --parent ../base --change . --workload backfill --seed 3 --pairs 10

For each pair and workload it runs, in each checkout,

    python3 bench/run.py --workload W --seed S --trace 0

alternating which side goes first, and reads the gated end-to-end metrics
from the JSON line the run prints last. For each metric of BENCHMARK.json
it then prints each side's median and quartiles, how many pairs the change
won, whether its median gain exceeds the parent's interquartile range, and
a verdict: gain, held, unresolved or WORSE (see ``compare``). A pair with
a run that fails or is not correct is left out of the comparison and
reported. The tool exits 1 if any pair was left out or any median is
worse than its bound. ``--out`` keeps every run's metrics as JSON.

``--record DIR`` writes, for each side, ``DIR/BENCH_<short commit>.json``
from the runs already made, ``-dirty`` added to the name when the
checkout's ``src/`` differs from its commit. The file holds, per
workload and seed, how many runs were correct and each gated metric's
median and quartiles over them, with the git commit and the sha256 of
``src/amlstream/*.py`` that bench/run.py records as ``src_sha256``. A
file already there for the same ``src_sha256`` keeps its other workloads
and seeds.

Standard library only; it does not import the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int) -> dict | None:
    """The metrics of one run, as ``{name: value}``; None if the run failed
    or was not correct."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


@dataclass
class Comparison:
    """One metric over paired runs: each side's quartiles, the pairs the
    change won, whether its median gain exceeds the parent's IQR, and the
    verdict."""

    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    won: int
    beyond_iqr: bool
    verdict: str


def compare(parent: list[float], change: list[float], lower: bool, bound: float) -> Comparison:
    """The i-th of ``parent`` and of ``change`` are one pair. The verdict:

    - ``gain``: the change wins at least 9 of 10 pairs (ties count for
      neither side) and its median gain exceeds the parent's IQR;
    - ``WORSE``: the change's median is worse than the parent's by more
      than ``bound``, a fraction of the parent's median;
    - ``unresolved``: the parent's IQR exceeds ``bound`` of its median,
      and not every change run beats every parent run;
    - ``held``: everything else.
    """
    pq, cq = quartiles(parent), quartiles(change)
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    gain = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
    iqr = pq[2] - pq[0]
    separated = max(change) < min(parent) if lower else min(change) > max(parent)
    if 10 * won >= 9 * len(parent) and gain > iqr:
        verdict = "gain"
    elif pq[1] and -gain / pq[1] > bound:
        verdict = "WORSE"
    elif pq[1] and iqr / pq[1] > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "held"
    return Comparison(pq, cq, won, gain > iqr, verdict)


def source_digest(checkout: Path) -> str:
    """The digest bench/run.py records as ``src_sha256``."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "amlstream").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git(checkout: Path, *args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def record(path: Path, identity: dict, seed: int, runs: dict[str, list], gated: list[dict]) -> None:
    """Write ``identity`` and, for each workload of ``runs``, its count of
    correct runs and each gated metric's quartiles over them into the
    record at ``path``, keeping the file's other entries when its
    ``src_sha256`` is the same."""
    results = {}
    if path.exists():
        old = json.loads(path.read_text())
        if old["src_sha256"] == identity["src_sha256"]:
            results = old["results"]
    for workload, metrics in runs.items():
        correct = [m for m in metrics if m is not None]
        entry = {"workload": workload, "seed": seed, "runs": len(correct), "metrics": {}}
        for metric in gated if correct else ():
            q1, median, q3 = quartiles([m[metric["name"]] for m in correct])
            entry["metrics"][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3,
                "unit": metric["unit"], "better": metric["better"],
            }
        results[f"{workload}-s{seed}"] = entry
    path.write_text(json.dumps(dict(identity, results=dict(sorted(results.items()))), indent=1) + "\n")


def checkout_identity(checkout: Path) -> dict:
    return {
        "git_commit": git(checkout, "rev-parse", "HEAD") or "unknown",
        "dirty": bool(git(checkout, "status", "--porcelain", "--", "src")),
        "src_sha256": source_digest(checkout),
    }


def record_name(identity: dict) -> str:
    return f"BENCH_{identity['git_commit'][:7]}{'-dirty' if identity['dirty'] else ''}.json"


def summarize(workload: str, runs: list[tuple[dict | None, dict | None]], gated: list[dict]) -> bool:
    """Print one line per gated metric; returns whether every pair ran
    correctly and no metric's verdict is WORSE."""
    ok = True
    whole = [(p, c) for p, c in runs if p is not None and c is not None]
    failed = len(runs) - len(whole)
    print(f"{workload}: {len(whole)} of {len(runs)} pairs ran correctly on both sides")
    if not whole:
        return False
    print(f"  {'metric':12s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s}"
          f" {'change':>8s} {'won':>6s} {'>IQR':>5s} {'verdict':>10s}")
    for metric in gated:
        name = metric["name"]
        result = compare([p[name] for p, _ in whole], [c[name] for _, c in whole],
                         metric["better"] == "lower", metric["bound"])
        ok &= result.verdict != "WORSE"
        pq, cq = result.parent, result.change
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        print(f"  {name:12s} {pq[0]:10.4g} {pq[1]:10.4g} {pq[2]:10.4g}"
              f" {cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g}"
              f" {rel:+8.1%} {result.won:3d}/{len(whole):<2d}"
              f" {'yes' if result.beyond_iqr else 'no':>5s} {result.verdict:>10s}")
    if failed:
        print(f"  {failed} pair(s) failed or were not correct")
    return ok and not failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", default=["backfill", "live", "history"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write every run's metrics here as JSON")
    parser.add_argument("--record", type=Path, metavar="DIR",
                        help="write each side's BENCH_<short commit>.json here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    gated = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list] = {w: [] for w in args.workload}
    for i in range(args.pairs):
        for workload in args.workload:
            sides = {}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                sides[side] = run_bench(getattr(args, side), workload, args.seed)
            runs[workload].append((sides["parent"], sides["change"]))
            print(f"pair {i + 1}/{args.pairs} {workload}: {' then '.join(order)}", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(
            {w: [{"parent": p, "change": c} for p, c in pairs] for w, pairs in runs.items()},
            indent=1))
    if args.record:
        args.record.mkdir(parents=True, exist_ok=True)
        for index, side in enumerate(("parent", "change")):
            identity = checkout_identity(getattr(args, side))
            path = args.record / record_name(identity)
            side_runs = {w: [pair[index] for pair in pairs] for w, pairs in runs.items()}
            record(path, identity, args.seed, side_runs, gated)
            print(f"recorded {side} in {path}", file=sys.stderr)
    ok = True
    for workload in args.workload:
        ok &= summarize(workload, runs[workload], gated)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
