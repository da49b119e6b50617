"""tools/pairs.py's verdicts on synthetic runs; no benchmark is run."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = sys.modules["pairs"] = importlib.util.module_from_spec(_SPEC)  # dataclasses look it up
_SPEC.loader.exec_module(pairs)

GATED = [
    {"name": "work_s", "better": "lower", "bound": 0.25},
    {"name": "stream_rps", "better": "higher", "bound": 0.25},
]


def runs(parent_work, change_work, parent_rps=None, change_rps=None):
    parent_rps = parent_rps or [100.0] * len(parent_work)
    change_rps = change_rps or [100.0] * len(change_work)
    return [
        ({"work_s": pw, "stream_rps": pr}, {"work_s": cw, "stream_rps": cr})
        for pw, cw, pr, cr in zip(parent_work, change_work, parent_rps, change_rps)
    ]


TEN = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize(
    "parent, change, lower, expected",
    [
        # 10/10 won, the median gain (0.15) beyond the parent's IQR (0.045)
        (TEN, [v - 0.15 for v in TEN], True, "gain"),
        # 9/10 won is still a gain
        (TEN, [v - 0.15 for v in TEN[:9]] + [1.2], True, "gain"),
        # 8/10 won is not
        (TEN, [v - 0.15 for v in TEN[:8]] + [1.2, 1.2], True, "held"),
        # every pair won, but by less than the parent's IQR
        (TEN, [v - 0.01 for v in TEN], True, "held"),
        # higher is better: the same rule, mirrored
        ([100.0 + v for v in range(10)], [130.0 + v for v in range(10)], False, "gain"),
        # the median worse than the 25% bound
        (TEN, [v * 1.3 for v in TEN], True, "WORSE"),
        ([100.0] * 10, [70.0] * 10, False, "WORSE"),
        # worse within the bound on a quiet parent
        (TEN, [v * 1.1 for v in TEN], True, "held"),
        # the parent's own spread (IQR 0.5 of a median 1.0) exceeds the bound
        ([0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5], [1.0] * 10, True, "unresolved"),
        # ... unless every change run beats every parent run
        ([2.0, 2.5, 3.0, 3.5, 4.0, 4.0, 4.5, 5.0, 5.5, 6.0], [1.9] * 10, True, "gain"),
        ([2.0, 2.5, 3.0, 3.5, 4.0, 4.0, 4.5, 5.0, 5.5, 6.0], [1.9] * 5 + [7.0] * 5, True, "unresolved"),
    ],
)
def test_verdict_follows_the_pairs_rule(parent, change, lower, expected):
    assert pairs.compare(parent, change, lower, bound=0.25).verdict == expected


def test_summarize_prints_a_verdict_per_metric_and_fails_only_on_worse(capsys):
    assert pairs.summarize("history", runs(TEN, [v - 0.15 for v in TEN]), GATED) is True
    out = capsys.readouterr().out
    assert "10 of 10 pairs ran correctly" in out
    work = next(line for line in out.splitlines() if line.strip().startswith("work_s"))
    rps = next(line for line in out.splitlines() if line.strip().startswith("stream_rps"))
    assert work.split()[-3:] == ["10/10", "yes", "gain"]
    assert rps.split()[-1] == "held"

    assert pairs.summarize("live", runs(TEN, TEN, change_rps=[60.0] * 10), GATED) is False
    rps = next(line for line in capsys.readouterr().out.splitlines() if "stream_rps" in line)
    assert rps.split()[-1] == "WORSE"


def test_summarize_fails_when_a_pair_did_not_run():
    broken = runs(TEN, TEN) + [(None, {"work_s": 1.0, "stream_rps": 100.0})]
    assert pairs.summarize("backfill", broken, GATED) is False
    assert pairs.summarize("backfill", [(None, None)], GATED) is False


RECORDED = [
    {"name": "work_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "stream_rps", "unit": "records/s", "better": "higher", "bound": 0.25},
]
IDENTITY = {"git_commit": "a" * 40, "dirty": False, "src_sha256": "b" * 64}


def test_record_keeps_each_metrics_quartiles_over_the_correct_runs(tmp_path):
    path = tmp_path / "BENCH_aaaaaaa.json"
    live = [{"work_s": w, "stream_rps": 100.0 * w} for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    pairs.record(path, IDENTITY, 1, {"live": [*live, None], "history": [None]}, RECORDED)
    saved = json.loads(path.read_text())
    assert {k: saved[k] for k in IDENTITY} == IDENTITY
    assert saved["results"]["live-s1"] == {
        "workload": "live", "seed": 1, "runs": 5,
        "metrics": {
            "work_s": {"median": 3.0, "q1": 2.0, "q3": 4.0, "unit": "s", "better": "lower"},
            "stream_rps": {
                "median": 300.0, "q1": 200.0, "q3": 400.0, "unit": "records/s", "better": "higher",
            },
        },
    }
    assert saved["results"]["history-s1"] == {"workload": "history", "seed": 1, "runs": 0, "metrics": {}}

    # another seed of the same source joins the file; another source replaces it
    pairs.record(path, IDENTITY, 7, {"live": live[:1]}, RECORDED)
    assert sorted(json.loads(path.read_text())["results"]) == ["history-s1", "live-s1", "live-s7"]
    pairs.record(path, dict(IDENTITY, src_sha256="c" * 64), 7, {"live": live[:1]}, RECORDED)
    assert sorted(json.loads(path.read_text())["results"]) == ["live-s7"]


def test_record_keeps_each_runs_median_probe_time(tmp_path):
    out = tmp_path / "checkout" / ".bench_work" / "out"
    out.mkdir(parents=True)
    (out / "live-s3-trace0.json").write_text(json.dumps({"probes": [[0.1, 0.02], [0.5, 0.04], [0.9, 0.03]]}))
    assert pairs.probe_median(tmp_path / "checkout", "live", 3) == 0.03
    assert pairs.probe_median(tmp_path / "checkout", "live", 4) is None  # no file

    path = tmp_path / "BENCH_aaaaaaa.json"
    live = [{"work_s": 1.0, "stream_rps": 1.0, pairs.SPEED_PROBE: s} for s in (0.03, 0.05)]
    pairs.record(path, IDENTITY, 3, {"live": [live[0], None, live[1]]}, RECORDED)
    entry = json.loads(path.read_text())["results"]["live-s3"]
    assert entry["runs"] == 2 and entry[pairs.SPEED_PROBE] == [0.03, 0.05]
    assert pairs.SPEED_PROBE not in entry["metrics"]


def test_record_keeps_one_traced_runs_layers_per_side_and_workload(tmp_path, monkeypatch):
    calls = []

    def fake_run_bench(checkout, workload, seed, trace=0):
        calls.append((checkout.name, workload, seed, trace))
        if trace:
            return None if workload == "live" else {"featstore.encode_rows": len(checkout.name)}
        return {"work_s": 1.0, "stream_rps": 100.0, "setup_s": 1.0, "peak_rss_mb": 50.0}

    parent, change = tmp_path / "parent", tmp_path / "changed"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": RECORDED}))
    monkeypatch.setattr(pairs, "run_bench", fake_run_bench)
    monkeypatch.setattr(pairs, "checkout_identity", lambda checkout: dict(IDENTITY, git_commit=checkout.name))
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "history", "live",
            "--seed", "3", "--pairs", "2", "--record", str(tmp_path / "out")]
    assert pairs.main(argv) == 0
    traced = [call for call in calls if call[3]]
    assert sorted(traced) == sorted(
        (side, workload, 3, 1) for side in ("parent", "changed") for workload in ("history", "live")
    )
    assert len(calls) == 2 * 2 * 2 + len(traced)
    for name, rows in (("parent", 6), ("changed", 7)):
        results = json.loads((tmp_path / "out" / f"BENCH_{name[:7]}.json").read_text())["results"]
        assert results["history-s3"]["layers"] == {"featstore.encode_rows": rows}
        assert results["history-s3"]["runs"] == 2
        assert "layers" not in results["live-s3"]  # its traced run failed


def test_checkout_identity_names_the_commit_and_the_source(tmp_path):
    src = tmp_path / "src" / "amlstream"
    src.mkdir(parents=True)
    (src / "a.py").write_text("A = 1\n")
    (src / "b.py").write_text("B = 2\n")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "c"]):
        subprocess.run([*git, *args], check=True)
    commit = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    digest = hashlib.sha256(b"a.pyA = 1\nb.pyB = 2\n").hexdigest()
    identity = pairs.checkout_identity(tmp_path)
    assert identity == {"git_commit": commit, "dirty": False, "src_sha256": digest}
    assert pairs.record_name(identity) == f"BENCH_{commit[:7]}.json"
    (src / "b.py").write_text("B = 3\n")
    identity = pairs.checkout_identity(tmp_path)
    assert identity["dirty"] and identity["src_sha256"] != digest
    assert pairs.record_name(identity) == f"BENCH_{commit[:7]}-dirty.json"
