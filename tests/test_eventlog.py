"""Event log contract tests: ordering, offsets, durability, recovery."""

import hashlib
import json
import math
import os
import random
import shutil
import struct
import tracemalloc
import zlib
from collections import Counter, defaultdict

import pytest

from amlstream.errors import (
    AlreadyExistsError,
    ConfigError,
    CorruptLogError,
    DataError,
    NotFoundError,
    OffsetRangeError,
)
from amlstream import cli, eventlog, storage
from amlstream.eventlog import INDEX_NAME, SEGMENT_NAME, EventLog, fnv1a_64


@pytest.fixture
def log(tmp_path):
    lg = EventLog(tmp_path / "log")
    yield lg
    lg.close()


def test_fnv1a_reference_vectors():
    # published FNV-1a 64-bit test vectors
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_create_topic_and_duplicate(log):
    topic = log.create_topic("txns", 4)
    assert topic.partition_count == 4
    with pytest.raises(AlreadyExistsError):
        log.create_topic("txns", 2)
    with pytest.raises(ConfigError):
        log.create_topic("bad", 0)
    with pytest.raises(NotFoundError):
        log.poll("g", "missing", 10)


def test_publish_routes_by_key_hash(log):
    log.create_topic("t", 4)
    for key in (b"alpha", b"beta", b"gamma"):
        partition, _ = log.publish("t", key, b"x")
        assert partition == fnv1a_64(key) % 4


def test_offsets_dense_and_fifo_per_key(log):
    log.create_topic("t", 4)
    rng = random.Random(7)
    keys = [f"k{rng.randrange(40)}".encode() for _ in range(2_000)]
    placed = defaultdict(list)
    for i, key in enumerate(keys):
        partition, offset = log.publish("t", key, str(i).encode())
        placed[partition].append(offset)
    # offsets per partition are exactly 0..len-1 in publish order
    for p, offsets in placed.items():
        assert offsets == list(range(log.partition_length("t", p)))
    # same-key records come back in publish order
    records = log.poll("g", "t", 10_000)
    by_key = defaultdict(list)
    for r in records:
        by_key[r.key].append(int(r.payload))
    for key, seq in by_key.items():
        assert seq == sorted(seq), key


def test_partition_balance_binomial(log):
    log.create_topic("t", 4)
    n = 10_000
    rng = random.Random(123)
    counts = [0, 0, 0, 0]
    for _ in range(n):
        key = str(rng.getrandbits(64)).encode()
        p, _ = log.publish("t", key, b"")
        counts[p] += 1
    bound = 5 * math.sqrt(n * 0.25 * 0.75)
    for c in counts:
        assert abs(c - n / 4) <= bound, counts


def test_poll_does_not_advance(log):
    log.create_topic("t", 2)
    for i in range(100):
        log.publish("t", f"k{i}".encode(), str(i).encode())
    first = log.poll("g", "t", 30)
    second = log.poll("g", "t", 30)
    third = log.poll("g", "t", 30)
    assert len(first) == 30
    assert first == second == third


def test_commit_advances_and_bounds(log):
    log.create_topic("t", 1)
    for i in range(5):
        log.publish("t", b"k", str(i).encode())
    log.commit("g", "t", 0, 0)
    assert log.position("g", "t", 0).committed_offset == 1
    assert log.poll("g", "t", 10)[0].offset == 1
    log.commit("g", "t", 0, 4)
    assert log.poll("g", "t", 10) == []
    with pytest.raises(OffsetRangeError):
        log.commit("g", "t", 0, 5)
    with pytest.raises(OffsetRangeError):
        log.commit("g", "t", 0, -1)


def test_watermark_commit_is_all_or_nothing(tmp_path, log):
    log.create_topic("t", 4)
    for i in range(40):
        log.publish("t", f"k{i}".encode(), str(i).encode())
    lengths = [log.partition_length("t", p) for p in range(4)]
    log.commit_watermark("g", "t", {0: 0, 1: 0, 2: 0, 3: 0})
    positions = tmp_path / "log" / "t" / eventlog.POSITIONS_NAME
    before = positions.read_bytes()
    watermark = {0: lengths[0] - 1, 1: lengths[1] - 1, 2: lengths[2], 3: lengths[3] - 1}
    with pytest.raises(OffsetRangeError):
        log.commit_watermark("g", "t", watermark)
    assert [log.position("g", "t", p).committed_offset for p in range(4)] == [1, 1, 1, 1]
    assert positions.read_bytes() == before
    del watermark[2]
    log.commit_watermark("g", "t", watermark)
    assert [log.position("g", "t", p).committed_offset for p in range(4)] == [
        lengths[0], lengths[1], 1, lengths[3]
    ]


def test_groups_are_independent(log):
    log.create_topic("t", 1)
    for i in range(10):
        log.publish("t", b"k", str(i).encode())
    log.commit("a", "t", 0, 9)
    assert log.poll("a", "t", 10) == []
    assert len(log.poll("b", "t", 10)) == 10


def test_restart_preserves_records_and_positions(tmp_path):
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 3)
    sent = []
    for i in range(500):
        key = f"k{i % 17}".encode()
        payload = f"payload-{i}".encode()
        partition, offset = log.publish("t", key, payload)
        sent.append((partition, offset, key, payload))
    log.commit("g", "t", 0, 0)
    log.close()

    reloaded = EventLog(root)
    try:
        records = reloaded.poll("fresh", "t", 1_000)
        got = {(r.partition, r.offset): (r.key, r.payload) for r in records}
        assert len(records) == 500
        for partition, offset, key, payload in sent:
            assert got[(partition, offset)] == (key, payload)
        # committed position survives too
        assert reloaded.position("g", "t", 0).committed_offset == 1
    finally:
        reloaded.close()


def test_crash_without_close_loses_nothing(tmp_path):
    # acknowledged publishes must survive even when close() never runs
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 2)
    for i in range(300):
        log.publish("t", f"k{i}".encode(), str(i).encode())
    del log  # simulated crash: no close, no fsync

    reloaded = EventLog(root)
    try:
        assert len(reloaded.poll("g", "t", 1_000)) == 300
    finally:
        reloaded.close()


def test_at_least_once_after_crash_before_commit(tmp_path):
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 1)
    for i in range(20):
        log.publish("t", b"k", str(i).encode())
    consumed = log.poll("g", "t", 10)
    assert len(consumed) == 10  # consumed but never committed
    del log

    reloaded = EventLog(root)
    try:
        replay = reloaded.poll("g", "t", 50)
        assert [r.payload for r in replay[:10]] == [r.payload for r in consumed]
        assert len(replay) == 20
    finally:
        reloaded.close()


def test_torn_tail_is_truncated(tmp_path):
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 1)
    for i in range(10):
        log.publish("t", b"k", str(i).encode())
    log.close()

    seg = next((root / "t" / "p000").glob("segment-*.log"))
    with open(seg, "ab") as fh:
        fh.write(b"\x40\x00\x00\x00\x99")  # header fragment, no body

    reloaded = EventLog(root)
    try:
        assert len(reloaded.poll("g", "t", 100)) == 10
        # the torn bytes are gone; appending again keeps the log clean
        reloaded.publish("t", b"k", b"after")
        assert reloaded.partition_length("t", 0) == 11
    finally:
        reloaded.close()

    # a second reload parses the repaired segment end to end
    again = EventLog(root)
    try:
        assert [r.payload for r in again.poll("g", "t", 100)][-1] == b"after"
        # a crash cuts one call's multi-frame write inside its 30th frame
        whole = seg.stat().st_size
        again.publish_many("t", [b"k"] * 50, [f"batch-{i}".encode() for i in range(50)])
    finally:
        del again  # simulated crash: no close
    frame_size = [len(_frame(b"k", f"batch-{i}".encode())) for i in range(50)]
    kept = whole + sum(frame_size[:29])
    with open(seg, "r+b") as fh:
        fh.truncate(kept + 7)
    cut = EventLog(root)
    try:
        assert cut.partition_length("t", 0) == 11 + 29
        assert [r.payload for r in cut.poll("g", "t", 100)][-2:] == [b"batch-27", b"batch-28"]
    finally:
        cut.close()
    assert seg.stat().st_size == kept


def test_checksum_corruption_detected(tmp_path):
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 1)
    log.publish("t", b"key", b"payload-bytes")
    log.close()

    seg = next((root / "t" / "p000").glob("segment-*.log"))
    raw = bytearray(seg.read_bytes())
    raw[-1] ^= 0xFF  # flip a payload bit
    seg.write_bytes(raw)

    with pytest.raises(CorruptLogError):
        EventLog(root)


def test_file_cut_after_open_is_reported_at_poll(tmp_path):
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 1)
    for i in range(10):
        log.publish("t", b"k", str(i).encode())
    seg = root / "t" / "p000" / "segment-00000000.log"
    seg.write_bytes(seg.read_bytes()[:-1])
    try:
        with pytest.raises(CorruptLogError, match="segment-00000000.log"):
            log.poll("g", "t", 100)
        with pytest.raises(CorruptLogError, match="segment-00000000.log"):
            log.poll_columns("g", "t", 100)
    finally:
        log.close()


def test_leftover_segment_is_refused(tmp_path):
    # older versions rolled to a second segment after 65,536 records;
    # reading only the first would silently drop the rest
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 1)
    for i in range(5):
        log.publish("t", b"k", str(i).encode())
    log.close()
    first = root / "t" / "p000" / "segment-00000000.log"
    (first.parent / "segment-00000001.log").write_bytes(first.read_bytes())

    with pytest.raises(CorruptLogError, match="segment-00000001.log"):
        EventLog(root)


def test_opening_holds_no_payloads(tmp_path):
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 4)
    for i in range(20_000):
        payload = json.dumps({"id": i, "amount": i * 1.5, "note": "x" * 150}).encode()
        log.publish("t", f"k{i % 15}".encode(), payload)
    log.close()

    tracemalloc.start()
    try:
        reopened = EventLog(root)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    try:
        assert reopened.poll("g", "t", 1)[0].payload.startswith(b'{"id": ')
        assert sum(reopened.partition_length("t", p) for p in range(4)) == 20_000
    finally:
        reopened.close()
    assert retained < 1_000_000, retained


def test_ticks_advance_on_publish_and_idle(log):
    log.create_topic("t", 1)
    t0 = log.ticks()
    log.publish("t", b"k", b"a")
    log.publish("t", b"k", b"b")
    assert log.ticks() == t0 + 2
    log.advance_ticks(10)
    assert log.ticks() == t0 + 12
    records = log.poll("g", "t", 10)
    assert records[0].ingest_tick < records[1].ingest_tick <= log.ticks()


def test_positions_file_is_valid_json(tmp_path):
    log = EventLog(tmp_path / "log")
    log.create_topic("t", 2)
    log.publish("t", b"a", b"1")
    log.publish("t", b"b", b"2")
    partition, offset = log.publish("t", b"b", b"3")
    log.commit("g", "t", partition, offset)
    log.commit("h", "t", partition, offset - 1)
    log.commit("g", "t", partition, offset - 1)
    raw = (tmp_path / "log" / "t" / eventlog.POSITIONS_NAME).read_text()
    assert raw.endswith("\n")
    lines = [json.loads(line) for line in raw.splitlines()]
    assert lines == [
        {"group": "g", "next": {str(partition): offset + 1}},
        {"group": "h", "next": {str(partition): offset}},
        {"group": "g", "next": {str(partition): offset}},
    ]
    log.close()


def positions_after_reload(root, topic="t", partitions=3, groups=("a", "b", "c")):
    reloaded = EventLog(root)
    try:
        return {
            group: [reloaded.position(group, topic, p).committed_offset for p in range(partitions)]
            for group in groups
        }
    finally:
        reloaded.close()


def published_log(root, partitions=3, records=60):
    log = EventLog(root)
    log.create_topic("t", partitions)
    for i in range(records):
        log.publish("t", f"k{i}".encode(), str(i).encode())
    return log


def test_positions_fold_last_line_per_group_over_sessions(tmp_path):
    root = tmp_path / "log"
    log = published_log(root)
    lengths = [log.partition_length("t", p) for p in range(3)]
    log.commit_watermark("a", "t", {0: 3, 1: 4})
    log.commit_watermark("b", "t", {2: 1})
    log.commit_watermark("a", "t", {0: 5})
    # no close: the next session folds the lines as they stand
    second = EventLog(root)
    assert [second.position("a", "t", p).committed_offset for p in range(3)] == [6, 5, 0]
    second.commit_watermark("b", "t", {0: lengths[0] - 1})
    second.commit_watermark("c", "t", {1: 0})
    second.commit_watermark("a", "t", {2: 7})
    path = root / "t" / eventlog.POSITIONS_NAME
    assert len(path.read_text().splitlines()) == 6
    assert positions_after_reload(root) == {
        "a": [6, 5, 8], "b": [lengths[0], 0, 2], "c": [0, 1, 0],
    }


def test_torn_commit_line_is_cut_and_the_commit_before_it_holds(tmp_path):
    root = tmp_path / "log"
    log = published_log(root)
    log.commit_watermark("a", "t", {0: 3, 1: 4})
    log.commit_watermark("a", "t", {0: 9, 2: 2})
    path = root / "t" / eventlog.POSITIONS_NAME
    whole = path.read_bytes()
    last = whole.rindex(b"\n", 0, len(whole) - 1) + 1
    for cut in (last + 1, len(whole) - 1):  # a torn line, and one missing only its newline
        path.write_bytes(whole[:cut])
        assert positions_after_reload(root) == {"a": [4, 5, 0], "b": [0, 0, 0], "c": [0, 0, 0]}
        assert path.read_bytes() == whole[:cut]  # the fold writes nothing
        # the next commit cuts the tail and starts on a clean line
        log = EventLog(root)
        log.commit_watermark("b", "t", {1: 0})
        assert path.read_bytes().startswith(whole[:last] + b'{"group": "b"')
        assert positions_after_reload(root)["b"] == [0, 1, 0]
        path.write_bytes(whole)


def test_positions_are_rewritten_at_the_bound_and_on_close(tmp_path, monkeypatch):
    monkeypatch.setattr(eventlog, "POSITIONS_STALE_LINES", 4)
    root = tmp_path / "log"
    log = published_log(root)
    path = root / "t" / eventlog.POSITIONS_NAME
    counts = []
    for offset in range(9):
        log.commit_watermark("a" if offset % 3 else "b", "t", {offset % 3: offset})
        counts.append(len(path.read_text().splitlines()))
    # the first commit writes the file; a commit that finds 4 superseded
    # lines rewrites it to one line per group
    assert counts == [1, 2, 3, 4, 5, 6, 2, 3, 4]
    expected = {
        group: [log.position(group, "t", p).committed_offset for p in range(3)] for group in "ab"
    }
    log.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["group"] for line in lines] == ["a", "b"]
    assert positions_after_reload(root, groups="ab") == expected
    # closing a file that holds one line per group does not rewrite it
    before = path.stat().st_ino
    EventLog(root).close()
    assert path.stat().st_ino == before


# an older version's positions.json: group -> partition -> next offset
LEGACY_POSITIONS = b'{"a": {"0": 3, "2": 1}, "b": {"1": 2}}'


def test_legacy_positions_json_is_read_once_and_replaced(tmp_path):
    root = tmp_path / "log"
    published_log(root).close()
    legacy = root / "t" / eventlog.LEGACY_POSITIONS_NAME
    legacy.write_bytes(LEGACY_POSITIONS)
    assert positions_after_reload(root) == {"a": [3, 0, 1], "b": [0, 2, 0], "c": [0, 0, 0]}
    assert not legacy.exists()
    assert (root / "t" / eventlog.POSITIONS_NAME).read_bytes() == (
        b'{"group": "a", "next": {"0": 3, "2": 1}}\n{"group": "b", "next": {"1": 2}}\n'
    )
    # once positions.jsonl exists, a positions.json beside it is not read
    legacy.write_bytes(b'{"a": {"0": 9}}')
    assert positions_after_reload(root)["a"] == [3, 0, 1]
    assert not legacy.exists()


@pytest.mark.parametrize("content", [b"", b'{"a": {"0": 999}}', b'{"a": {"7": 0}}', b'{"a": {"0": "3"}}'])
def test_unreadable_legacy_positions_json_is_refused_and_kept(tmp_path, content):
    root = tmp_path / "log"
    published_log(root).close()
    legacy = root / "t" / eventlog.LEGACY_POSITIONS_NAME
    legacy.write_bytes(content)
    with pytest.raises(DataError, match="positions.json: unreadable"):
        EventLog(root)
    assert legacy.read_bytes() == content
    assert not (root / "t" / eventlog.POSITIONS_NAME).exists()


@pytest.mark.parametrize("content", [b"", b"\n", b'{"group": "a", "next": {"0": 1}}'])
def test_positions_file_without_a_whole_line_is_refused(tmp_path, content):
    root = tmp_path / "log"
    published_log(root).close()
    (root / "t" / eventlog.POSITIONS_NAME).write_bytes(content)
    with pytest.raises(DataError, match="positions.jsonl: holds no commit"):
        EventLog(root)


def test_oversized_key_is_refused_before_a_tick(log):
    log.create_topic("t", 3)
    log.publish("t", b"k", b"x")
    before = (log.ticks(), [log.partition_length("t", p) for p in range(3)])
    with pytest.raises(ConfigError, match="65535"):
        log.publish("t", b"k" * 0x10000, b"x")
    assert (log.ticks(), [log.partition_length("t", p) for p in range(3)]) == before
    # a bad key anywhere in one call publishes none of its records
    segments = sorted(log.root.glob("t/*/" + SEGMENT_NAME))
    written = [seg.read_bytes() for seg in segments]
    for bad, match in ((b"k" * 0x10000, "65535"), ("k", "bytes"), (bytearray(b"k"), "bytes")):
        keys = [f"a{i}".encode() for i in range(300)]
        keys[257] = bad
        with pytest.raises(ConfigError, match=match):
            log.publish_many("t", keys, [b"x"] * len(keys))
        assert (log.ticks(), [log.partition_length("t", p) for p in range(3)]) == before
        assert [seg.read_bytes() for seg in segments] == written


@pytest.mark.parametrize("bad", ["text", None, bytearray(b"x"), "missing"])
def test_a_call_publishes_the_records_before_a_payload_that_is_not_bytes(tmp_path, bad):
    rng = random.Random(12)
    keys = [f"k{rng.randrange(5)}".encode() for _ in range(1_000)]
    payloads = [f"{i}:".encode() * (1 + i % 5) for i in range(len(keys))]
    stop = 900  # past FSYNC_INTERVAL records of every partition
    if bad == "missing":
        payloads, match = payloads[:stop], "fewer payloads"
    else:
        payloads[stop], match = bad, "must be bytes"

    def state(root, publish):
        log = EventLog(root)
        log.create_topic("t", 3)
        publish(log)
        rows = [(r.partition, r.offset, r.key, r.payload, r.ingest_tick)
                for r in log.poll("g", "t", 10_000)]
        ticks = log.ticks()
        log.close()
        return rows, ticks, [seg.read_bytes() for seg in sorted(root.glob("t/*/" + SEGMENT_NAME))]

    def batched(log):
        with pytest.raises(ConfigError, match=match):
            log.publish_many("t", keys, iter(payloads))

    single = state(tmp_path / "single", lambda log: [
        log.publish("t", k, p) for k, p in zip(keys[:stop], payloads[:stop])
    ])
    assert state(tmp_path / "batched", batched) == single
    assert len(single[0]) == single[1] == stop
    assert max(Counter(partition for partition, *_ in single[0]).values()) > eventlog.FSYNC_INTERVAL


def _frame(key, payload):
    return struct.pack("<IIH", len(payload), zlib.crc32(key + payload), len(key)) + key + payload


def test_one_publish_call_matches_single_publishes(tmp_path, monkeypatch):
    rng = random.Random(11)
    keys = [f"k{rng.randrange(5)}".encode() for _ in range(1_500)]
    payloads = [f"{i}:".encode() * (1 + i % 7) for i in range(len(keys))]
    fsynced, writes = [], []  # file size at each fsync; bytes per segment write
    real_fsync, real_open = os.fsync, open

    def recording_fsync(fd):
        real_fsync(fd)
        fsynced.append(os.fstat(fd).st_size)

    class CountingSegment:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            writes.append(len(data))
            return self.fh.write(data)

        def __getattr__(self, name):
            return getattr(self.fh, name)

    def counting_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return CountingSegment(fh) if mode == "a+b" else fh

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(eventlog, "open", counting_open, raising=False)

    def run(root, publish):
        fsynced.clear()
        writes.clear()
        log = EventLog(root)
        log.create_topic("t", 3)
        published = publish(log)
        rows = [(r.partition, r.offset, r.key, r.payload, r.ingest_tick)
                for r in log.poll("g", "t", 10_000)]
        counts = [log.partition_length("t", p) for p in range(3)]
        synced = list(fsynced)
        log.close()
        files = {path.relative_to(root): path.read_bytes()
                 for path in sorted(root.rglob("*")) if path.is_file()}
        return published, (rows, log.ticks(), synced, files), counts, list(writes)

    placed, single, counts, single_writes = run(
        tmp_path / "single", lambda log: [log.publish("t", k, p) for k, p in zip(keys, payloads)]
    )
    ranges, batched, _, batched_writes = run(
        tmp_path / "batched", lambda log: log.publish_many("t", keys, iter(payloads))
    )
    assert max(counts) > eventlog.FSYNC_INTERVAL
    assert batched == single
    assert ranges == {p: (0, n) for p, n in enumerate(counts)}
    where = {payload: (p, offset) for p, offset, _, payload, _ in single[0]}
    assert placed == [where[payload] for payload in payloads]
    assert len(single_writes) == len(keys)
    # one write per FSYNC_INTERVAL frames of a partition, and one for its rest
    assert len(batched_writes) == sum(-(-n // eventlog.FSYNC_INTERVAL) for n in counts)
    assert sum(batched_writes) == sum(single_writes)


# ---------------------------------------------------------------------------
# the frame index: opening reads the same records whatever state it is in
# ---------------------------------------------------------------------------

@pytest.fixture
def parsed_frames(monkeypatch):
    """Counts the frame headers opening parses."""
    counted = []

    class CountingHeader(struct.Struct):
        def unpack_from(self, *args):
            counted.append(1)
            return super().unpack_from(*args)

    monkeypatch.setattr(eventlog, "_HEADER", CountingHeader(eventlog._HEADER.format))
    return counted


def assert_every_record_indexed(log_dir, parsed_frames):
    """Each partition that holds records ends with an index covering all of
    them, so opening the log parses no frame."""
    parsed_frames.clear()
    log = EventLog(log_dir)
    assert parsed_frames == []
    indexed = 0
    for p, part in enumerate(sorted((log_dir / "transactions").glob("p[0-9]*"))):
        length = log.partition_length("transactions", p)
        if length:
            count, covered = struct.unpack_from("<QQ", (part / INDEX_NAME).read_bytes())
            assert (count, covered) == (length, (part / SEGMENT_NAME).stat().st_size)
            indexed += 1
    log.close()
    assert indexed >= 2  # no partition holds INDEX_INTERVAL records


@pytest.mark.parametrize("stream", [["stream"], ["stream", "--feed", "{feed}"]])
def test_ingest_and_stream_leave_every_record_indexed(tmp_path, parsed_frames, stream):
    data, feed = tmp_path / "data", tmp_path / "feed.jsonl"
    argv = ["--data-dir", str(data), "--seed", "3"]
    assert cli.main([*argv, "generate", "--count", "3000"]) == 0
    assert cli.main([*argv, "generate", "--count", "500", "--out", str(feed)]) == 0
    assert cli.main([*argv, "ingest"]) == 0
    assert_every_record_indexed(data / "log", parsed_frames)
    assert cli.main([*argv, *[arg.format(feed=feed) for arg in stream]]) == 0
    assert_every_record_indexed(data / "log", parsed_frames)


def test_demo_leaves_every_record_indexed(tmp_path, parsed_frames):
    data = tmp_path / "data"
    argv = ["--data-dir", str(data), "--report-dir", str(tmp_path / "reports"), "--seed", "3"]
    assert cli.main([*argv, "demo", "--no-shift"]) == 0
    assert_every_record_indexed(data / "log", parsed_frames)


def rewrite_index(path, edit):
    """Rewrite an index file with ``edit`` applied to its header fields
    and frame ends, its ends CRC recomputed so only the edit is wrong."""
    raw = path.read_bytes()
    header = struct.Struct("<QQII")
    count, length, prefix_crc, _ = header.unpack_from(raw)
    ends = list(struct.unpack_from(f"<{count}Q", raw, header.size))
    count, length, prefix_crc, ends = edit(count, length, prefix_crc, ends)
    body = struct.pack(f"<{len(ends)}Q", *ends)
    path.write_bytes(header.pack(count, length, prefix_crc, zlib.crc32(body)) + body)


def claim_one_more_byte(count, length, prefix_crc, ends):
    return count, length + 1, prefix_crc, ends[:-1] + [ends[-1] + 1]


def flip_first_end(path, stale):
    raw = bytearray(path.read_bytes())
    raw[struct.calcsize("<QQII")] ^= 0x01
    path.write_bytes(raw)


# state name -> how to put one partition's index (and its stale copy) in it
INDEX_STATES = {
    "valid": lambda path, stale: None,
    "deleted": lambda path, stale: path.unlink(),
    "bad_ends_crc": flip_first_end,
    "cut_in_header": lambda path, stale: path.write_bytes(path.read_bytes()[:10]),
    "cut_in_ends": lambda path, stale: path.write_bytes(path.read_bytes()[:-3]),
    "length_past_segment_end": lambda path, stale: rewrite_index(path, claim_one_more_byte),
    "stale_then_appends": lambda path, stale: path.write_bytes(stale),
}


@pytest.fixture(scope="module")
def indexed_log(tmp_path_factory):
    """Three partitions written in two sessions, each closed; every
    partition's index as the first session left it is kept too."""
    root = tmp_path_factory.mktemp("indexed") / "log"
    sent = {}
    for session, count in enumerate((400, 200)):
        log = EventLog(root)
        if session == 0:
            log.create_topic("t", 3)
        for i in range(count):
            key = f"k{i % 23}".encode()
            payload = f"{session}:{i}".encode() * (1 + i % 5)
            partition, offset = log.publish("t", key, payload)
            sent[(partition, offset)] = (key, payload)
        log.commit_watermark("g", "t", {p: log.partition_length("t", p) // 2 for p in range(3)})
        log.close()
        if session == 0:
            stale = [(root / "t" / f"p{p:03d}" / INDEX_NAME).read_bytes() for p in range(3)]
    lengths = [sum(1 for p, _ in sent if p == q) for q in range(3)]
    expected_records = []
    tick = 0
    # a reload assigns ticks in partition scan order
    for p in range(3):
        for offset in range(lengths[p]):
            tick += 1
            expected_records.append((p, offset, *sent[(p, offset)], tick))
    expected = (tick, expected_records, [n // 2 + 1 for n in lengths])
    return root, stale, expected


def read_back(root):
    log = EventLog(root)
    try:
        records = log.poll("reader", "t", 10_000)
        batch = log.poll_columns("reader", "t", 10_000)
        assert batch.payloads == [r.payload for r in records]
        assert list(batch.ticks) == [r.ingest_tick for r in records]
        assert [batch.locate(i) for i in range(len(records))] == [
            (r.partition, r.offset) for r in records
        ]
        return (
            log.ticks(),
            [(r.partition, r.offset, r.key, r.payload, r.ingest_tick) for r in records],
            [log.position("g", "t", p).committed_offset for p in range(3)],
        )
    finally:
        log.close()


@pytest.mark.parametrize("state", sorted(INDEX_STATES))
def test_every_index_state_reads_the_same_records(indexed_log, tmp_path, parsed_frames, state):
    built, stale, expected = indexed_log
    root = tmp_path / "log"
    shutil.copytree(built, root)
    for p in range(3):
        INDEX_STATES[state](root / "t" / f"p{p:03d}" / INDEX_NAME, stale[p])
    assert read_back(root) == expected
    # closing left an index over every record: the next open parses no frame
    parsed_frames.clear()
    assert read_back(root) == expected
    assert parsed_frames == []


def test_valid_index_leaves_only_the_tail_to_parse(tmp_path, parsed_frames):
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 1)
    for i in range(1_000):
        log.publish("t", b"k", str(i).encode())
    log.close()
    log = EventLog(root)
    for i in range(37):
        log.publish("t", b"k", b"tail")
    del log  # simulated crash: the index still covers the first 1,000

    parsed_frames.clear()
    reopened = EventLog(root)
    try:
        assert len(parsed_frames) == 37
        assert reopened.partition_length("t", 0) == 1_037
        assert [r.payload for r in reopened.poll("g", "t", 2_000)][998:1_001] == [
            b"998", b"999", b"tail"
        ]
    finally:
        reopened.close()


def test_an_index_extended_over_its_rewrites_is_adopted(tmp_path, parsed_frames):
    """Each rewrite extends the prefix CRC over only the frames past the
    last one, and the next session extends the one it adopted; the CRC
    the next open reads over 1 MiB chunks must still match it."""
    root = tmp_path / "log"
    index = root / "t" / "p000" / INDEX_NAME
    payloads = [bytes([65 + i % 26]) * 200 for i in range(eventlog.INDEX_INTERVAL)]
    keys = [b"k"] * len(payloads)
    log = EventLog(root)
    log.create_topic("t", 1)
    for rewrite in range(1, 4):
        log.publish_many("t", keys, payloads)
        log.flush()
        assert struct.unpack_from("<Q", index.read_bytes()) == (rewrite * len(payloads),)
    log.close()
    log = EventLog(root)  # adopts the index, then extends it on close
    assert parsed_frames == []
    log.publish_many("t", keys[:100], payloads[:100])
    log.close()
    assert (root / "t" / "p000" / SEGMENT_NAME).stat().st_size > 2 << 20  # three read chunks

    parsed_frames.clear()
    reopened = EventLog(root)
    try:
        assert parsed_frames == []
        assert reopened.partition_length("t", 0) == 3 * len(payloads) + 100
        last = reopened.poll_columns("g", "t", 4 * len(payloads)).payloads[-101:]
        assert last == payloads[-1:] + payloads[:100]
    finally:
        reopened.close()


def test_flipped_byte_under_the_index_is_reported_at_open(tmp_path):
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 1)
    for i in range(1_000):
        log.publish("t", f"k{i}".encode(), f"payload-{i}".encode())
    frame_start = sum(len(r.key) + len(r.payload) + 10 for r in log.poll("g", "t", 500))
    log.close()
    partition = root / "t" / "p000"
    assert (partition / INDEX_NAME).exists()

    seg = partition / SEGMENT_NAME
    raw = bytearray(seg.read_bytes())
    raw[frame_start + 12] ^= 0x01  # a key byte of record 500
    seg.write_bytes(raw)
    with pytest.raises(
        CorruptLogError, match=f"{SEGMENT_NAME}: checksum mismatch at byte {frame_start}$"
    ):
        EventLog(root)


def test_flipped_length_bit_under_the_index_is_reported_at_open(tmp_path):
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 1)
    for i in range(1_000):
        log.publish("t", f"k{i}".encode(), f"payload-{i}".encode())
    frame_start = sum(len(r.key) + len(r.payload) + 10 for r in log.poll("g", "t", 500))
    log.close()
    seg = root / "t" / "p000" / SEGMENT_NAME
    raw = bytearray(seg.read_bytes())
    raw[frame_start + 3] ^= 0x01  # record 500's payload length grows by 2**24
    seg.write_bytes(raw)
    with pytest.raises(CorruptLogError, match=f"{SEGMENT_NAME}: frame at byte {frame_start} "):
        EventLog(root)
    assert seg.read_bytes() == raw  # nothing was cut


def test_torn_tail_past_the_index_is_still_cut(tmp_path):
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 1)
    for i in range(1_000):
        log.publish("t", b"k", str(i).encode())
    log.close()
    seg = root / "t" / "p000" / SEGMENT_NAME
    whole = seg.read_bytes()
    seg.write_bytes(whole + b"\x40\x00\x00\x00\x99")  # header fragment, no body
    reopened = EventLog(root)
    try:
        assert reopened.partition_length("t", 0) == 1_000
    finally:
        reopened.close()
    assert seg.read_bytes() == whole


def test_a_segment_cut_under_the_writer_gets_no_index(tmp_path):
    root = tmp_path / "log"
    seg, index = root / "t" / "p000" / SEGMENT_NAME, root / "t" / "p000" / INDEX_NAME
    log = EventLog(root)
    log.create_topic("t", 1)
    log.publish_many("t", [b"k"] * 50, [b"%d" % i for i in range(50)])
    log.flush()
    log.close()
    first = index.read_bytes()  # the index of the 50 records
    log = EventLog(root)
    log.publish_many("t", [b"k"] * 50, [b"%d" % i for i in range(50, 100)])
    log.flush()
    os.truncate(seg, seg.stat().st_size - 3)  # cut under the writer
    log.close()
    assert index.read_bytes() == first  # no index covers the cut frames
    reopened = EventLog(root)  # the tail past the index is scanned and cut
    try:
        assert reopened.partition_length("t", 0) == 99
    finally:
        reopened.close()


# sha256 of each partition's index after ``generate --count 2000`` and
# ``ingest`` at seed 7, the flow whose segments test_cli pins
INGESTED_INDEX_SHA256 = {
    "p000": "a39dc403fd57acfd138ce92f8429be14f3bc86b98f4c67041356c215d415d919",
    "p001": "1922acd844df4bcbb59de121ab5c7d6b6293a704425a32827642fd0a13127f62",
    "p002": "4281bd7127a75956798ef86a195a13b93c22eeff6f57ba9ed2c087f4a17a1047",
    "p003": "38c8ef4d8de2eadb5140845f1df16ad5d6f7bc6acfec4390a9888ef2898f8965",
}


def test_ingest_indexes_every_segment_without_reading_it_back(tmp_path, monkeypatch):
    data = tmp_path / "data"
    argv = ["--data-dir", str(data), "--seed", "7"]
    assert cli.main([*argv, "generate", "--count", "2000"]) == 0

    def read_to(self, fd, stop):
        raise AssertionError("a segment byte was read back")

    monkeypatch.setattr(storage.Prefix, "read_to", read_to)
    assert cli.main([*argv, "ingest"]) == 0
    indexes = {}
    for part in (data / "log" / "transactions").glob("p*"):
        raw = (part / INDEX_NAME).read_bytes()
        _, length, prefix_crc, _ = struct.unpack_from("<QQII", raw)
        segment = (part / SEGMENT_NAME).read_bytes()
        assert (length, prefix_crc) == (len(segment), zlib.crc32(segment))
        indexes[part.name] = hashlib.sha256(raw).hexdigest()
    assert indexes == INGESTED_INDEX_SHA256


def test_flush_writes_the_index_once_interval_records_lie_past_it(tmp_path, monkeypatch):
    monkeypatch.setattr(eventlog, "INDEX_INTERVAL", 10)
    root = tmp_path / "log"
    log = EventLog(root)
    log.create_topic("t", 1)
    index = root / "t" / "p000" / INDEX_NAME
    try:
        for i in range(9):
            log.publish("t", b"k", b"x")
        log.flush()
        assert not index.exists()
        log.publish("t", b"k", b"x")
        log.flush()
        count, length = struct.unpack_from("<QQ", index.read_bytes())
        assert (count, length) == (10, (root / "t" / "p000" / SEGMENT_NAME).stat().st_size)
    finally:
        log.close()
