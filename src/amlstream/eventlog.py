"""Embedded partitioned append-only event log with publish/subscribe.

Serves as the pipeline's ingest buffer: producers append keyed records,
consumer groups poll from committed offsets, and nothing is ever
deleted. One directory per topic, one subdirectory per partition,
records framed into segment files:

    [u32 LE payload length][u32 LE CRC32][u16 LE key length][key][payload]

CRC32 covers key bytes followed by payload bytes. Offsets are implied
by record order across a partition's segments (segments roll every
SEGMENT_RECORDS records). Consumer positions live in a sidecar
``positions.json`` per topic, replaced atomically on commit.

Durability policy: every publish is written to the OS before the call
returns; fsync is batched every FSYNC_INTERVAL records, and flush()
forces an fsync. The CLI's ingest and demo call flush() after each batch
they publish; ``stream --feed`` and the stream's micro-batches do not,
so a commit can record offsets whose records still await their fsync,
and positions.json is replaced atomically but not fsynced. A simulated
in-process crash therefore never loses an acknowledged publish; a crash
of the machine can lose the unsynced tail. Recovery also tolerates a
torn final record by truncating to the last whole frame. A checksum
mismatch on a fully framed record is real corruption and raises
CorruptLogError; a partition count that is not an int of at least 1, or
a committed offset that is not an int within the partition's records,
raises DataError naming the file.

Partitioning uses FNV-1a (64-bit) on the key, reduced modulo the
partition count. FNV-1a is fixed here precisely so replays hash
identically on any platform or process.

Simulated time: the log owns a monotonic tick counter. Each publish
advances it by one and stamps the record's ingest_tick; idle time can
be injected with advance_ticks(). On reload the counter restarts at the
total record count and ingest ticks are reassigned in partition scan
order, so tick arithmetic stays valid within any one process session.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    AlreadyExistsError,
    ConfigError,
    CorruptLogError,
    DataError,
    NotFoundError,
    OffsetRangeError,
    reading,
)

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64_MASK = 0xFFFFFFFFFFFFFFFF

SEGMENT_RECORDS = 65_536
FSYNC_INTERVAL = 256
_HEADER = struct.Struct("<IIH")  # payload length, crc32, key length


def fnv1a_64(data: bytes) -> int:
    """FNV-1a, 64-bit. Stable across platforms and processes."""
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & _U64_MASK
    return h


@dataclass(frozen=True)
class Topic:
    name: str
    partition_count: int


@dataclass(frozen=True)
class LogRecord:
    topic: str
    partition: int
    offset: int
    key: bytes
    payload: bytes
    ingest_tick: int


@dataclass(frozen=True)
class ConsumerPosition:
    group: str
    topic: str
    partition: int
    committed_offset: int  # next offset this group will read


def _encode_frame(key: bytes, payload: bytes) -> bytes:
    if len(key) > 0xFFFF:
        raise ConfigError("record key longer than 65535 bytes")
    crc = zlib.crc32(key + payload) & 0xFFFFFFFF
    return _HEADER.pack(len(payload), crc, len(key)) + key + payload


class _Partition:
    """One partition: in-memory records plus append-only segment files."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.records: list[tuple[bytes, bytes, int]] = []  # key, payload, tick
        self._fh = None
        self._segment_index = 0
        self._records_in_segment = 0
        self._unsynced = 0

    # -- recovery ------------------------------------------------------

    def load(self, tick_source) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        segments = sorted(self.directory.glob("segment-*.log"))
        for seg_no, seg in enumerate(segments):
            last_good, self._records_in_segment = self._scan_segment(seg, tick_source)
            size = seg.stat().st_size
            if last_good < size:
                # torn tail from a crash mid-append: drop the partial frame
                if seg_no != len(segments) - 1:
                    raise CorruptLogError(f"{seg}: truncated frame mid-log")
                with open(seg, "r+b") as fh:
                    fh.truncate(last_good)
        if segments:
            self._segment_index = int(segments[-1].stem.split("-")[1])

    def _scan_segment(self, path: Path, tick_source) -> tuple[int, int]:
        """Append valid records to memory; return the byte offset of the
        last whole frame and the number of whole frames."""
        good = 0
        count = 0
        with open(path, "rb") as fh:
            data = fh.read()
        pos = 0
        while pos + _HEADER.size <= len(data):
            plen, crc, klen = _HEADER.unpack_from(data, pos)
            end = pos + _HEADER.size + klen + plen
            if end > len(data):
                break  # torn tail
            key = data[pos + _HEADER.size : pos + _HEADER.size + klen]
            payload = data[pos + _HEADER.size + klen : end]
            if zlib.crc32(key + payload) & 0xFFFFFFFF != crc:
                raise CorruptLogError(f"{path}: checksum mismatch at byte {pos}")
            self.records.append((key, payload, tick_source()))
            pos = end
            good = pos
            count += 1
        return good, count

    # -- appends -------------------------------------------------------

    def _segment_path(self) -> Path:
        return self.directory / f"segment-{self._segment_index:08d}.log"

    def _open_for_append(self):
        if self._fh is None:
            # buffering=0: bytes reach the OS on every write, so an
            # acknowledged publish survives a simulated process crash.
            self._fh = open(self._segment_path(), "ab", buffering=0)
        return self._fh

    def append(self, key: bytes, payload: bytes, tick: int) -> int:
        if self._records_in_segment >= SEGMENT_RECORDS:
            self._close_handle()
            self._segment_index += 1
            self._records_in_segment = 0
        fh = self._open_for_append()
        fh.write(_encode_frame(key, payload))
        self._records_in_segment += 1
        self._unsynced += 1
        if self._unsynced >= FSYNC_INTERVAL:
            self.fsync()
        self.records.append((key, payload, tick))
        return len(self.records) - 1

    def fsync(self) -> None:
        if self._fh is not None and self._unsynced:
            os.fsync(self._fh.fileno())
        self._unsynced = 0

    def _close_handle(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def close(self) -> None:
        self.fsync()
        self._close_handle()


class EventLog:
    """Topic registry plus partitioned storage under one root directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._topics: dict[str, Topic] = {}
        self._partitions: dict[str, list[_Partition]] = {}
        self._positions: dict[str, dict[str, dict[int, int]]] = {}  # topic -> group -> part -> next
        self._ticks = 0
        self._load_existing()

    # -- lifecycle -----------------------------------------------------

    def _load_existing(self) -> None:
        for meta_path in sorted(self.root.glob("*/topic.json")):
            with reading(meta_path):
                meta = json.loads(meta_path.read_text())
                topic = Topic(meta["name"], meta["partition_count"])
                count = topic.partition_count
                if type(count) is not int or count < 1:
                    raise DataError(f"partition_count {count!r} is not an int >= 1")
            parts = self._add_topic(topic, meta_path.parent)
            pos_path = meta_path.parent / "positions.json"
            if pos_path.exists():
                with reading(pos_path):
                    raw = json.loads(pos_path.read_text())
                    positions = {
                        group: {int(k): v for k, v in by_part.items()}
                        for group, by_part in raw.items()
                    }
                    for group, by_part in positions.items():
                        for p, offset in by_part.items():
                            if not 0 <= p < len(parts):
                                raise DataError(f"group {group!r} names no partition {p}")
                            length = len(parts[p].records)
                            if type(offset) is not int or not 0 <= offset <= length:
                                raise DataError(
                                    f"group {group!r} offset {offset!r} on partition {p} "
                                    f"lies outside [0, {length}]"
                                )
                    self._positions[topic.name] = positions

    def _add_topic(self, topic: Topic, tdir: Path) -> list[_Partition]:
        """Load or create the partitions of ``topic`` under ``tdir`` and
        register it with no consumer positions."""
        parts = []
        for p in range(topic.partition_count):
            part = _Partition(tdir / f"p{p:03d}")
            part.load(self._next_tick)
            parts.append(part)
        self._topics[topic.name] = topic
        self._partitions[topic.name] = parts
        self._positions[topic.name] = {}
        return parts

    def _next_tick(self) -> int:
        self._ticks += 1
        return self._ticks

    def ticks(self) -> int:
        with self._lock:
            return self._ticks

    def advance_ticks(self, n: int) -> int:
        """Inject idle simulated time (no records published)."""
        if n < 0:
            raise ConfigError("cannot advance ticks backwards")
        with self._lock:
            self._ticks += n
            return self._ticks

    def close(self) -> None:
        with self._lock:
            for parts in self._partitions.values():
                for part in parts:
                    part.close()

    # -- topics --------------------------------------------------------

    def create_topic(self, name: str, partition_count: int) -> Topic:
        if partition_count < 1:
            raise ConfigError("partition_count must be >= 1")
        if not name or "/" in name or name.startswith("."):
            raise ConfigError(f"invalid topic name {name!r}")
        with self._lock:
            if name in self._topics:
                raise AlreadyExistsError(f"topic {name!r} already exists")
            topic = Topic(name, partition_count)
            tdir = self.root / name
            tdir.mkdir(parents=True, exist_ok=True)
            (tdir / "topic.json").write_text(
                json.dumps({"name": name, "partition_count": partition_count})
            )
            self._add_topic(topic, tdir)
            return topic

    def topic(self, name: str) -> Topic:
        with self._lock:
            if name not in self._topics:
                raise NotFoundError(f"topic {name!r} does not exist")
            return self._topics[name]

    def partition_length(self, topic: str, partition: int) -> int:
        with self._lock:
            parts = self._require_parts(topic)
            self._check_partition(topic, partition)
            return len(parts[partition].records)

    def _require_parts(self, topic: str) -> list[_Partition]:
        if topic not in self._topics:
            raise NotFoundError(f"topic {topic!r} does not exist")
        return self._partitions[topic]

    def _check_partition(self, topic: str, partition: int) -> None:
        count = self._topics[topic].partition_count
        if not 0 <= partition < count:
            raise NotFoundError(
                f"topic {topic!r} has no partition {partition} (count {count})"
            )

    # -- produce / consume ---------------------------------------------

    def publish(self, topic: str, key: bytes, payload: bytes) -> tuple[int, int]:
        """Append one record; returns (partition, offset) once durable."""
        if not isinstance(key, bytes) or not isinstance(payload, bytes):
            raise ConfigError("key and payload must be bytes")
        with self._lock:
            parts = self._require_parts(topic)
            partition = fnv1a_64(key) % len(parts)
            tick = self._next_tick()
            offset = parts[partition].append(key, payload, tick)
            return partition, offset

    def poll(self, group: str, topic: str, max_records: int) -> list[LogRecord]:
        """Read from the group's committed positions, never advancing them.

        Partitions are visited in index order; within a partition records
        come back in offset order. Polling again without a commit returns
        the same records.
        """
        if max_records < 1:
            raise ConfigError("max_records must be >= 1")
        with self._lock:
            parts = self._require_parts(topic)
            by_group = self._positions[topic].setdefault(group, {})
            out: list[LogRecord] = []
            budget = max_records
            for p, part in enumerate(parts):
                if budget <= 0:
                    break
                start = by_group.get(p, 0)
                stop = min(len(part.records), start + budget)
                for offset in range(start, stop):
                    key, payload, tick = part.records[offset]
                    out.append(LogRecord(topic, p, offset, key, payload, tick))
                budget -= stop - start
            return out

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        """Mark offsets 0..offset consumed; the next poll starts at offset+1."""
        with self._lock:
            parts = self._require_parts(topic)
            self._check_partition(topic, partition)
            length = len(parts[partition].records)
            if offset < 0 or offset >= length:
                raise OffsetRangeError(
                    f"commit offset {offset} beyond end of {topic}/p{partition} "
                    f"(length {length})"
                )
            by_group = self._positions[topic].setdefault(group, {})
            by_group[partition] = offset + 1
            self._persist_positions(topic)

    def position(self, group: str, topic: str, partition: int) -> ConsumerPosition:
        with self._lock:
            self._require_parts(topic)
            self._check_partition(topic, partition)
            next_offset = self._positions[topic].get(group, {}).get(partition, 0)
            return ConsumerPosition(group, topic, partition, next_offset)

    def _persist_positions(self, topic: str) -> None:
        path = self.root / topic / "positions.json"
        tmp = path.with_suffix(".json.tmp")
        data = {
            group: {str(p): off for p, off in sorted(by_part.items())}
            for group, by_part in sorted(self._positions[topic].items())
        }
        tmp.write_text(json.dumps(data, sort_keys=True))
        os.replace(tmp, path)

    def flush(self, topic: str | None = None) -> None:
        """fsync pending appends."""
        with self._lock:
            names = [topic] if topic is not None else list(self._partitions)
            for name in names:
                for part in self._require_parts(name):
                    part.fsync()
