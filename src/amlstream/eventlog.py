"""Embedded partitioned append-only event log with publish/subscribe.

Serves as the pipeline's ingest buffer: producers append keyed records,
consumer groups poll from committed offsets, and nothing is ever
deleted. One directory per topic, one subdirectory per partition, and
each partition is one append-only file, ``segment-00000000.log``, of
frames:

    [u32 LE payload length][u32 LE CRC32][u16 LE key length][key][payload]

CRC32 covers key bytes followed by payload bytes. The file is the only
copy of a record: memory keeps, per record, the byte offset where its
frame ends and its ingest tick. A read takes a partition's range of
records with one pread between those offsets and slices out their
payloads, building no object per record: poll_columns hands a batch
over as payloads, ticks and a (start, stop) per partition, and poll is
its row view, one LogRecord per record. Offsets are implied by frame
order. The file never rolls; older versions rolled to a second segment
after 65,536 records, and a partition holding any other
``segment-*.log`` raises CorruptLogError naming it rather than skip its
records.

Consumer positions live in a journal per topic, ``positions.jsonl``,
which storage's JournalWriter appends to and fsyncs. A commit (a commit
of a whole watermark is how the stream commits each batch) checks every
partition's offset first and then appends one sorted-key line holding
the group's whole map of next offsets:

    {"group": "stream", "next": {"0": 51, "1": 17}}

Opening folds the file, the last line of each group winning; a line
torn by a crash mid-append is cut, so the commit before it holds. The
file is replaced by one line per group, sorted by group, when the
topic's first commit creates it, when a commit finds
POSITIONS_STALE_LINES superseded lines in it, and on close() when it
holds any. So a file that holds no whole line was never written by this
code, and raises DataError naming it. An older version's
``positions.json``, one JSON object of group to partition to next
offset, is read once when a topic has no ``positions.jsonl``, with the
same checks, written as ``positions.jsonl`` and removed.

Durability policy: publish_many appends many records in one call, and
publish appends one through the same key check and frame writer. A call
writes each partition's queued frames to the OS in one write once
FSYNC_INTERVAL of its records are unsynced, and fsyncs them then; it
writes the rest at its end, so every record is written to the OS before
the call returns, and flush() forces an fsync. The CLI's ingest, demo
and ``stream --feed`` publish each batch in one call and call flush()
after it, before a drain commits its offsets. A commit line is fsynced
before the commit returns. topic.json, and positions.jsonl whenever it
is rewritten, are written by storage's replace_file, so each is fsynced
before it is renamed into place. A simulated in-process crash therefore
never loses an acknowledged publish or commit; a crash of the machine
can lose the unsynced tail of a partition.

Opening checks every byte poll can return, and finds most frames
through a sidecar index, ``segment-00000000.index``, which covers the
segment's first ``L`` bytes by storage's covered-prefix rule:

    [u64 LE n][u64 LE L][u32 LE CRC32 of segment bytes [0, L)]
    [u32 LE CRC32 of the ends][n x u64 LE frame end]

Its own checks are the CRC of its ends and a last end equal to ``L``.
Only the frames past an adopted index are scanned, each against its
CRC: a mismatch on a fully framed record is corruption and raises
CorruptLogError naming its byte, and a torn tail from a crash mid-write,
which may hold several frames of one write, is cut to the last whole
frame. A frame that runs past the file's end inside the ``L`` of an
index whose own checks hold is not a torn tail (the segment was fsynced
before the index was written) but a damaged length, and raises
CorruptLogError naming its byte too. flush() rewrites the index once
INDEX_INTERVAL records lie past it, and close() whenever any does. A
partition count that is not an int of at least 1, or a committed offset
that names no partition or is not an int within its partition's
records, raises DataError naming the file; a positions line that is not
a commit's object raises DataError naming ``path:line``.

Partitioning uses FNV-1a (64-bit) on the key, reduced modulo the
partition count, computed once per distinct key of a publish call.
FNV-1a is fixed here precisely so replays hash identically on any
platform or process.

Simulated time: the log owns a monotonic tick counter. Each published
record advances it by one, in the order of its call, and is stamped
with it as its ingest_tick; idle time can be injected with
advance_ticks(). On reload the counter restarts at the total record
count and ingest ticks are reassigned in partition scan order, so tick
arithmetic stays valid within any one process session.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass
from itertools import repeat
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
from .storage import JournalWriter, Prefix, checked_prefix, read_journal, replace_file

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64_MASK = 0xFFFFFFFFFFFFFFFF

SEGMENT_NAME = "segment-00000000.log"
INDEX_NAME = "segment-00000000.index"
FSYNC_INTERVAL = 256
INDEX_INTERVAL = 4096
POSITIONS_NAME = "positions.jsonl"
LEGACY_POSITIONS_NAME = "positions.json"
POSITIONS_STALE_LINES = 1024  # superseded commit lines that make the next commit rewrite the file
_HEADER = struct.Struct("<IIH")  # payload length, crc32, key length
_INDEX_HEADER = struct.Struct("<QQII")  # records, covered bytes, their crc32, crc32 of the ends


def fnv1a_64(data: bytes) -> int:
    """FNV-1a, 64-bit. Stable across platforms and processes."""
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & _U64_MASK
    return h


def _partition_of(key: bytes, partition_count: int) -> int:
    """The partition of a record key; a key that is not bytes or is longer
    than 65,535 bytes raises ConfigError."""
    if not isinstance(key, bytes):
        raise ConfigError("key and payload must be bytes")
    if len(key) > 0xFFFF:
        raise ConfigError("record key longer than 65535 bytes")
    return fnv1a_64(key) % partition_count


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
class ColumnBatch:
    """One poll's records as columns, partition by partition and each
    partition in offset order."""

    payloads: list  # bytes
    ticks: array  # each payload's ingest tick
    ranges: dict  # partition -> (start, stop) of the offsets read from it

    def locate(self, i: int) -> tuple[int, int]:
        """The (partition, offset) of the i-th payload."""
        for partition, (start, stop) in self.ranges.items():
            if i < stop - start:
                return partition, start + i
            i -= stop - start
        raise IndexError(i)


@dataclass(frozen=True)
class ConsumerPosition:
    group: str
    topic: str
    partition: int
    committed_offset: int  # next offset this group will read


class _Partition:
    """One partition: an append-only frame file plus, per record, the
    byte offset where its frame ends and its ingest tick."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.path = directory / SEGMENT_NAME
        self.index_path = directory / INDEX_NAME
        self.ends = array("q")
        self.ticks = array("q")
        self._fh = None
        self._pending: list[bytes] = []  # queued frames as header, key, payload pieces
        self._unsynced = 0  # records written or queued since the last fsync
        self._indexed = 0  # records the index file covers
        self._prefix = Prefix()  # the segment's checked prefix

    def load(self, ticks_before: int) -> int:
        """Index every whole frame, through the index file where it holds
        and by a checked scan past it, and cut a torn tail. Records get
        ticks after ``ticks_before`` in frame order; returns how many
        there are."""
        self.directory.mkdir(parents=True, exist_ok=True)
        for seg in sorted(self.directory.glob("segment-*.log")):
            if seg != self.path:
                raise CorruptLogError(f"{seg}: rolled segment of an older version")
        if not self.path.exists():
            return 0
        with open(self.path, "rb") as fh:
            whole = self._load_index(fh.fileno())
            start = self._prefix.length
            fh.seek(start)
            data = fh.read()
        view = memoryview(data)
        pos = 0
        while pos + _HEADER.size <= len(data):
            plen, crc, klen = _HEADER.unpack_from(data, pos)
            end = pos + _HEADER.size + klen + plen
            if end > len(data):
                if start + pos < whole:
                    raise CorruptLogError(
                        f"{self.path}: frame at byte {start + pos} runs past the end of the "
                        f"file, inside the {whole} bytes its index found whole"
                    )
                break  # torn tail
            # the key and payload are contiguous, as the CRC covers them
            if zlib.crc32(view[pos + _HEADER.size : end]) != crc:
                raise CorruptLogError(f"{self.path}: checksum mismatch at byte {start + pos}")
            self.ends.append(start + end)
            pos = end
        self._prefix = self._prefix.extend(view[:pos])
        if pos < len(data):
            # torn tail from a crash mid-append: drop the partial frame
            with open(self.path, "r+b") as fh:
                fh.truncate(start + pos)
        self.ticks = array("q", range(ticks_before + 1, ticks_before + 1 + len(self.ends)))
        return len(self.ends)

    def _load_index(self, fd: int) -> int:
        """Adopt the index file's frame ends and prefix if every check
        passes; otherwise leave none, so the scan starts at byte 0. Returns
        how many leading bytes of the segment were whole frames when an
        index that is itself intact was written, 0 if none is: the segment
        was fsynced before it, so no crash can tear a frame there."""
        try:
            raw = self.index_path.read_bytes()
        except FileNotFoundError:
            return 0
        if len(raw) < _INDEX_HEADER.size:
            return 0
        count, length, prefix_crc, ends_crc = _INDEX_HEADER.unpack_from(raw)
        body = memoryview(raw)[_INDEX_HEADER.size :]
        if len(body) != 8 * count or zlib.crc32(body) != ends_crc:
            return 0
        ends = array("q")
        ends.frombytes(body)
        if sys.byteorder == "big":
            ends.byteswap()
        if not ends or ends[-1] != length:
            return 0
        prefix = checked_prefix(fd, length, prefix_crc)
        if prefix is not None:
            self.ends = ends
            self._indexed = count
            self._prefix = prefix
        return length

    def _write_index(self) -> None:
        """Replace the index file with one covering every record, extending
        the checked prefix over the bytes appended since the last one."""
        prefix = self._prefix.read_to(self._handle().fileno(), self.ends[-1])
        if prefix is None:
            return  # the file was cut under us; the next open scans it all
        self._prefix = prefix
        ends = self.ends
        if sys.byteorder == "big":
            ends = array("q", ends)
            ends.byteswap()
        body = ends.tobytes()
        replace_file(
            self.index_path,
            _INDEX_HEADER.pack(len(self.ends), prefix.length, prefix.crc, zlib.crc32(body)) + body,
        )
        self._indexed = len(self.ends)

    def _handle(self):
        if self._fh is None:
            # buffering=0: bytes reach the OS on every write, so an
            # acknowledged publish survives a simulated process crash.
            self._fh = open(self.path, "a+b", buffering=0)
        return self._fh

    def append(self, key: bytes, payload: bytes, tick: int) -> None:
        """Queue one record's frame. Queued frames reach the file in one
        write by write_pending(), and also once FSYNC_INTERVAL records are
        unsynced, when they are fsynced too."""
        self._pending += (
            _HEADER.pack(len(payload), zlib.crc32(payload, zlib.crc32(key)), len(key)),
            key,
            payload,
        )
        end = (self.ends[-1] if self.ends else 0) + _HEADER.size + len(key) + len(payload)
        self.ends.append(end)
        self.ticks.append(tick)
        self._unsynced += 1
        if self._unsynced >= FSYNC_INTERVAL:
            self.fsync()

    def write_pending(self) -> None:
        """Write every queued frame to the OS in one write."""
        data = b"".join(self._pending)
        self._pending.clear()
        written = self._handle().write(data)
        while written < len(data):  # a short write: hand over the rest
            written += self._fh.write(data[written:])

    def read(self, start: int, stop: int, keys: list | None = None) -> tuple[list[bytes], array]:
        """Payloads and ticks of records start..stop-1, the payloads
        sliced at their indexed frame ends out of one read of their bytes;
        the CRCs were checked at load. Each record's key is appended to
        ``keys`` when it is given."""
        base = self.ends[start - 1] if start else 0
        size = self.ends[stop - 1] - base
        data = os.pread(self._handle().fileno(), size, base)
        if len(data) < size:
            raise CorruptLogError(f"{self.path}: ends before record {stop - 1}")
        payloads = []
        pos = 0
        for end in self.ends[start:stop]:
            end -= base
            key_end = pos + _HEADER.size + (data[pos + 8] | data[pos + 9] << 8)  # u16 LE key length
            if keys is not None:
                keys.append(data[pos + _HEADER.size : key_end])
            payloads.append(data[key_end:end])
            pos = end
        return payloads, self.ticks[start:stop]

    def fsync(self) -> None:
        if self._pending:
            self.write_pending()
        if self._fh is not None and self._unsynced:
            os.fsync(self._fh.fileno())
        self._unsynced = 0

    def flush(self, index_after: int) -> None:
        """fsync pending appends, then rewrite the index once
        ``index_after`` records lie past it."""
        self.fsync()
        if self.ends and len(self.ends) - self._indexed >= index_after:
            self._write_index()

    def close(self) -> None:
        self.flush(index_after=1)
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _commit_line(group: str, by_part: dict[int, int]) -> str:
    """One positions line: the group's whole map of next offsets."""
    next_offsets = {str(p): offset for p, offset in by_part.items()}
    return json.dumps({"group": group, "next": next_offsets}, sort_keys=True) + "\n"


def _read_commit(row) -> tuple[str, dict[int, int]]:
    """A positions line's group and its map of partition to next offset;
    the offsets are checked against the log once the file is folded."""
    if type(row) is not dict or row.keys() != {"group", "next"}:
        raise DataError("a commit line is an object of a group and its next offsets")
    group, next_offsets = row["group"], row["next"]
    if type(group) is not str or type(next_offsets) is not dict:
        raise DataError("a commit line's group is a string and its next offsets an object")
    return group, {int(p): offset for p, offset in next_offsets.items()}


class _Positions:
    """One topic's consumer positions, group -> partition -> next offset,
    and the journal that keeps them."""

    def __init__(self, path: Path):
        self.path = path
        self.groups: dict[str, dict[int, int]] = {}
        self._lines = 0  # lines in the file
        self._writer: JournalWriter | None = None

    def load(self, parts: list[_Partition]) -> None:
        """Fold the journal, or read an older version's positions.json
        and replace it, then check every offset against ``parts``."""
        legacy = self.path.with_name(LEGACY_POSITIONS_NAME)
        if self.path.exists():
            lines = read_journal(self.path, _read_commit)
            if not lines:
                raise DataError(f"{self.path}: holds no commit")
            self.groups = dict(lines)
            self._lines = len(lines)
            source = self.path
        elif legacy.exists():
            with reading(legacy):
                raw = json.loads(legacy.read_text())
                self.groups = {
                    group: {int(k): v for k, v in by_part.items()} for group, by_part in raw.items()
                }
            source = legacy
        else:
            return
        with reading(source):
            for group, by_part in self.groups.items():
                for p, offset in by_part.items():
                    if not 0 <= p < len(parts):
                        raise DataError(f"group {group!r} names no partition {p}")
                    length = len(parts[p].ends)
                    if type(offset) is not int or not 0 <= offset <= length:
                        raise DataError(
                            f"group {group!r} offset {offset!r} on partition {p} "
                            f"lies outside [0, {length}]"
                        )
        if source is legacy and self.groups:
            self.rewrite()
        # positions.jsonl, once it exists, holds every commit
        legacy.unlink(missing_ok=True)

    def commit(self, group: str) -> None:
        """Make ``group``'s positions, already moved in memory, durable:
        one fsynced line, or a rewrite of the file."""
        if not self._lines or self._lines - len(self.groups) >= POSITIONS_STALE_LINES:
            self.rewrite()
            return
        if self._writer is None:
            self._writer = JournalWriter(self.path)
        self._writer.append(_commit_line(group, self.groups[group]))
        self._lines += 1

    def rewrite(self) -> None:
        """Replace the file with one line per group, sorted by group."""
        lines = "".join(_commit_line(g, by_part) for g, by_part in sorted(self.groups.items()))
        replace_file(self.path, lines.encode("utf-8"))
        self._lines = len(self.groups)
        self._close_writer()

    def _close_writer(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def close(self) -> None:
        """Rewrite a file that holds superseded lines, and close it."""
        if self._lines > len(self.groups):
            self.rewrite()
        self._close_writer()


class EventLog:
    """Topic registry plus partitioned storage under one root directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._partitions: dict[str, list[_Partition]] = {}
        self._positions: dict[str, _Positions] = {}
        self._ticks = 0
        self._load_existing()

    # -- lifecycle -----------------------------------------------------

    def _load_existing(self) -> None:
        for meta_path in sorted(self.root.glob("*/topic.json")):
            with reading(meta_path):
                meta = json.loads(meta_path.read_text())
                name, count = meta["name"], meta["partition_count"]
                if name != meta_path.parent.name:
                    raise DataError(f"topic name {name!r} is not its directory's name")
                if type(count) is not int or count < 1:
                    raise DataError(f"partition_count {count!r} is not an int >= 1")
            parts = self._add_topic(name, count, meta_path.parent)
            self._positions[name].load(parts)

    def _add_topic(self, name: str, partition_count: int, tdir: Path) -> list[_Partition]:
        """Load or create the ``partition_count`` partitions of topic
        ``name`` under ``tdir`` and register it with no consumer positions."""
        parts = []
        for p in range(partition_count):
            part = _Partition(tdir / f"p{p:03d}")
            self._ticks += part.load(self._ticks)
            parts.append(part)
        self._partitions[name] = parts
        self._positions[name] = _Positions(tdir / POSITIONS_NAME)
        return parts

    def ticks(self) -> int:
        return self._ticks

    def advance_ticks(self, n: int) -> int:
        """Inject idle simulated time (no records published)."""
        if n < 0:
            raise ConfigError("cannot advance ticks backwards")
        self._ticks += n
        return self._ticks

    def close(self) -> None:
        for parts in self._partitions.values():
            for part in parts:
                part.close()
        for positions in self._positions.values():
            positions.close()

    # -- topics --------------------------------------------------------

    def create_topic(self, name: str, partition_count: int) -> Topic:
        if partition_count < 1:
            raise ConfigError("partition_count must be >= 1")
        if not name or "/" in name or name.startswith("."):
            raise ConfigError(f"invalid topic name {name!r}")
        if name in self._partitions:
            raise AlreadyExistsError(f"topic {name!r} already exists")
        tdir = self.root / name
        tdir.mkdir(parents=True, exist_ok=True)
        replace_file(
            tdir / "topic.json",
            json.dumps({"name": name, "partition_count": partition_count}).encode("utf-8"),
        )
        self._add_topic(name, partition_count, tdir)
        return Topic(name, partition_count)

    def topic(self, name: str) -> Topic:
        return Topic(name, len(self._require_parts(name)))

    def partition_length(self, topic: str, partition: int) -> int:
        parts = self._require_parts(topic)
        self._check_partition(topic, partition)
        return len(parts[partition].ends)

    def _require_parts(self, topic: str) -> list[_Partition]:
        if topic not in self._partitions:
            raise NotFoundError(f"topic {topic!r} does not exist")
        return self._partitions[topic]

    def _check_partition(self, topic: str, partition: int) -> None:
        count = len(self._partitions[topic])
        if not 0 <= partition < count:
            raise NotFoundError(
                f"topic {topic!r} has no partition {partition} (count {count})"
            )

    # -- produce / consume ---------------------------------------------

    def publish(self, topic: str, key: bytes, payload: bytes) -> tuple[int, int]:
        """Append one record; returns its (partition, offset) once it is
        written to the OS. It is fsynced with the FSYNC_INTERVAL-th
        unsynced record of its partition, or by flush(). The checks and
        the frame writer are publish_many's, without its per-call maps."""
        parts = self._require_parts(topic)
        partition = _partition_of(key, len(parts))
        if not isinstance(payload, bytes):
            raise ConfigError("key and payload must be bytes")
        part = parts[partition]
        self._ticks += 1
        part.append(key, payload, self._ticks)
        if part._pending:
            part.write_pending()
        return partition, len(part.ends) - 1

    def publish_many(self, topic: str, keys, payloads) -> dict[int, tuple[int, int]]:
        """Append records in order, the i-th under ``keys[i]`` with the
        i-th of ``payloads``. Returns ``{partition: (start, stop)}`` for
        each partition the call appended to, in the order it first did:
        its records got offsets start..stop-1, in the order of the call.

        Every key is checked before any tick moves, so a key that is not
        bytes or is longer than 65,535 bytes publishes nothing. Each
        distinct key is hashed once. ``payloads`` is read one at a time as
        its record is framed, so a caller can encode them on the fly; a
        payload that is not bytes, or a missing one, raises with the
        records before it published. A partition's queued frames go to
        the OS in one write once FSYNC_INTERVAL of its records are
        unsynced, and are fsynced then; the rest are written, not synced,
        at the end of the call. So, as for publish, every record is
        written to the OS when this returns, and flush() makes it durable.
        """
        parts = self._require_parts(topic)
        partition_of: dict[bytes, int] = {}
        starts: dict[int, int] = {}  # partition -> its length before the call
        for key in keys:
            # a key that is not bytes may be unhashable: the helper refuses it first
            if not isinstance(key, bytes) or key not in partition_of:
                partition = partition_of[key] = _partition_of(key, len(parts))
                if partition not in starts:
                    starts[partition] = len(parts[partition].ends)
        tick = first_tick = self._ticks
        try:
            for key, payload in zip(keys, payloads):
                if not isinstance(payload, bytes):
                    raise ConfigError("key and payload must be bytes")
                tick += 1
                parts[partition_of[key]].append(key, payload, tick)
        finally:
            self._ticks = tick
            ranges = {}
            for partition, start in starts.items():
                part = parts[partition]
                if part._pending:
                    part.write_pending()
                ranges[partition] = (start, len(part.ends))
        if tick - first_tick != len(keys):
            raise ConfigError(f"{len(keys)} keys but fewer payloads")
        return ranges

    def poll(self, group: str, topic: str, max_records: int) -> list[LogRecord]:
        """Read from the group's committed positions, never advancing them.

        Partitions are visited in index order; within a partition records
        come back in offset order. Polling again without a commit returns
        the same records. The row view of poll_columns' read.
        """
        out: list[LogRecord] = []
        for p, part, start, stop in self._read_ranges(group, topic, max_records):
            keys: list[bytes] = []
            payloads, ticks = part.read(start, stop, keys)
            offsets = range(start, stop)
            out += map(LogRecord, repeat(topic), repeat(p), offsets, keys, payloads, ticks)
        return out

    def poll_columns(self, group: str, topic: str, max_records: int) -> ColumnBatch:
        """The records poll would return, as columns: payloads and ingest
        ticks in poll's order, and the offsets read from each partition."""
        payloads: list[bytes] = []
        ticks = array("q")
        ranges = {}
        for p, part, start, stop in self._read_ranges(group, topic, max_records):
            part_payloads, part_ticks = part.read(start, stop)
            payloads += part_payloads
            ticks += part_ticks
            ranges[p] = (start, stop)
        return ColumnBatch(payloads, ticks, ranges)

    def _read_ranges(self, group: str, topic: str, max_records: int) -> list:
        """``(partition, its _Partition, start, stop)`` for each partition a
        read of up to ``max_records`` from the group's positions takes
        records from, in partition order."""
        if max_records < 1:
            raise ConfigError("max_records must be >= 1")
        parts = self._require_parts(topic)
        by_group = self._positions[topic].groups.get(group, {})
        ranges = []
        budget = max_records
        for p, part in enumerate(parts):
            if budget <= 0:
                break
            start = by_group.get(p, 0)
            stop = min(len(part.ends), start + budget)
            if start < stop:
                ranges.append((p, part, start, stop))
            budget -= stop - start
        return ranges

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        """Mark offsets 0..offset consumed; the next poll starts at offset+1."""
        self.commit_watermark(group, topic, {partition: offset})

    def commit_watermark(self, group: str, topic: str, watermark: dict[int, int]) -> None:
        """Commit ``{partition: last consumed offset}`` for several
        partitions with one fsynced positions line. Every entry is checked
        before any position moves, so a bad one commits nothing."""
        parts = self._require_parts(topic)
        for partition, offset in watermark.items():
            self._check_partition(topic, partition)
            length = len(parts[partition].ends)
            if offset < 0 or offset >= length:
                raise OffsetRangeError(
                    f"commit offset {offset} beyond end of {topic}/p{partition} "
                    f"(length {length})"
                )
        positions = self._positions[topic]
        by_group = positions.groups.setdefault(group, {})
        for partition, offset in watermark.items():
            by_group[partition] = offset + 1
        positions.commit(group)

    def position(self, group: str, topic: str, partition: int) -> ConsumerPosition:
        self._require_parts(topic)
        self._check_partition(topic, partition)
        next_offset = self._positions[topic].groups.get(group, {}).get(partition, 0)
        return ConsumerPosition(group, topic, partition, next_offset)

    def flush(self) -> None:
        """fsync pending appends of every topic, rewriting each index that
        INDEX_INTERVAL records lie past."""
        for parts in self._partitions.values():
            for part in parts:
                part.flush(INDEX_INTERVAL)
