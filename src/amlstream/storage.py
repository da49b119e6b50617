"""File-backed blob and table stores, and the JSON-lines journal.

Every whole-file write (a blob, a table's schema.json and compaction, the
event log's topic.json, positions.json and index) goes through
replace_file: a temp file is written, fsynced and renamed over the
target, so a reader, or a restart after a crash, sees either the old
bytes or the new bytes, never a mix.

BlobStore: named byte objects under namespace/date/name directories.

TableStore: keyed tables, each its schema.json (the table's name and
primary key) plus an append-only journal of upserts. A row is one JSON
object per line, written as its producer formatted it: ingest's lines
are the event log's payloads, and the stream appends its alert lines
straight to the alerts table's journal (journal_path). Types are not
checked on write; the table's RowType, given when a command declares
the table, decodes a row when it is read back. Opening reads only the
schemas and no rows are held in memory. query folds the journal, the
last upsert of a key winning, so a replayed row counts once, and
returns the whole table sorted by primary key, which keeps every
downstream report deterministic.

Both derived files, the event log's index beside a segment and a
table's compaction beside its journal, follow one covered-prefix rule.
Each covers its file's first ``L`` bytes and records their CRC32, a
Prefix. A reader adopts it only if its own checks hold and
checked_prefix finds those bytes, read 1 MiB at a time, with that CRC;
then it reads only the bytes past ``L``, else the whole file. A writer
replaces it once the bytes it covers are fsynced, extending its last
Prefix over only the bytes past it.

A table may keep one compaction beside its journal, ``columns.npz``: the
fold of the journal's first ``L`` bytes as one column per field, one row
per key, sorted by key, each value as the RowType decodes it. Integer,
float and boolean columns are NumPy arrays; a string column is int32
codes, its sorted vocabulary kept in the file's JSON header, since NumPy
string arrays drop trailing NUL characters; the header also carries the
Prefix. Its own checks: format number, key and columns, column lengths
and types, codes within their vocabulary, keys strictly increasing.
count and columns fold only the journal lines past it. upsert_rows
rewrites it once COMPACT_ROWS rows lie past it, from the values its
callers hand it for the rows they append, decoding only older lines past
it, and skips compacting if one of them does not decode. No read writes
a compaction; the stream's alert appends neither read nor write one.

Every JSON-lines journal (the warehouse tables, the model registry, the
stream's dead-letter file) follows one rule. JournalWriter is its only
append side: each call appends one JSON object per line (write encodes
rows as sorted-key JSON, append takes lines already formatted) and is
flushed and fsynced before it returns. A final line without its newline
was torn by a crash mid-append; truncate_torn_tail cuts it, when a
writer opens the file and before read_journal parses it, so the next
append starts on a clean line. A bad line anywhere else is corruption
and raises DataError naming ``path:line``; a line that is not strict
UTF-8 is a bad line. Each line is parsed by _loads_line, which calls
json's C scanner directly and falls back to json.loads whenever the scan
fails or stops short, so it gives json.loads's values and errors with
less overhead per line; txgen reads log payloads and dataset lines
through it too.
"""

from __future__ import annotations

import io
import json
import os
import re
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    AlreadyExistsError,
    ConfigError,
    MALFORMED,
    DataError,
    NotFoundError,
    reading,
)

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_NAME_RE = re.compile(r"^[A-Za-z0-9._:-]+$")
_TAIL_CHUNK = 4096
_READ_CHUNK = 1 << 20

COMPACTION_NAME = "columns.npz"
COMPACTION_FORMAT = 1
COMPACT_ROWS = 4096  # journal rows past the compaction that make upsert_rows rewrite it
_DTYPES = {"int": np.dtype("<i8"), "float": np.dtype("<f8"), "bool": np.dtype("?")}
_CODES = np.dtype("<i4")


def truncate_torn_tail(path) -> None:
    """Cut a final line that lacks its newline, so the next append starts
    on a clean line. Reads back from the end, not the whole file."""
    try:
        fh = open(path, "rb+")
    except FileNotFoundError:
        return
    with fh:
        end = fh.seek(0, os.SEEK_END)
        pos = end
        while pos > 0:
            start = max(0, pos - _TAIL_CHUNK)
            fh.seek(start)
            chunk = fh.read(pos - start)
            cut = chunk.rfind(b"\n")
            if cut >= 0:
                if start + cut + 1 < end:
                    fh.truncate(start + cut + 1)
                return
            pos = start
        fh.truncate(0)


def replace_file(path: Path, data: bytes) -> None:
    """Replace the file at ``path`` with ``data``: write a temp file beside
    it, fsync it, then rename it over ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# json.loads, less its wrappers: the C scanner it ends in
_scan_json = json.JSONDecoder().scan_once


def _loads_line(line: str):
    """``json.loads(line)``: the same value, or the same exception with the
    same text. The scanner is called directly, and json.loads itself only
    when the scan fails, as it does on leading whitespace or a BOM, or
    leaves anything but JSON whitespace after the value."""
    try:
        value, end = _scan_json(line, 0)
    except (StopIteration, ValueError, RecursionError):
        return json.loads(line)
    if end != len(line) and line[end:].strip(" \t\n\r"):
        return json.loads(line)
    return value


def _chunks(fd: int, start: int, stop: int):
    """Bytes [start, stop) of ``fd``, 1 MiB at a time, up to the file's end."""
    while start < stop:
        chunk = os.pread(fd, min(_READ_CHUNK, stop - start), start)
        if not chunk:
            return
        yield chunk
        start += len(chunk)


def _lines_in(path, start: int, stop: int) -> int:
    """How many lines of ``path`` end in its bytes [start, stop)."""
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in _chunks(fh.fileno(), start, stop))


@dataclass(frozen=True)
class Prefix:
    """A file's first ``length`` bytes, whose CRC32 is ``crc``."""

    length: int = 0
    crc: int = 0

    def extend(self, data) -> "Prefix":
        """This prefix extended over ``data``, the file's next bytes."""
        return Prefix(self.length + len(data), zlib.crc32(data, self.crc))

    def read_to(self, fd: int, stop: int) -> "Prefix | None":
        """This prefix extended to ``stop`` by reading ``fd``; None if it ends first."""
        prefix = self
        for chunk in _chunks(fd, self.length, stop):
            prefix = prefix.extend(chunk)
        return prefix if prefix.length == stop else None


def checked_prefix(fd: int, length: int, crc: int) -> Prefix | None:
    """The first ``length`` bytes of ``fd`` if they have CRC32 ``crc``, else None."""
    prefix = Prefix().read_to(fd, length)
    return prefix if prefix is not None and prefix.crc == crc else None


def _decode_lines(raw, path, start: int, decode) -> list:
    """The journal lines of ``path`` from its byte ``start`` in the binary
    stream ``raw``, each parsed and passed through ``decode``; blank lines
    are skipped. The lines before a bad one are counted only to name it."""
    entries = []
    for number, line in enumerate(raw, start=1):
        try:
            line = line.decode("utf-8").strip()
            if not line:
                continue
            entries.append(decode(_loads_line(line)))
        except MALFORMED as exc:
            number += _lines_in(path, 0, start)
            raise DataError(f"{path}:{number}: bad journal line: {exc!r}") from exc
    return entries


def read_journal(path, decode, start: int = 0) -> list:
    """The parsed lines of a JSON-lines journal from byte ``start``, which
    begins a line, oldest first, each passed through ``decode``. A line
    that does not parse or decode raises DataError naming ``path:line``."""
    truncate_torn_tail(path)
    with open(path, "rb") as fh:
        fh.seek(start)
        return _decode_lines(fh, path, start, decode)


class JournalWriter:
    """The append side of a JSON-lines journal: a torn tail is cut on
    open, and each write is flushed and fsynced before it returns."""

    def __init__(self, path):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        truncate_torn_tail(path)
        self._handle = open(path, "ab")

    def write(self, rows) -> None:
        self.append("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))

    def append(self, lines: str) -> None:
        """Append whole lines, each the JSON object of one row, already
        formatted; flushed and fsynced before it returns."""
        if not lines:
            return
        self._handle.write(lines.encode("utf-8"))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def size(self) -> int:
        """The journal's length in bytes, other writers' appends included."""
        return os.fstat(self._handle.fileno()).st_size

    def close(self) -> None:
        self._handle.close()


class BlobStore:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, namespace: str, date_partition: str, name: str) -> Path:
        if not _NAME_RE.match(namespace or ""):
            raise ConfigError(f"invalid blob namespace {namespace!r}")
        if not _DATE_RE.match(date_partition or ""):
            raise ConfigError(f"invalid date partition {date_partition!r}, want YYYY-MM-DD")
        if not _NAME_RE.match(name or ""):
            raise ConfigError(f"invalid blob name {name!r}")
        return self.root / namespace / date_partition / name

    def put_blob(self, namespace: str, date_partition: str, name: str, data: bytes) -> None:
        path = self._path(namespace, date_partition, name)
        if not isinstance(data, bytes):
            raise ConfigError("blob data must be bytes")
        path.parent.mkdir(parents=True, exist_ok=True)
        replace_file(path, data)

    def get_blob(self, namespace: str, date_partition: str, name: str) -> bytes:
        path = self._path(namespace, date_partition, name)
        if not path.exists():
            raise NotFoundError(f"no blob {namespace}/{date_partition}/{name}")
        return path.read_bytes()


# ---------------------------------------------------------------------------
# columns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Categories:
    """A string column: ``codes`` index ``vocabulary``, the distinct values
    the column holds, sorted."""

    codes: np.ndarray
    vocabulary: tuple[str, ...]

    @classmethod
    def of(cls, values) -> "Categories":
        vocabulary = tuple(sorted(set(values)))
        index = {value: code for code, value in enumerate(vocabulary)}
        codes = np.fromiter(map(index.__getitem__, values), dtype=_CODES, count=len(values))
        return cls(codes, vocabulary)


def _categories(codes: np.ndarray, vocabulary) -> Categories:
    """``codes`` into ``vocabulary``, less the values no code uses."""
    used = np.bincount(codes, minlength=len(vocabulary)) > 0
    if used.all():
        return Categories(codes, tuple(vocabulary))
    renumber = (np.cumsum(used) - 1).astype(_CODES)
    return Categories(renumber[codes], tuple(v for v, u in zip(vocabulary, used) if u))


@dataclass(frozen=True)
class RowType:
    """How a table's rows read as columns: ``decode`` turns one stored row
    into a tuple of values in ``columns`` order, each ``(name, kind)`` with
    kind "int" (within int64), "float", "bool" or "str". A malformed row
    raises one of MALFORMED."""

    columns: tuple[tuple[str, str], ...]
    decode: Callable[[dict], tuple]


def to_columns(row_type: RowType, rows) -> dict:
    """Decoded ``rows`` as one column per field of ``row_type``: an array,
    or Categories for a string column. An int out of the int64 range
    raises OverflowError."""
    fields = list(zip(*rows)) if rows else [()] * len(row_type.columns)
    return {
        name: Categories.of(values) if kind == "str" else np.array(values, dtype=_DTYPES[kind])
        for (name, kind), values in zip(row_type.columns, fields)
    }


def _overlay(row_type: RowType, key: str, base: dict | None, newer: dict) -> dict:
    """``base``, columns sorted by their unique int ``key``, with ``newer``,
    decoded rows by their int key, replacing or joining its rows; the
    result sorted by key as well."""
    top = to_columns(row_type, [newer[k] for k in sorted(newer)])
    if base is None:
        return top
    kept = ~np.isin(base[key], top[key])
    order = np.argsort(np.concatenate([base[key][kept], top[key]]), kind="stable")
    merged = {}
    for name, kind in row_type.columns:
        old, new = base[name], top[name]
        if kind != "str":
            merged[name] = np.concatenate([old[kept], new])[order]
            continue
        vocabulary = sorted(set(old.vocabulary) | set(new.vocabulary))
        index = {value: code for code, value in enumerate(vocabulary)}
        renumber = [np.array([index[v] for v in c.vocabulary], dtype=_CODES) for c in (old, new)]
        codes = np.concatenate([renumber[0][old.codes[kept]], renumber[1][new.codes]])[order]
        merged[name] = _categories(codes, vocabulary)
    return merged


@dataclass(frozen=True)
class _Compaction:
    """An adopted compaction: the fold of the journal's ``prefix``."""

    columns: dict
    prefix: Prefix


def _read_compaction(path: Path, row_type: RowType, key: str) -> tuple[dict, int, int]:
    """A compaction file's columns, covered length and CRC; raises if the
    file is missing or fails a check of its own."""
    raw = path.read_bytes()
    # every member's CRC is checked before numpy parses a byte of it
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        if archive.testzip() is not None:
            raise DataError("a member fails its CRC")
    with np.load(io.BytesIO(raw), allow_pickle=False) as npz:
        header = json.loads(npz["header"].tobytes())
        arrays = {name: npz["column." + name] for name, _ in row_type.columns}
    if header["format"] != COMPACTION_FORMAT or header["key"] != key:
        raise DataError("another format or key")
    if header["columns"] != [list(column) for column in row_type.columns]:
        raise DataError("other columns")
    rows, length, crc = header["rows"], header["length"], header["crc32"]
    if not all(type(v) is int and v >= 0 for v in (rows, length, crc)):
        raise DataError("bad header")
    columns = {}
    for name, kind in row_type.columns:
        array = arrays[name]
        if array.shape != (rows,) or array.dtype != _DTYPES.get(kind, _CODES):
            raise DataError(f"column {name} has another shape or type")
        if kind == "str":
            vocabulary = header["vocabularies"][name]
            if not all(type(v) is str for v in vocabulary):
                raise DataError(f"column {name} has a value that is not a string")
            if any(a >= b for a, b in zip(vocabulary, vocabulary[1:])):
                raise DataError(f"column {name} has an unsorted vocabulary")
            if rows and not 0 <= array.min() <= array.max() < len(vocabulary):
                raise DataError(f"column {name} has a code outside its vocabulary")
            array = Categories(array, tuple(vocabulary))
        columns[name] = array
    keys = columns[key]
    if not isinstance(keys, np.ndarray) or keys.dtype != _DTYPES["int"]:
        raise DataError("key column is not int")
    if np.any(keys[1:] <= keys[:-1]):
        raise DataError("keys are not strictly increasing")
    return columns, length, crc


def _write_compaction(path: Path, row_type: RowType, key: str, compaction: _Compaction) -> None:
    arrays, vocabularies = {}, {}
    for name, kind in row_type.columns:
        column = compaction.columns[name]
        if kind == "str":
            vocabularies[name] = list(column.vocabulary)
            column = column.codes
        arrays["column." + name] = column.astype(_DTYPES.get(kind, _CODES), copy=False)
    header = {
        "format": COMPACTION_FORMAT,
        "key": key,
        "columns": [list(column) for column in row_type.columns],
        "rows": len(arrays["column." + key]),
        "length": compaction.prefix.length,
        "crc32": compaction.prefix.crc,
        "vocabularies": vocabularies,
    }
    buffer = io.BytesIO()
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    np.savez(buffer, header=np.frombuffer(text, dtype=np.uint8), **arrays)
    replace_file(path, buffer.getvalue())


@dataclass
class _Held:
    """The rows this store appended to a journal in one run of bytes,
    ``start`` to ``end``, past its compaction: their decoded values, or
    None once a call came without them or they cannot be compacted."""

    start: int
    end: int
    values: list | None
    base: _Compaction | None = None  # the compaction adopted when the run began
    older: int = 0  # journal lines between that compaction and ``start``


class TableStore:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._tables: dict[str, str] = {}  # table name -> primary key
        self._row_types: dict[str, RowType] = {}
        self._journals: dict[str, JournalWriter] = {}
        self._held: dict[str, _Held] = {}
        self._load_existing()

    # -- persistence -----------------------------------------------------

    def _load_existing(self) -> None:
        for schema_path in sorted(self.root.glob("*/schema.json")):
            with reading(schema_path):
                meta = json.loads(schema_path.read_text())
                name, key = meta["name"], meta["key"]
                if name != schema_path.parent.name:
                    raise DataError(f"table name {name!r} is not its directory's name")
                if type(key) is not str:
                    raise DataError(f"table key {key!r} is not a string")
            self._tables[name] = key

    def close(self) -> None:
        for journal in self._journals.values():
            journal.close()
        self._journals.clear()
        self._held.clear()

    # -- tables ----------------------------------------------------------

    def create_table(self, name: str, key: str, row_type: RowType | None = None) -> None:
        """Declare table ``name`` keyed by ``key``, creating it if new; a
        ``row_type`` is kept for this store's column reads and compactions."""
        if not _NAME_RE.match(name or ""):
            raise ConfigError(f"invalid table name {name!r}")
        existing = self._tables.get(name)
        if existing is not None and existing != key:
            raise AlreadyExistsError(f"table {name!r} exists with key {existing!r}")
        if existing is None:
            directory = self.root / name
            directory.mkdir(parents=True, exist_ok=True)
            replace_file(
                directory / "schema.json", json.dumps({"name": name, "key": key}).encode("utf-8")
            )
            self._tables[name] = key
        if row_type is not None:
            self._row_types[name] = row_type

    def _require(self, name: str) -> str:
        """The primary key of table ``name``."""
        if name not in self._tables:
            raise NotFoundError(f"table {name!r} does not exist")
        return self._tables[name]

    def journal_path(self, name: str) -> Path:
        self._require(name)
        return self.root / name / "journal.jsonl"

    def upsert_rows(self, name: str, lines: list[str], values=None) -> int:
        """Insert or replace by primary key: append ``lines``, each one
        row's JSON object without its newline, as they are. ``values``, if
        given, holds each line's values as the table's RowType decodes
        them; they are kept to compact the table once COMPACT_ROWS rows lie
        past its compaction."""
        journal = self._journals.get(name)
        if journal is None:
            journal = JournalWriter(self.journal_path(name))
            self._journals[name] = journal
        start = journal.size()
        held = self._held.get(name)
        if held is None or held.end != start:  # a first append, or another writer's lines between
            held = self._held[name] = _Held(start, start, [])
            if values is not None and self._key_position(name) is not None:
                base = held.base = self._adopt(name)
                past = base.prefix.length if base else 0
                held.older = _lines_in(self.journal_path(name), past, start)
        journal.append("".join(line + "\n" for line in lines))
        held.end = journal.size()
        if held.values is None or values is None or self._key_position(name) is None:
            held.values = None
            return len(lines)
        held.values.extend(values)
        if held.older + len(held.values) >= COMPACT_ROWS:
            self._compact(name, held)
        return len(lines)

    def _key_position(self, name: str) -> int | None:
        """Where the key is among the table's RowType columns, if it has
        one here and the key is an int column: only then can it compact."""
        row_type = self._row_types.get(name)
        columns = row_type.columns if row_type else ()
        key = self._tables.get(name)
        return next((i for i, column in enumerate(columns) if column == (key, "int")), None)

    def _compact(self, name: str, held: _Held) -> None:
        """Replace the table's compaction with one over the journal's first
        ``held.end`` bytes: the adopted one, the older lines past it, then
        the held values; if any of them cannot be compacted, stop holding."""
        key, row_type = self._tables[name], self._row_types[name]
        position = self._key_position(name)
        journal = self.journal_path(name)
        base = held.base
        covered = base.prefix if base else Prefix()
        with open(journal, "rb") as fh:
            data = os.pread(fh.fileno(), held.end - covered.length, covered.length)
        try:
            if len(data) != held.end - covered.length:
                raise DataError(f"{journal} is shorter than its appended rows")
            older: dict = {}
            _decode_lines(
                io.BytesIO(data[: held.start - covered.length]), journal, covered.length,
                lambda row: older.__setitem__(row[key], row),
            )
            newer = {}
            for raw_key, row in older.items():
                decoded = row_type.decode(row)
                if type(raw_key) is not int or decoded[position] != raw_key:
                    raise DataError(f"row key {raw_key!r} is not its decoded int key")
                newer[raw_key] = decoded
            for decoded in held.values:
                if type(decoded[position]) is not int:
                    raise DataError(f"row key {decoded[position]!r} is not an int")
                newer[decoded[position]] = decoded
            columns = _overlay(row_type, key, base.columns if base else None, newer)
        except MALFORMED:
            held.values = None  # a row that does not decode never enters a compaction
            return
        compaction = _Compaction(columns, covered.extend(data))
        _write_compaction(self.root / name / COMPACTION_NAME, row_type, key, compaction)
        held.start, held.values, held.base, held.older = held.end, [], compaction, 0

    def _adopt(self, name: str) -> _Compaction | None:
        """The table's compaction, if it has a RowType here and every check
        of the compaction holds against the journal; otherwise None."""
        if self._key_position(name) is None:
            return None
        key, row_type = self._tables[name], self._row_types[name]
        try:
            path = self.root / name / COMPACTION_NAME
            columns, length, crc = _read_compaction(path, row_type, key)
            with open(self.journal_path(name), "rb") as fh:
                prefix = checked_prefix(fh.fileno(), length, crc)
        except Exception:
            # the compaction is a derived copy of the journal: whatever fails
            # in reading it (the zip and npy parsers raise many types on a
            # garbled file), the journal is folded instead
            return None
        return None if prefix is None else _Compaction(columns, prefix)

    def _fold(self, name: str, past: _Compaction | None = None) -> dict:
        """A table's rows by primary key, the last upsert of a key winning,
        from the journal's start or from the end of the compaction ``past``.
        Folding as each line is read makes a keyless row name ``path:line``."""
        key = self._require(name)
        journal = self.journal_path(name)
        rows: dict = {}
        if journal.exists():
            start = past.prefix.length if past else 0
            read_journal(journal, lambda row: rows.__setitem__(row[key], row), start)
        return rows

    def query(self, name: str) -> list[dict]:
        """Every row of a table, sorted by primary key, folded from the
        whole journal; keys of more than one type cannot be sorted and
        raise DataError naming the journal."""
        rows = self._fold(name)
        with reading(self.journal_path(name)):
            return [rows[key] for key in sorted(rows)]

    def count(self, name: str) -> int:
        """How many keys the table holds, folded as columns folds them."""
        base = self._adopt(name)
        rows = self._fold(name, base)
        if base is None:
            return len(rows)
        return len(set(base.columns[self._tables[name]].tolist()).union(rows))

    def columns(self, name: str) -> dict:
        """Every row of a table as to_columns gives it, sorted by primary
        key: the compaction with the journal's lines past it folded on
        top, or, with no compaction or a tail key that is not an int, the
        rows of query. A row that wins its key and does not decode raises
        DataError naming the journal."""
        key, row_type = self._require(name), self._row_types[name]
        journal = self.journal_path(name)
        base = self._adopt(name)
        if base is not None:
            tail = self._fold(name, base)
            if all(type(k) is int for k in tail):
                position = self._key_position(name)
                with reading(journal):
                    newer = {k: row_type.decode(row) for k, row in tail.items()}
                    if all(newer[k][position] == k for k in newer):
                        return _overlay(row_type, key, base.columns, newer)
        rows = self.query(name)
        with reading(journal):
            return to_columns(row_type, [row_type.decode(row) for row in rows])
