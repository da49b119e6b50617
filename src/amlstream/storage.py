"""File-backed blob and table stores, and the JSON-lines journal.

Every whole-file write (a blob, a table's schema.json and compaction, the
event log's topic.json and index, and each rewrite of its positions.jsonl
to one line per group) goes through replace_file: a temp file is
written, fsynced and renamed over the target, so a reader, or a restart
after a crash, sees either the old bytes or the new bytes, never a mix.

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

A table's compaction is a chain of files beside its journal, each the
fold of a span of the journal's bytes as one column per field, one row
per key, sorted by the columns the RowType makes the key of (a string
column in the order of its values), each value as the RowType decodes
it. The base, ``columns.npz``, folds bytes 0 to ``L``; each run, named
``columns.<start>.npz`` by the byte it starts at, folds the bytes from
where the member before it ends to its own ``L``, and its header
records that start. Integer, float and boolean columns are NumPy
arrays; a string column is int32 codes, its sorted vocabulary kept in
the file's JSON header, since NumPy string arrays drop trailing NUL
characters; the header also carries the Prefix of the journal's first
``L`` bytes. Its own checks: format number, key and columns, start,
column lengths and types, codes within their vocabulary, key tuples
strictly increasing. A reader adopts the chain from byte 0, member by
member while each passes its own checks and one pass over the journal
finds each member's Prefix at its end, then merges the members (the
last row of a key winning); count and columns fold only the journal
lines past the chain, and a row past it whose stored key is not the
one its values form makes columns fold the whole journal. No read
writes a file.

upsert_rows only appends. Every writer then hands the rows it appended,
with their values, to appended, the one way into a compaction; the
chain's headers alone tell it where the chain ends and how many rows
each member holds. When the rows past the chain (the handed-over rows
and any older lines before them) are at least COMPACT_ROWS, they become
a run, merged into the run before it while that run holds fewer than
twice its rows, so that each run holds at least twice the rows of the
next and a table keeps a logarithmic number of files (the logarithmic
method of Bentley and Saxe, as size-tiered LSM-trees use it). When
those rows and the runs' are at least COMPACT_ROWS and at least the
base's, the adopted chain instead folds into a new base, so each base
rewrite at least doubles the rows it covers. A run extends the chain's
last Prefix over its own bytes, reading nothing before them; a base
rewrite adopts the chain first. Older lines are decoded, and one that
does not decode stops the write. The writer then removes every run no
chain reaches, such as one a crash left between a merge and its
removal.

Every JSON-lines journal (the warehouse tables, the model registry, the
stream's dead-letter file, the event log's consumer positions) follows
one rule. JournalWriter is its only append side: each call appends one
JSON object per line (write encodes rows as sorted-key JSON, append
takes lines already formatted, as bytes) and is flushed and fsynced
before it returns. A final line without its newline was torn by a crash
mid-append. Only a writer cuts it: JournalWriter calls truncate_torn_tail
when it opens the file, under the writing command's lock, so the next
append starts on a clean line. read_journal stops at the last newline
and writes nothing, so a reader never cuts a line a writer is appending.
A bad line anywhere else is corruption and raises DataError naming
``path:line``; a line that is not strict UTF-8 is a bad line. Each line
is parsed by _loads_line, which calls json's C scanner directly and
falls back to json.loads whenever the scan fails or stops short, so it
gives json.loads's values and errors with less overhead per line; txgen
reads log payloads and dataset lines through it too.
"""

from __future__ import annotations

import io
import json
import os
import re
import zipfile
import zlib
from dataclasses import dataclass
from operator import itemgetter
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
COMPACT_ROWS = 4096  # journal rows past the compaction that let a writer rewrite it
_DTYPES = {"int": np.dtype("<i8"), "float": np.dtype("<f8"), "bool": np.dtype("?")}
_CODES = np.dtype("<i4")
_KEY_KINDS = ("int", "str")  # the kinds a key column may have


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
    stream ``raw``, each parsed and passed through ``decode``, up to the
    last that ends in a newline; blank lines are skipped. The lines before
    a bad one are counted only to name it."""
    entries = []
    for number, line in enumerate(raw, start=1):
        if not line.endswith(b"\n"):
            break  # a torn tail, which only a writer cuts
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
    begins a line, oldest first, each passed through ``decode``, up to its
    last newline: a torn tail is left as it is. A line that does not parse
    or decode raises DataError naming ``path:line``."""
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
        self.append("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode("utf-8"))

    def append(self, data: bytes) -> int:
        """Append whole lines, each the JSON object of one row, already
        formatted as UTF-8 bytes; flushed and fsynced before it returns the
        bytes written."""
        if not data:
            return 0
        self._handle.write(data)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        return len(data)

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
    raises one of MALFORMED.

    ``key`` names the int or str columns a row's stored key is made of, and
    ``key_format`` the %-format that forms the stored key from their values;
    with no format the stored key is the one key column's value, and with
    no ``key`` the key column is the table's primary key itself."""

    columns: tuple[tuple[str, str], ...]
    decode: Callable[[dict], tuple]
    key: tuple[str, ...] = ()
    key_format: str | None = None


def to_columns(row_type: RowType, rows) -> dict:
    """Decoded ``rows`` as one column per field of ``row_type``: an array,
    or Categories for a string column. An int out of the int64 range
    raises OverflowError."""
    return field_columns(row_type, list(zip(*rows)) if rows else [()] * len(row_type.columns))


def field_columns(row_type: RowType, fields) -> dict:
    """``fields``, each the values of one column of ``row_type`` in its
    order (a string column's may be Categories already), as to_columns
    gives them."""
    return {
        name: values if isinstance(values, Categories)
        else Categories.of(values) if kind == "str"
        else np.array(values, dtype=_DTYPES[kind])
        for (name, kind), values in zip(row_type.columns, fields)
    }


def concat_columns(row_type: RowType, parts) -> dict:
    """``parts``, column sets of ``row_type`` as to_columns gives them, as
    one, their rows in the parts' order, string columns renumbered into the
    union of their vocabularies."""
    merged = {}
    for name, kind in row_type.columns:
        columns = [part[name] for part in parts]
        if kind != "str":
            merged[name] = np.concatenate(columns)
            continue
        vocabulary = sorted(set().union(*(c.vocabulary for c in columns)))
        index = {value: code for code, value in enumerate(vocabulary)}
        codes = [np.array([index[v] for v in c.vocabulary], dtype=_CODES)[c.codes] for c in columns]
        merged[name] = Categories(np.concatenate(codes), tuple(vocabulary))
    return merged


def _key_positions(row_type: RowType, key: str) -> tuple[int, ...] | None:
    """Where the columns the stored key of a table keyed by ``key`` is made
    of are among ``row_type``'s, if they are int or str columns that form
    it: only then can the table compact."""
    names = row_type.key or (key,)
    kinds = dict(row_type.columns)
    if any(kinds.get(name) not in _KEY_KINDS for name in names):
        return None
    if row_type.key_format is None and len(names) != 1:
        return None
    columns = [name for name, _ in row_type.columns]
    return tuple(columns.index(name) for name in names)


def _sort_key(column) -> np.ndarray:
    """A key column as an array in the order of its values: a string
    column's codes, its vocabulary being sorted."""
    return column.codes if isinstance(column, Categories) else column


def _below_next(keys) -> np.ndarray:
    """Whether each row's key tuple is below the next row's."""
    below = np.zeros(max(len(keys[0]) - 1, 0), dtype=bool)
    for k in reversed(keys):
        below = (k[:-1] < k[1:]) | ((k[:-1] == k[1:]) & below)
    return below


def _merge(row_type: RowType, positions, parts, one_per_key: bool = True) -> dict:
    """``parts``, column sets in the order their rows were appended, as one
    sorted by the key columns at ``positions``, string columns renumbered
    into the union of their vocabularies less the values no row kept uses.
    With ``one_per_key``, only the last row appended of each key tuple is
    kept."""
    merged = concat_columns(row_type, parts)
    keys = [_sort_key(merged[row_type.columns[p][0]]) for p in positions]
    order = np.lexsort(keys[::-1])  # a stable sort: equal keys stay in append order
    if one_per_key and len(order):  # sorted, a row below the next is its key's last
        order = order[np.append(_below_next([k[order] for k in keys]), True)]
    return {
        name: _categories(c.codes[order], c.vocabulary) if isinstance(c, Categories) else c[order]
        for name, c in merged.items()
    }


def _row_count(columns: dict) -> int:
    return len(_sort_key(next(iter(columns.values()))))


def _stored_keys(row_type: RowType, positions, columns) -> list:
    """The stored key each row of ``columns`` forms from its key columns."""
    parts = [
        list(map(c.vocabulary.__getitem__, c.codes.tolist())) if isinstance(c, Categories)
        else c.tolist()
        for c in (columns[row_type.columns[p][0]] for p in positions)
    ]
    if row_type.key_format is None:
        return parts[0]
    return [row_type.key_format % values for values in zip(*parts)]


def _forms_keys(row_type: RowType, positions, keys, rows) -> bool:
    """Whether each of ``keys`` is the stored key its decoded row forms."""
    if row_type.key_format is None:
        (p,) = positions
        return all(type(k) is type(row[p]) and k == row[p] for k, row in zip(keys, rows))
    form, get = row_type.key_format, itemgetter(*positions)
    return all(type(k) is str and k == form % get(row) for k, row in zip(keys, rows))


@dataclass(frozen=True)
class _Compaction:
    """A compaction's rows: the fold of the journal's bytes from ``start``
    to ``prefix.length``, where ``prefix`` ends."""

    columns: dict
    prefix: Prefix
    start: int = 0


def _run_name(start: int) -> str:
    """The file name of the compaction that starts at journal byte ``start``."""
    return COMPACTION_NAME if start == 0 else f"columns.{start}.npz"


_RUN_RE = re.compile(r"^columns\.(\d+)\.npz$")


@dataclass(frozen=True)
class _Member:
    """A member of a table's chain as its header names it."""

    start: int
    rows: int
    prefix: Prefix


def _spans(named: int, start: int, length: int) -> bool:
    """Whether a compaction whose header names ``named`` as its start and
    ``length`` as its end is the chain member at ``start``: it starts
    there and ends past it, the base alone being allowed to be empty."""
    return named == start and (length > start or length == start == 0)


def _header_member(path: Path, start: int) -> _Member | None:
    """The chain member the compaction file at ``path`` is, read from its
    header alone, if it names ``start`` and ends past it (the base may be
    empty); None if it is missing or does not read."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            header = json.loads(npz["header"].tobytes())
        values = header["rows"], header["length"], header["crc32"], header.get("start", 0)
    except Exception:
        return None  # adoption checks the rest, as it does for every compaction
    if not all(type(v) is int and v >= 0 for v in values):
        return None
    rows, length, crc, named = values
    return _Member(start, rows, Prefix(length, crc)) if _spans(named, start, length) else None


def _read_compaction(path: Path, row_type: RowType, key: str, start: int = 0) -> tuple[dict, int, int]:
    """A compaction file's columns, covered length and CRC; raises if the
    file is missing or fails a check of its own, ``start`` being the byte
    it must start at."""
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
    if not _spans(header.get("start", 0), start, length):
        raise DataError("another start")
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
    positions = _key_positions(row_type, key)
    if positions is None:
        raise DataError("the key is not formed from int or str columns")
    if not _below_next([_sort_key(columns[row_type.columns[p][0]]) for p in positions]).all():
        raise DataError("key tuples are not strictly increasing")
    return columns, length, crc


def _read_member(path: Path, start: int, row_type: RowType, key: str) -> _Compaction | None:
    """The compaction file at ``path`` as the chain member at ``start``;
    None if it is missing or fails a check of its own."""
    try:
        columns, length, crc = _read_compaction(path, row_type, key, start)
    except Exception:
        # a member is a derived copy of the journal: whatever fails in
        # reading it (the zip and npy parsers raise many types on a garbled
        # file), the journal past the members before it is folded instead
        return None
    return _Compaction(columns, Prefix(length, crc), start)


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
        "rows": len(arrays["column." + row_type.columns[0][0]]),
        "length": compaction.prefix.length,
        "crc32": compaction.prefix.crc,
        "vocabularies": vocabularies,
    }
    if compaction.start:
        header["start"] = compaction.start
    buffer = io.BytesIO()
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    np.savez(buffer, header=np.frombuffer(text, dtype=np.uint8), **arrays)
    replace_file(path, buffer.getvalue())


class TableStore:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._tables: dict[str, str] = {}  # table name -> primary key
        self._row_types: dict[str, RowType] = {}
        self._journals: dict[str, JournalWriter] = {}
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

    def _writer(self, name: str) -> JournalWriter:
        """This store's append side of the table's journal, opened (and so
        its torn tail cut) on first use."""
        journal = self._journals.get(name)
        if journal is None:
            journal = JournalWriter(self.journal_path(name))
            self._journals[name] = journal
        return journal

    def journal_end(self, name: str) -> int:
        """The byte the next upsert_rows of the table appends at: its
        journal's length once this store's writer has opened it."""
        self._writer(name)
        return self.journal_path(name).stat().st_size

    def upsert_rows(self, name: str, lines: list[bytes]) -> int:
        """Insert or replace by primary key: append ``lines``, each one
        row's JSON object as UTF-8 bytes without its newline, as they are;
        returns how many. The writer hands them over to appended to compact
        them."""
        journal = self._writer(name)
        if lines:
            journal.append(b"\n".join(lines) + b"\n")
        return len(lines)

    def appended(self, name: str, start: int, end: int, rows: int, columns) -> None:
        """Take over the ``rows`` rows a writer appended to the table's
        journal as its bytes ``start`` to ``end``; ``columns()`` returns
        their values as to_columns gives them, in the order they were
        appended. Nothing is done unless the journal ends at ``end``.

        The rows past the table's chain are these and the older lines
        before them; the chain's headers alone tell where it ends and how
        many rows each member holds. When those rows and the runs' are at
        least COMPACT_ROWS and at least the base's, the chain folds into a
        new base. Otherwise, when those rows are at least COMPACT_ROWS, they
        become a run, merged into the run before it while that run holds
        fewer than twice its rows. Only then is ``columns`` called."""
        journal = self.journal_path(name)
        if self._key_positions(name) is None or journal.stat().st_size != end:
            return
        chain = self._chain(name)
        covered = chain[-1].prefix if chain else Prefix()
        if covered.length > start:
            return
        past = rows + _lines_in(journal, covered.length, start)
        base_rows = chain[0].rows if chain else 0
        if past + sum(member.rows for member in chain[1:]) >= max(COMPACT_ROWS, base_rows):
            adopted = self._adopt(name)
            covered = adopted[-1].prefix if adopted else Prefix()
            base = self._compact(name, start, end, covered, adopted, columns())
            if base is not None:
                self._write(name, base, kept=())
        elif past >= COMPACT_ROWS:
            run = self._compact(name, start, end, covered, [], columns())
            runs = chain[1:]
            while run is not None and runs and runs[-1].rows < 2 * _row_count(run.columns):
                run = self._merged_into(name, runs.pop(), run)
            if run is not None:
                self._write(name, run, kept=runs)

    def _key_positions(self, name: str) -> tuple[int, ...] | None:
        """The key positions of the table's RowType, if it has one here."""
        row_type = self._row_types.get(name)
        return None if row_type is None else _key_positions(row_type, self._tables[name])

    def _chain(self, name: str, member=_header_member) -> list:
        """The table's chain: the base, then each run that starts where the
        member before it ends, each as ``member(path, start)`` reads it, as
        far as it reads one. By default each is read from its header alone."""
        chain, start = [], 0
        while (found := member(self.root / name / _run_name(start), start)) is not None:
            chain.append(found)
            if found.prefix.length == start:  # an empty base
                break
            start = found.prefix.length
        return chain

    def _compact(self, name: str, start: int, end: int, covered: Prefix, members, top: dict):
        """The compaction up to the journal's byte ``end`` of ``members``,
        the chain's members up to ``covered`` that it takes in, then the
        older lines past ``covered``, then the rows from ``start``, given as
        the columns ``top``. It starts where the first member does, or with
        none at ``covered``'s end; None if an older line cannot be
        compacted."""
        key, row_type = self._tables[name], self._row_types[name]
        positions = self._key_positions(name)
        journal = self.journal_path(name)
        with open(journal, "rb") as fh:
            data = os.pread(fh.fileno(), end - covered.length, covered.length)
        try:
            if len(data) != end - covered.length:
                raise DataError(f"{journal} is shorter than its appended rows")
            older: dict = {}
            _decode_lines(
                io.BytesIO(data[: start - covered.length]), journal, covered.length,
                lambda row: older.__setitem__(row[key], row),
            )
            decoded = [row_type.decode(row) for row in older.values()]
            if not _forms_keys(row_type, positions, older, decoded):
                raise DataError("a row's stored key is not the one its values form")
            parts = [*(member.columns for member in members), to_columns(row_type, decoded), top]
            columns = _merge(row_type, positions, parts)
        except MALFORMED:
            return None  # a row that does not decode never enters a compaction
        return _Compaction(columns, covered.extend(data), members[0].start if members else covered.length)

    def _merged_into(self, name: str, member: _Member, run: _Compaction) -> _Compaction | None:
        """``run`` merged into the run ``member`` before it, as one run from
        ``member``'s start; None if that run's file fails a check of its own
        or is not the member its header named, which leaves the next fold
        into the base to read the journal past it."""
        key, row_type = self._tables[name], self._row_types[name]
        older = _read_member(self.root / name / _run_name(member.start), member.start, row_type, key)
        if older is None or older.prefix != member.prefix:
            return None
        merged = _merge(row_type, self._key_positions(name), [older.columns, run.columns])
        return _Compaction(merged, run.prefix, member.start)

    def _write(self, name: str, compaction: _Compaction, kept) -> None:
        """Write ``compaction`` as the chain's last member after the runs
        ``kept``, then remove every other run, which no chain reaches."""
        key, row_type = self._tables[name], self._row_types[name]
        directory = self.root / name
        _write_compaction(directory / _run_name(compaction.start), row_type, key, compaction)
        keep = {member.start for member in kept} | {compaction.start}
        for path in directory.iterdir():
            match = _RUN_RE.match(path.name)
            if match and int(match.group(1)) not in keep:
                path.unlink(missing_ok=True)

    def _adopt(self, name: str) -> list[_Compaction]:
        """The table's chain as a reader adopts it, if the table has a
        RowType here: from byte 0, each member while it passes its own
        checks and the journal's bytes up to its end, read in one pass,
        have the CRC it records; empty if none does."""
        if self._key_positions(name) is None:
            return []
        key, row_type = self._tables[name], self._row_types[name]
        members = self._chain(name, lambda path, start: _read_member(path, start, row_type, key))
        adopted, prefix = [], Prefix()
        try:
            with open(self.journal_path(name), "rb") as fh:
                for member in members:
                    prefix = prefix.read_to(fh.fileno(), member.prefix.length)
                    if prefix != member.prefix:
                        break
                    adopted.append(member)
        except OSError:
            return []
        return adopted

    def _fold(self, name: str, start: int = 0) -> dict:
        """A table's rows by primary key, the last upsert of a key winning,
        from the journal's byte ``start``. Folding as each line is read
        makes a keyless row name ``path:line``."""
        key = self._require(name)
        journal = self.journal_path(name)
        rows: dict = {}
        if journal.exists():
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
        chain = self._adopt(name)
        rows = self._fold(name, chain[-1].prefix.length if chain else 0)
        keys = set(rows)
        for member in chain:
            keys.update(_stored_keys(self._row_types[name], self._key_positions(name), member.columns))
        return len(keys)

    def columns(self, name: str) -> dict:
        """Every row of a table as to_columns gives it, sorted by the
        columns its stored key is made of: the adopted chain's members
        merged, the last row of a key winning, with the journal's lines past
        the chain on top, or, with no chain or a row past it whose stored
        key is not the one its values form, the rows of query. A row that
        wins its key and does not decode raises DataError naming the
        journal."""
        key, row_type = self._require(name), self._row_types[name]
        journal = self.journal_path(name)
        positions = self._key_positions(name)
        chain = self._adopt(name)
        if chain:
            tail = self._fold(name, chain[-1].prefix.length)
            with reading(journal):
                newer = [row_type.decode(row) for row in tail.values()]
                if _forms_keys(row_type, positions, tail, newer):
                    parts = [*(member.columns for member in chain), to_columns(row_type, newer)]
                    return _merge(row_type, positions, parts)
        rows = self.query(name)
        with reading(journal):
            columns = to_columns(row_type, [row_type.decode(row) for row in rows])
        if positions is None:
            return columns
        return _merge(row_type, positions, [columns], one_per_key=False)
