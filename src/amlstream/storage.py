"""File-backed blob and table stores, and the JSON-lines journal.

Every whole-file write (a blob, a table's schema.json, the event log's
topic.json and positions.json) goes through replace_file: a temp file is
written, fsynced and renamed over the target, so a reader, or a restart
after a crash, sees either the old bytes or the new bytes, never a mix.

BlobStore: named byte objects under namespace/date/name directories.

TableStore: keyed tables, each its schema.json (the table's name and
primary key) plus an append-only journal of upserts. A row is one JSON
object per line, written as its producer formatted it: ingest's lines
are the event log's payloads, and the stream appends its alert lines
straight to the alerts table's journal (journal_path). Types are not
checked on write; each record type's decoder checks them when a row is
read back. Opening reads only the schemas and no rows are held in
memory: a query or count folds the journal, the last upsert of a key
winning, so a replayed row counts once. A query returns a whole table
sorted by primary key, which keeps every downstream report
deterministic.

Every JSON-lines journal (the warehouse tables, the model registry, the
stream's dead-letter file) follows one rule. JournalWriter is its only
append side: each call appends one JSON object per line (write encodes
rows as sorted-key JSON, append takes lines already formatted) and is
flushed and fsynced before it returns. A final line without its newline
was torn by a crash mid-append; truncate_torn_tail cuts it, when a
writer opens the file and before read_journal parses it, so the next
append starts on a clean line. A bad line anywhere else is corruption
and raises DataError.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

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


def read_journal(path, decode) -> list:
    """The parsed lines of a JSON-lines journal, oldest first, each passed
    through ``decode``. A line that does not parse or decode raises
    DataError naming ``path:line``."""
    truncate_torn_tail(path)
    entries = []
    # surrogateescape hands undecodable bytes to json.loads, so they end
    # as a bad line (DataError), not a UnicodeDecodeError
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                entries.append(decode(entry))
            except MALFORMED as exc:
                raise DataError(f"{path}:{number}: bad journal line: {exc!r}") from exc
    return entries


class JournalWriter:
    """The append side of a JSON-lines journal: a torn tail is cut on
    open, and each write is flushed and fsynced before it returns."""

    def __init__(self, path):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        truncate_torn_tail(path)
        self._handle = open(path, "a", encoding="utf-8")

    def write(self, rows) -> None:
        self.append("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))

    def append(self, lines: str) -> None:
        """Append whole lines, each the JSON object of one row, already
        formatted; flushed and fsynced before it returns."""
        if not lines:
            return
        self._handle.write(lines)
        self._handle.flush()
        os.fsync(self._handle.fileno())

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


class TableStore:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._tables: dict[str, str] = {}  # table name -> primary key
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

    def create_table(self, name: str, key: str) -> None:
        if not _NAME_RE.match(name or ""):
            raise ConfigError(f"invalid table name {name!r}")
        existing = self._tables.get(name)
        if existing is not None:
            if existing == key:
                return  # idempotent re-declaration
            raise AlreadyExistsError(f"table {name!r} exists with key {existing!r}")
        directory = self.root / name
        directory.mkdir(parents=True, exist_ok=True)
        replace_file(
            directory / "schema.json", json.dumps({"name": name, "key": key}).encode("utf-8")
        )
        self._tables[name] = key

    def _require(self, name: str) -> str:
        """The primary key of table ``name``."""
        if name not in self._tables:
            raise NotFoundError(f"table {name!r} does not exist")
        return self._tables[name]

    def journal_path(self, name: str) -> Path:
        self._require(name)
        return self.root / name / "journal.jsonl"

    def upsert_rows(self, name: str, lines: list[str]) -> int:
        """Insert or replace by primary key: append ``lines``, each one
        row's JSON object without its newline, as they are."""
        journal = self._journals.get(name)
        if journal is None:
            journal = JournalWriter(self.journal_path(name))
            self._journals[name] = journal
        journal.append("".join(line + "\n" for line in lines))
        return len(lines)

    def _fold(self, name: str) -> dict:
        """A table's rows by primary key, the last upsert of a key winning.
        Folding as each line is read makes a keyless row name ``path:line``."""
        key = self._require(name)
        journal = self.journal_path(name)
        rows: dict = {}
        if journal.exists():
            read_journal(journal, lambda row: rows.__setitem__(row[key], row))
        return rows

    def query(self, name: str) -> list[dict]:
        """Every row of a table, sorted by primary key; keys of more than
        one type cannot be sorted and raise DataError naming the journal."""
        rows = self._fold(name)
        with reading(self.journal_path(name)):
            return [rows[key] for key in sorted(rows)]

    def count(self, name: str) -> int:
        return len(self._fold(name))
