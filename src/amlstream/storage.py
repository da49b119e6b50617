"""File-backed blob and table stores, and the JSON-lines journal.

Every whole-file write (a blob, a table's schema.json, the event log's
topic.json and positions.json) goes through replace_file: a temp file is
written, fsynced and renamed over the target, so a reader, or a restart
after a crash, sees either the old bytes or the new bytes, never a mix.

BlobStore: named byte objects under namespace/date/name directories.

TableStore: keyed tables, each its schema.json plus an append-only
journal of upserts. Opening reads only the schemas and no rows are held
in memory: a query or count folds the journal, the last upsert of a key
winning. Upserts are idempotent per primary key and validated against
the declared column schema before anything is written, so a rejected
batch leaves the table untouched. A query returns a whole table sorted
by primary key, which keeps every downstream report deterministic. The
stream appends its alerts, unvalidated, straight to a table's journal
(journal_path); the fold counts a replayed alert once.

Every JSON-lines journal (the warehouse tables, the model registry, the
stream's dead-letter file) follows one rule. JournalWriter is its only
append side: each write appends one sorted-key JSON object per line and
is flushed and fsynced before it returns. A final line without its
newline was torn by a crash mid-append; truncate_torn_tail cuts it,
when a writer opens the file and before read_journal parses it, so the
next append starts on a clean line. A bad line anywhere else is
corruption and raises DataError.
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
    TableSchemaError,
    reading,
)

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_NAME_RE = re.compile(r"^[A-Za-z0-9._:-]+$")
_TAIL_CHUNK = 4096

# column type name -> accepted python types
_COLUMN_TYPES = {
    "int": (int,),
    "float": (int, float),  # ints upcast cleanly
    "str": (str,),
    "bool": (bool,),
}


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


def read_journal(path, decode=None) -> list:
    """The parsed lines of a JSON-lines journal, oldest first, each passed
    through ``decode`` when one is given. A line that does not parse or
    decode raises DataError naming ``path:line``."""
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
                entries.append(entry if decode is None else decode(entry))
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
        """Append whole lines, each the sorted-key JSON of one row, already
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


class _Table:
    def __init__(self, name: str, columns: dict[str, str], key: str, directory: Path):
        self.name = name
        self.columns = columns
        self.key = key
        self.journal = directory / "journal.jsonl"

    def validate_row(self, row: dict) -> None:
        if not isinstance(row, dict):
            raise TableSchemaError("", f"{self.name}: row must be a mapping")
        for col in row:
            if col not in self.columns:
                raise TableSchemaError(
                    col, f"{self.name}: unknown column {col!r}"
                )
        for col, type_name in self.columns.items():
            if col not in row or row[col] is None:
                if col == self.key:
                    raise TableSchemaError(
                        col, f"{self.name}: missing primary key column {col!r}"
                    )
                continue  # non-key columns may be absent/null
            accepted = _COLUMN_TYPES[type_name]
            value = row[col]
            if type_name in ("int", "float") and isinstance(value, bool):
                raise TableSchemaError(
                    col, f"{self.name}: column {col!r} expects {type_name}, got bool"
                )
            if not isinstance(value, accepted):
                raise TableSchemaError(
                    col,
                    f"{self.name}: column {col!r} expects {type_name}, "
                    f"got {type(value).__name__}",
                )


class TableStore:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._tables: dict[str, _Table] = {}
        self._journals: dict[str, JournalWriter] = {}
        self._load_existing()

    # -- persistence -----------------------------------------------------

    def _load_existing(self) -> None:
        for schema_path in sorted(self.root.glob("*/schema.json")):
            with reading(schema_path):
                meta = json.loads(schema_path.read_text())
                table = _Table(meta["name"], meta["columns"], meta["key"], schema_path.parent)
            self._tables[table.name] = table

    def close(self) -> None:
        for journal in self._journals.values():
            journal.close()
        self._journals.clear()

    # -- tables ----------------------------------------------------------

    def create_table(self, name: str, columns: dict[str, str], key: str) -> None:
        if not _NAME_RE.match(name or ""):
            raise ConfigError(f"invalid table name {name!r}")
        for col, type_name in columns.items():
            if type_name not in _COLUMN_TYPES:
                raise ConfigError(f"column {col!r} has unknown type {type_name!r}")
        if key not in columns:
            raise ConfigError(f"key column {key!r} is not declared")
        existing = self._tables.get(name)
        if existing is not None:
            if existing.columns == columns and existing.key == key:
                return  # idempotent re-declaration
            raise AlreadyExistsError(f"table {name!r} exists with a different schema")
        directory = self.root / name
        directory.mkdir(parents=True, exist_ok=True)
        replace_file(
            directory / "schema.json",
            json.dumps({"name": name, "columns": columns, "key": key}).encode("utf-8"),
        )
        self._tables[name] = _Table(name, columns, key, directory)

    def _require(self, name: str) -> _Table:
        if name not in self._tables:
            raise NotFoundError(f"table {name!r} does not exist")
        return self._tables[name]

    def journal_path(self, name: str) -> Path:
        return self._require(name).journal

    def upsert_rows(self, name: str, rows: list[dict]) -> int:
        """Insert or replace by primary key. All-or-nothing per call."""
        table = self._require(name)
        for row in rows:
            table.validate_row(row)
        journal = self._journals.get(name)
        if journal is None:
            journal = JournalWriter(table.journal)
            self._journals[name] = journal
        journal.write(rows)
        return len(rows)

    def _fold(self, name: str) -> dict:
        """A table's rows by primary key, the last upsert of a key winning.
        Folding as each line is read makes a keyless row name ``path:line``."""
        table = self._require(name)
        rows: dict = {}
        if table.journal.exists():
            read_journal(table.journal, lambda row: rows.__setitem__(row[table.key], row))
        return rows

    def query(self, name: str) -> list[dict]:
        """Every row of a table, sorted by primary key."""
        rows = self._fold(name)
        return [rows[key] for key in sorted(rows)]

    def count(self, name: str) -> int:
        return len(self._fold(name))
