"""Shared exception types.

The CLI maps these onto distinct exit codes: configuration problems,
I/O problems (plain OSError), and data problems are kept separate so
scripted callers can branch on the failure class.

A malformed stored document raises one of MALFORMED, and the reader that
opened it (``storage.read_journal`` or ``reading()``) reports it as a
DataError naming the file, and the line for a journal; the decoders of
stored documents carry no handlers of their own.
"""

import contextlib


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PipelineError):
    """Invalid configuration: bad weights, unknown keys, zero counts."""


class DataError(PipelineError):
    """Bad input data: parse failures, empty or undersized datasets."""


class DegenerateClassError(DataError):
    """A training set containing only one label class."""


class NotFoundError(PipelineError):
    """Topic, blob, table, or model version does not exist."""


class AlreadyExistsError(PipelineError):
    """Attempt to create a resource that already exists."""


class OffsetRangeError(PipelineError):
    """Commit offset beyond the end of a partition."""


class SchemaMismatchError(PipelineError):
    """Feature schema or model width does not match the data."""


class CorruptLogError(PipelineError):
    """Checksum mismatch inside an event-log segment."""


# What reading a malformed stored document raises: JSONDecodeError and
# UnicodeDecodeError are ValueErrors, a missing key or unknown version is
# a LookupError, a value of the wrong shape is a TypeError or an
# AttributeError, int() of an out-of-range number such as 1e400 is an
# ArithmeticError, nesting too deep for the JSON decoder is a
# RecursionError, and a field the reader checks itself is a DataError.
MALFORMED = (
    DataError, ValueError, LookupError, TypeError, AttributeError, ArithmeticError, RecursionError,
)


@contextlib.contextmanager
def reading(where):
    """Raise a failure to read a stored document inside the block as a
    DataError that names ``where``, the document's path."""
    try:
        yield
    except MALFORMED as exc:
        raise DataError(f"{where}: unreadable: {exc!r}") from exc
