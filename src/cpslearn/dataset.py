"""Immutable column-oriented datasets and file ingestion.

A :class:`Dataset` is the unit of exchange between environments, transforms,
learners, and metrics: an ordered collection of named, typed columns of equal
length. Datasets are frozen at construction; every operation returns a new
Dataset, so instances can be shared freely between threads.
"""

from __future__ import annotations

import codecs
import csv
import enum
import io
import json
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import PipelineError


class ParseError(PipelineError):
    """A cell or value could not be parsed into the expected type."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class RaggedRows(PipelineError):
    """Rows of a tabular source have differing widths or lengths."""


class EmptyFile(PipelineError):
    """The source file contains no data at all."""


class InconsistentKeys(PipelineError):
    """Objects in a JSON record array do not share the same key set."""


class UnknownColumn(PipelineError):
    """A referenced column name does not exist in the dataset."""

    def __init__(self, name: str):
        super().__init__(f"unknown column: {name!r}")
        self.name = name


class InvalidFraction(PipelineError):
    """A split fraction lies outside the open interval (0, 1)."""


class TooFewRows(PipelineError):
    """The dataset has too few rows for the requested operation."""


class ColumnKind(enum.Enum):
    """Value kind held by a column: a float64 per row, or a float64 trace per row."""

    FLOAT64 = "float64"
    LIST_FLOAT64 = "list[float64]"


class Column:
    """A typed, immutable column of values.

    ``FLOAT64`` stores a read-only float64 array; ``LIST_FLOAT64`` stores a
    tuple of read-only float64 arrays (one trace per row).
    """

    __slots__ = ("kind", "values")

    def __init__(self, kind: ColumnKind, values):
        self.kind = kind
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def row_slice(self, start: int, stop: int) -> "Column":
        return Column(self.kind, self.values[start:stop])

    def equals(self, other: "Column") -> bool:
        if self.kind is not other.kind or len(self) != len(other):
            return False
        if self.kind is ColumnKind.LIST_FLOAT64:
            return all(np.array_equal(a, b) for a, b in zip(self.values, other.values))
        return bool(np.array_equal(self.values, other.values))


_NUMBER_TYPES = (int, float, np.integer, np.floating, np.bool_)  # bool is an int


def _floats(values, allow_nan: bool) -> np.ndarray:
    """A new read-only one-dimensional float64 array of ``values``; a Python int
    converts as ``float(int)`` does. Refuses NaN unless ``allow_nan``."""
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError("integer out of the float64 range") from None
    if array.ndim != 1:
        raise ValueError("columns and trace cells must be one-dimensional")
    if not allow_nan and np.isnan(array).any():
        raise ValueError("NaN values are not permitted (pass allow_nan=True to accept them)")
    array.setflags(write=False)
    return array


def _number_floats(values, allow_nan: bool) -> np.ndarray:
    """The float64 array of one scalar column or trace cell: a numeric numpy
    array, or a sequence of numbers or of booleans (never mixed)."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype.kind not in "biuf":
            raise ValueError(f"unsupported array dtype: {values.dtype}")
        return _floats(values, allow_nan)
    booleans = {isinstance(v, (bool, np.bool_)) for v in values}  # {True, False}: a mix
    if len(booleans) > 1 or not all(isinstance(v, _NUMBER_TYPES) for v in values):
        raise ValueError("column values must be numbers, booleans, or numeric traces")
    return _floats(values, allow_nan)


def _as_column(values, allow_nan: bool = False) -> Column:
    """Build a Column: numbers and booleans (as 0.0 and 1.0, never mixed with numbers)
    become FLOAT64, sequences of them LIST_FLOAT64, with the same rule for each cell."""
    if isinstance(values, Column):
        return values
    if isinstance(values, np.ndarray) and values.dtype != object:
        return Column(ColumnKind.FLOAT64, _number_floats(values, allow_nan))
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValueError(f"cannot build a column from {type(values).__name__}")

    items = list(values)
    if any(isinstance(v, (list, tuple, np.ndarray)) for v in items):
        if not all(isinstance(v, (list, tuple, np.ndarray)) for v in items):
            raise ValueError("cannot mix scalar and trace values in one column")
        return Column(ColumnKind.LIST_FLOAT64, tuple(_number_floats(v, allow_nan) for v in items))
    return Column(ColumnKind.FLOAT64, _number_floats(items, allow_nan))


class Dataset:
    """Immutable table of named float64 columns (scalar or trace) of equal length.

    Args:
        columns: mapping of name to values, or a sequence of ``(name, values)``
            pairs. Values may be lists, numpy arrays, or existing
            :class:`Column` instances.
        row_count: required only when ``columns`` is empty.
        allow_nan: permit NaN entries in float columns.

    Raises:
        ValueError: on duplicate names, mismatched column lengths, or values
            that do not form a supported column kind.
    """

    __slots__ = ("_names", "_columns", "_row_count")

    def __init__(
        self,
        columns: Mapping[str, object] | Sequence[tuple[str, object]] | None = None,
        row_count: int | None = None,
        allow_nan: bool = False,
    ):
        if columns is None:
            columns = []
        pairs = list(columns.items()) if isinstance(columns, Mapping) else list(columns)
        names: list[str] = []
        built: dict[str, Column] = {}
        for name, values in pairs:
            if not isinstance(name, str):
                raise ValueError("column names must be strings")
            if name in built:
                raise ValueError(f"duplicate column name: {name!r}")
            column = _as_column(values, allow_nan=allow_nan)
            names.append(name)
            built[name] = column

        lengths = {len(c) for c in built.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns have differing lengths: {sorted(lengths)}")
        inferred = lengths.pop() if lengths else None
        if inferred is None:
            if row_count is None:
                row_count = 0
        elif row_count is None:
            row_count = inferred
        elif row_count != inferred:
            raise ValueError(f"row_count={row_count} does not match column length {inferred}")
        if row_count < 0:
            raise ValueError("row_count must be non-negative")

        self._names = tuple(names)
        self._columns = built
        self._row_count = row_count

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def schema(self) -> tuple[tuple[str, ColumnKind], ...]:
        """Ordered (name, kind) pairs describing the columns."""
        return tuple((n, self._columns[n].kind) for n in self._names)

    def _column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownColumn(name) from None

    def column(self, name: str):
        """Return the raw values of a column (read-only)."""
        return self._column(name).values

    def column_kind(self, name: str) -> ColumnKind:
        return self._column(name).kind

    def select(self, names: Iterable[str]) -> "Dataset":
        """Return a Dataset with exactly the named columns, in the given order.

        Raises:
            UnknownColumn: if any name is absent.
        """
        return Dataset([(n, self._column(n)) for n in names], row_count=self._row_count)

    def split(self, fraction: float) -> tuple["Dataset", "Dataset"]:
        """Split rows chronologically: the first part holds
        ``floor(fraction * row_count)`` leading rows, the second the rest.

        Raises:
            InvalidFraction: if fraction is outside (0, 1).
            TooFewRows: if the dataset has fewer than two rows.
        """
        if not (0.0 < fraction < 1.0):
            raise InvalidFraction(f"split fraction must be in (0, 1), got {fraction}")
        if self._row_count < 2:
            raise TooFewRows(f"need at least 2 rows to split, have {self._row_count}")
        head = math.floor(fraction * self._row_count)
        return self.slice_rows(0, head), self.slice_rows(head, self._row_count)

    def slice_rows(self, start: int, stop: int) -> "Dataset":
        stop = min(stop, self._row_count)
        start = min(start, stop)
        return Dataset(
            [(n, self._columns[n].row_slice(start, stop)) for n in self._names],
            row_count=stop - start,
        )

    @classmethod
    def concat(cls, parts: Sequence["Dataset"]) -> "Dataset":
        """Concatenate datasets row-wise; schemas must match exactly."""
        if not parts:
            raise ValueError("need at least one dataset to concatenate")
        first = parts[0]
        for other in parts[1:]:
            if other.schema != first.schema:
                raise ValueError("cannot concatenate datasets with differing schemas")
        columns = []
        for name in first.column_names:
            if first.column_kind(name) is ColumnKind.LIST_FLOAT64:
                cells = tuple(cell for p in parts for cell in p.column(name))
                columns.append((name, Column(ColumnKind.LIST_FLOAT64, cells)))
            else:
                columns.append((name, np.concatenate([p.column(name) for p in parts])))
        return cls(columns, row_count=sum(p.row_count for p in parts), allow_nan=True)

    def __len__(self) -> int:
        return self._row_count

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self._names != other._names or self._row_count != other._row_count:
            return False
        return all(self._columns[n].equals(other._columns[n]) for n in self._names)

    __hash__ = None  # mutable-looking value type; equality is by content

    def __repr__(self) -> str:
        cols = ", ".join(f"{n}: {self._columns[n].kind.value}" for n in self._names)
        return f"Dataset({self._row_count} rows; {cols})"


# The fast path is a whitelist: np.loadtxt reads some cells float() refuses
# (e.g. '1.5\x1c' as 1.5), but none made only of these bytes.
_NUMERIC_BYTES = b"0123456789+-.eE\n"


def _load_numeric_csv(data: bytes, has_header: bool, delimiter: str):
    """``(names, values)`` of a plain numeric CSV via numpy's C parser, or None.

    ``values`` is an (n_rows, n_cols) float64 array. None means the file is
    not plain numeric text or does not parse into a rectangle matching its
    header; :func:`load_csv` then parses it with ``csv.reader`` + ``float()``,
    which accepts and refuses exactly what it always has. A quote or
    carriage-return delimiter is special to ``csv.reader`` and never taken here.
    A file whose every ``\r`` starts a ``\r\n`` (as :func:`write_csv` ends its
    rows) is read with ``\n`` ends, which ``csv.reader`` splits the same way.
    """
    if (
        not isinstance(delimiter, str)
        or len(delimiter) != 1
        or not delimiter.isascii()
        or delimiter.encode() in _NUMERIC_BYTES + b'\r"'
    ):
        return None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            return None
    head, _, body = data.partition(b"\n") if has_header else (b"", b"", data)
    if (
        not body
        or body.startswith(b"\n")
        or b"\n\n" in body
        or body.translate(None, _NUMERIC_BYTES + delimiter.encode())
    ):
        return None
    try:
        values = np.loadtxt(
            io.StringIO(body.decode("ascii")),
            delimiter=delimiter,
            comments=None,
            dtype=np.float64,
            ndmin=2,
        )
        if not has_header:
            return [f"column_{i}" for i in range(values.shape[1])], values
        # strict: a quoted field left open at the end of the line (which
        # csv.reader would carry into the next line) raises instead.
        [names] = csv.reader(
            io.StringIO(head.decode("utf-8"), newline=""), delimiter=delimiter, strict=True
        )
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    return (names, values) if len(names) == values.shape[1] else None


def load_csv(
    path,
    has_header: bool = True,
    delimiter: str = ",",
    allow_nan: bool = False,
) -> Dataset:
    """Load a CSV file into a Dataset of float64 columns.

    Every cell must be numeric; the file must be rectangular. When
    ``has_header`` is false, columns are named ``column_0``, ``column_1``, ...
    The file is UTF-8 text; a leading byte-order mark is skipped.

    Cells are read as ``float()`` reads them, after ``csv.reader`` has split
    the rows. A file whose data rows hold only digits, ``+-.eE``, the
    delimiter and single ``\n`` or ``\r\n`` line ends (no blank line, lone
    carriage return or quote) is parsed by numpy's C parser instead, which reads
    exactly those files to the same columns; the accepted inputs and the errors
    are the same either way.

    Raises:
        FileNotFoundError: if the file does not exist.
        EmptyFile: if the file holds no rows at all.
        RaggedRows: if row widths differ.
        ParseError: for a non-numeric cell (carries ``row`` and ``column``).
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    numeric = _load_numeric_csv(data, has_header, delimiter)
    if numeric is not None:
        names, values = numeric
        return Dataset([(name, values[:, j]) for j, name in enumerate(names)], allow_nan=allow_nan)

    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline=""), delimiter=delimiter))
    if not rows:
        raise EmptyFile(f"no rows in {path}")

    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(f"row {i} has {len(row)} cells, expected {width}")

    if has_header:
        names = rows[0]
        data_rows = rows[1:]
        first_data_row = 1
    else:
        names = [f"column_{i}" for i in range(width)]
        data_rows = rows
        first_data_row = 0

    parsed = [np.empty(len(data_rows), dtype=np.float64) for _ in range(width)]
    for i, row in enumerate(data_rows):
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"non-numeric cell {cell!r} at row {i + first_data_row}, column {names[j]!r}",
                    row=i + first_data_row,
                    column=names[j],
                ) from None
            if math.isnan(value) and not allow_nan:
                raise ParseError(
                    f"NaN at row {i + first_data_row}, column {names[j]!r} (allow_nan=False)",
                    row=i + first_data_row,
                    column=names[j],
                )
            parsed[j][i] = value
    return Dataset(list(zip(names, parsed)), allow_nan=allow_nan)


def write_csv(dataset: Dataset, path, has_header: bool = True, delimiter: str = ",") -> None:
    """Write a Dataset to CSV.

    Every value is written as ``repr(float(v))``, its shortest round-trippable
    decimal representation, so ``load_csv(write_csv(d))`` reproduces the
    columns bit-exactly. Trace columns cannot be written to CSV.
    """
    for name, kind in dataset.schema:
        if kind is ColumnKind.LIST_FLOAT64:
            raise ValueError(f"cannot write trace column {name!r} to CSV")

    columns = [dataset.column(n).tolist() for n in dataset.column_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        if has_header:
            writer.writerow(dataset.column_names)
        for i in range(dataset.row_count):
            writer.writerow([repr(col[i]) for col in columns])


def _json_value_error(name: str, value) -> ParseError:
    return ParseError(f"unsupported JSON value {value!r} in column {name!r}", column=name)


def _json_column(name: str, values: list, allow_nan: bool) -> Column:
    for v in values:
        if v is None or isinstance(v, (str, dict)):
            raise _json_value_error(name, v)
        if isinstance(v, list) and any(not isinstance(e, (int, float)) or isinstance(e, bool) for e in v):
            raise _json_value_error(name, v)
    try:
        return _as_column(values, allow_nan=allow_nan)
    except ValueError as exc:
        raise ParseError(f"column {name!r}: {exc}", column=name) from None


def load_json(path, allow_nan: bool = False) -> Dataset:
    """Load a JSON file into a Dataset.

    Two shapes are accepted: an array of flat objects with identical key
    sets, or a single object mapping column names to equal-length arrays.
    Numbers and booleans (as 0.0 and 1.0) become float64 columns, and numeric
    arrays nested inside a column become trace columns.

    Raises:
        FileNotFoundError: if the file does not exist.
        ParseError: for malformed JSON, unsupported values or integers beyond float64.
        InconsistentKeys: when record objects disagree on their keys.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, bad UTF-8, too many digits, too deep
            raise ParseError(f"malformed JSON in {path}: {exc}") from None

    if isinstance(doc, list):
        if not all(isinstance(rec, dict) for rec in doc):
            raise ParseError("JSON array must contain objects")
        names = list(doc[0].keys()) if doc else []
        reference = set(names)
        for i, rec in enumerate(doc):
            if set(rec.keys()) != reference:
                raise InconsistentKeys(f"object {i} keys {sorted(rec)} != {sorted(reference)}")
        columns = [(n, _json_column(n, [rec[n] for rec in doc], allow_nan)) for n in names]
        return Dataset(columns, row_count=len(doc))

    if isinstance(doc, dict):
        for name, values in doc.items():
            if not isinstance(values, list):
                raise ParseError(f"column {name!r} must be an array")
        lengths = {len(v) for v in doc.values()}
        if len(lengths) > 1:
            raise RaggedRows(f"JSON columns have differing lengths: {sorted(lengths)}")
        columns = [(n, _json_column(n, values, allow_nan)) for n, values in doc.items()]
        return Dataset(columns)

    raise ParseError("JSON root must be an array of objects or an object of arrays")
