"""Immutable column-oriented datasets and file ingestion.

A :class:`Dataset` is the unit of exchange between environments, transforms,
learners, and metrics: an ordered collection of named columns of equal
length. A column is its values: a read-only float64 array, or, for a trace
column, a tuple of such arrays (one trace per row). Datasets are frozen at
construction; every operation returns a new Dataset, so instances can be
shared freely between threads.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import numbers
import operator
from collections import Counter
from typing import Iterable, Mapping, Sequence

from ._numpy import np
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


class NonFiniteValue(PipelineError, ValueError):
    """A column or trace cell holds NaN or an infinity."""

    def __init__(self, column: str):
        super().__init__(f"column {column!r} holds NaN or an infinity")
        self.column = column


class TraceColumn(PipelineError, ValueError):
    """A trace column was given where float64 values are needed."""

    def __init__(self, column: str):
        super().__init__(f"column {column!r} holds traces, not float64 values")
        self.column = column


# A bool is neither an integer nor a number; numpy integer and float scalars are both; ``Infinity``
# and ``NaN`` are not numbers. ``transforms`` builds the setting checks on these two.
def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# Checks: each returns None for a valid value, else the message that refuses it; ``_check`` builds one
# from a predicate. The object that takes a value and ``validate_config`` apply the same check.
def _check(ok, message: str):
    return lambda value: None if ok(value) else message


_fraction = _check(lambda v: _is_number(v) and 0.0 < v < 1.0, "must be a number in (0, 1)")
_non_negative_int = _check(lambda v: _is_int(v) and v >= 0, "must be a non-negative integer")


def _setting(name: str, value, check):
    """``value``, an ``int`` if integral; ``ValueError(f"{name} {message}, got {value!r}")`` if refused."""
    if (message := check(value)) is not None:
        raise ValueError(f"{name} {message}, got {value!r}")
    return operator.index(value) if _is_int(value) else value


def _names(value, allow_empty: bool = False, unique: bool = False) -> str | None:
    """The one rule for column names, from file to wire. A column name is a non-empty ``str``; a name
    list is a list or tuple of them (never a bare string), non-empty unless ``allow_empty``, none twice
    if ``unique``. Its cost grows with the list, never with the rows: ``Dataset`` calls it on every build."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(n, str) for n in value):
        return "must be a list of column names"
    if not value and not allow_empty:
        return "must not be empty"
    if "" in value:
        return "must not hold an empty name"
    if unique and len(set(value)) < len(value):
        return f"repeated names: {_repeated(value)}"
    return None


def _repeated(names) -> list[str]:
    """The names that occur more than once in ``names``, sorted."""
    return sorted(name for name, count in Counter(names).items() if count > 1)


def _unwritable(values) -> bool:
    """Whether nothing can write to ``values``: an array read-only down its chain of bases."""
    while isinstance(values, np.ndarray):
        if values.flags.writeable:
            return False
        values = values.base
    return values is None or isinstance(values, bytes)


def _floats(values, name: str) -> np.ndarray:
    """A read-only float64 array of one scalar column or trace cell of column ``name``:
    a numeric numpy array, or a sequence of numbers or of booleans (never mixed). A Python
    int converts as ``float(int)`` does. Refuses NaN and the infinities. The values are
    copied unless nothing can write to them, as to a column taken from a Dataset: sharing
    those keeps a transform's output from allocating every column anew."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype.kind not in "biuf":
            raise ValueError(f"unsupported array dtype: {values.dtype}")
    else:
        # Built per call, not at import: no module reads ``np`` before its first use. bool is an int.
        number_types, bool_types = (int, float, np.integer, np.floating, np.bool_), (bool, np.bool_)
        booleans = len(values) > 0 and isinstance(values[0], bool_types)  # the first value decides
        for v in values:
            if not isinstance(v, number_types) or isinstance(v, bool_types) != booleans:
                raise ValueError(f"column values must be numbers, booleans, or numeric traces, got {v!r}")
    try:
        array = np.asarray(values, np.float64) if _unwritable(values) else np.array(values, np.float64)
    except OverflowError:
        raise ValueError("integer out of the float64 range") from None
    if array.ndim != 1:
        raise ValueError("columns and trace cells must be one-dimensional")
    if not np.isfinite(array).all():
        raise NonFiniteValue(name)
    array.setflags(write=False)
    return array


def _as_column(values, name: str):
    """Build column ``name``: numbers and booleans (as 0.0 and 1.0, never mixed with
    numbers) become a float64 array, sequences of them a tuple of such arrays (a trace
    column), with the same rule for each cell. An empty tuple is a trace column, as a
    Dataset stores one of zero rows; any other empty column is a float64 array."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        return _floats(values, name)
    if isinstance(values, tuple) and not values:
        return ()
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValueError(f"cannot build a column from {type(values).__name__}")

    items = list(values)
    if any(isinstance(v, (list, tuple, np.ndarray)) for v in items):
        if not all(isinstance(v, (list, tuple, np.ndarray)) for v in items):
            raise ValueError("cannot mix scalar and trace values in one column")
        return tuple(_floats(v, name) for v in items)
    return _floats(items, name)


def _equal_columns(a, b) -> bool:
    """Whether two columns hold the same bits; a trace column never equals a float64 column."""
    if isinstance(a, tuple) != isinstance(b, tuple) or len(a) != len(b):
        return False
    return all(map(np.array_equal, a, b)) if isinstance(a, tuple) else np.array_equal(a, b)


class Dataset:
    """Immutable table of named float64 columns (scalar or trace) of equal length.

    Every value is a finite float64: NaN and the infinities are refused when
    the Dataset is built, so no later stage needs to check for them.

    Args:
        columns: mapping of name to values, or a sequence of ``(name, values)``
            pairs. Values may be lists, tuples or numpy arrays; a sequence of
            sequences or arrays becomes a trace column. An empty column has no
            values to tell its kind, so its type does: an empty tuple, which
            is how :meth:`column` returns a trace column of zero rows, is a
            trace column, and an empty list or array is a float64 column.
        row_count: required only when ``columns`` is empty. It is stored as
            a Python ``int``, so a numpy integer serializes as one.

    Raises:
        NonFiniteValue: if a value is NaN or an infinity (a ``ValueError`` too).
        ValueError: ``column names: <message>`` unless the names are column
            names (non-empty strings), none twice, the rule :func:`_names`
            states; ``row_count must be a non-negative integer, got ...`` for
            a negative ``row_count``, a bool or a non-integer; on mismatched
            column lengths; or on values that do not form a supported column kind.
    """

    __slots__ = ("_names", "_columns", "_row_count")

    def __init__(
        self,
        columns: Mapping[str, object] | Sequence[tuple[str, object]] | None = None,
        row_count: int | None = None,
    ):
        if columns is None:
            columns = []
        if row_count is not None:
            row_count = _setting("row_count", row_count, _non_negative_int)
        pairs = list(columns.items()) if isinstance(columns, Mapping) else list(columns)
        if (problem := _names([name for name, _ in pairs], allow_empty=True, unique=True)) is not None:
            raise ValueError(f"column names: {problem}")
        built = {name: _as_column(values, name) for name, values in pairs}

        lengths = {len(c) for c in built.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns have differing lengths: {sorted(lengths)}")
        if lengths:
            inferred = lengths.pop()
            if row_count is not None and row_count != inferred:
                raise ValueError(f"row_count={row_count} does not match column length {inferred}")
            row_count = inferred
        elif row_count is None:
            row_count = 0

        self._names = tuple(built)
        self._columns = built
        self._row_count = row_count

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._names

    def column(self, name: str):
        """The values of a column: a read-only float64 array, or a tuple of them for traces."""
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownColumn(name) from None

    def floats(self, names: Iterable[str]) -> list[np.ndarray]:
        """The read-only float64 arrays of the named columns, in the given order.

        Raises:
            UnknownColumn: if any name is absent.
            TraceColumn: if a named column holds traces.
        """
        arrays = []
        for name in names:
            values = self.column(name)
            if isinstance(values, tuple):
                raise TraceColumn(name)
            arrays.append(values)
        return arrays

    def select(self, names: Sequence[str]) -> "Dataset":
        """Return a Dataset with exactly the named columns, in the given order.

        Raises:
            ValueError: ``column names: <message>`` unless ``names`` is a list
                or tuple of column names, none twice (:func:`_names`).
            UnknownColumn: if any name is absent.
        """
        if (problem := _names(names, allow_empty=True, unique=True)) is not None:
            raise ValueError(f"column names: {problem}")
        return self._pick(names)

    def _pick(self, names: Sequence[str]) -> "Dataset":
        """:meth:`select` without its name rule, for names already checked as distinct column names
        (an ``IoSpec``'s). An absent name still raises UnknownColumn, the first one in ``names``."""
        return _unchecked_dataset({name: self.column(name) for name in names}, self._row_count)

    def split(self, fraction: float) -> tuple["Dataset", "Dataset"]:
        """Split rows chronologically: the first part holds
        ``floor(fraction * row_count)`` leading rows, the second the rest.

        Raises:
            InvalidFraction: unless fraction is a number in (0, 1), the check of ``split_fraction``.
            TooFewRows: if the dataset has fewer than two rows.
        """
        if (problem := _fraction(fraction)) is not None:
            raise InvalidFraction(f"split fraction {problem}, got {fraction}")
        if self._row_count < 2:
            raise TooFewRows(f"need at least 2 rows to split, have {self._row_count}")
        head = math.floor(fraction * self._row_count)
        return self.slice_rows(0, head), self.slice_rows(head, self._row_count)

    def slice_rows(self, start: int, stop: int) -> "Dataset":
        """Rows ``start`` up to, not including, ``stop``: ``stop`` is clamped to ``row_count``,
        and ``start`` to ``stop``. A bound that is negative, a bool or not an integer raises ValueError;
        a numpy integer is taken as the Python ``int`` it equals."""
        if not (_is_int(start) and _is_int(stop) and start >= 0 and stop >= 0):
            raise ValueError(f"row bounds must be non-negative integers, got start={start!r}, stop={stop!r}")
        return self._row_range(operator.index(start), operator.index(stop))

    def _row_range(self, start: int, stop: int) -> "Dataset":
        """:meth:`slice_rows` without its bound checks, for bounds that are non-negative Python ints
        (a ``DatasetStream``'s cursor range). The bounds are clamped as in :meth:`slice_rows`."""
        stop = min(stop, self._row_count)
        start = min(start, stop)
        return _unchecked_dataset({n: v[start:stop] for n, v in self._columns.items()}, stop - start)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self._names != other._names or self._row_count != other._row_count:
            return False
        return all(_equal_columns(self._columns[n], other._columns[n]) for n in self._names)

    __hash__ = None  # mutable-looking value type; equality is by content

    def __repr__(self) -> str:
        cols = ", ".join(f"{n}: {'list[float64]' if isinstance(v, tuple) else 'float64'}"
                         for n, v in self._columns.items())
        return f"Dataset({self._row_count} rows; {cols})"


def _unchecked_dataset(columns: dict, row_count: int) -> Dataset:
    """A Dataset of ``columns``, a dict of name to column, with no check at all.

    **Contract.** The caller guarantees what :class:`Dataset` would check:
    every name is a non-empty ``str`` (distinct, as dict keys are), every
    column holds ``row_count`` rows, ``row_count`` is a Python ``int``, and
    every column is a column of a Dataset, an equal row range of one (a
    slice of a read-only array is read-only, and a slice of a trace tuple is
    a trace tuple), or a fresh one-dimensional float64 array the caller has
    checked finite and made read-only. Checking such a column again costs
    its rows and finds nothing.

    **Callers** (``tests/test_hygiene.py`` lets no module but this one and
    ``transforms.py`` name this function): :meth:`Dataset._pick`, which
    :meth:`Dataset.select` calls after its name rule and
    ``strategies._split_io`` calls on the names an ``IoSpec`` checked when
    it was built; :meth:`Dataset._row_range`, which :meth:`Dataset.slice_rows`
    calls after its bound checks and ``DatasetStream.next_batch`` calls on
    its own cursor range; ``SlidingWindow.apply``, whose names
    ``f"{name}_{step}"`` cannot repeat (the step, after the last ``_``, has
    no ``_``); and ``Standardize.apply``, which checks the columns it
    computes.
    """
    dataset = object.__new__(Dataset)
    dataset._names = tuple(columns)
    dataset._columns = columns
    dataset._row_count = row_count
    return dataset


# The fast path is a whitelist: np.loadtxt reads some cells float() refuses
# (e.g. '1.5\x1c' as 1.5), but none made only of these bytes.
_NUMERIC_BYTES = b"0123456789+-.eE\n"


def _load_numeric_csv(data: bytes):
    """``(names, values)`` of a plain numeric CSV via numpy's C parser, or None.

    ``values`` is an (n_rows, n_cols) array of finite float64. None means the
    file is not plain numeric text, does not parse into a rectangle matching
    its header, or holds a value beyond float64 (``1e400``); :func:`load_csv`
    then parses it with ``csv.reader`` + ``float()``, which accepts and refuses
    exactly what it always has. A file whose every ``\r`` starts a ``\r\n``
    (as :func:`write_csv` ends its rows) is read with ``\n`` ends, which
    ``csv.reader`` splits the same way.
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            return None
    head, _, body = data.partition(b"\n")
    if not body or body.startswith(b"\n") or b"\n\n" in body or body.translate(None, _NUMERIC_BYTES + b","):
        return None
    try:
        # dtype float64, no comment character, fields split at commas
        values = np.loadtxt(io.StringIO(body.decode("ascii")), np.float64, None, ",", ndmin=2)
        # strict: a quoted field left open at the end of the line (which
        # csv.reader would carry into the next line) raises instead.
        [names] = csv.reader(io.StringIO(head.decode("utf-8"), newline=""), strict=True)
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    if len(names) != values.shape[1] or not np.isfinite(values).all():
        return None
    return names, values


def _file_names(names: list[str]) -> None:
    """Raise ParseError, carrying ``column``, unless a file's column ``names`` (strings, as a file's
    names always are) keep the :func:`_names` rule: the empty name first, else the first repeated name."""
    if (problem := _names(names, allow_empty=True, unique=True)) is not None:
        raise ParseError(f"column names: {problem}", column="" if "" in names else _repeated(names)[0])


def _csv_dataset(names: list[str], values: np.ndarray) -> Dataset:
    """The Dataset of an (n_rows, n_cols) float64 array, column ``j`` named ``names[j]``.

    An empty or repeated name raises ParseError. The columns are the rows of one
    (n_cols, n_rows) block over an immutable ``bytes`` object: a Dataset
    shares them without a copy, and no array reachable from a column can be
    made writable.
    """
    _file_names(names)
    block = np.frombuffer(values.T.tobytes(), np.float64).reshape(values.shape[::-1])
    return Dataset(list(zip(names, block)))


def _parse_csv(data: bytes, path) -> Dataset:
    """The Dataset of CSV ``data``, a file's bytes without their byte-order mark,
    parsed afresh; ``path`` names the file in errors."""
    numeric = _load_numeric_csv(data)
    if numeric is not None:
        return _csv_dataset(*numeric)

    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    if not rows:
        raise EmptyFile(f"no rows in {path}")

    names = rows[0]
    for i, row in enumerate(rows):
        if len(row) != len(names):
            raise RaggedRows(f"row {i} has {len(row)} cells, expected {len(names)}")

    values = np.empty((len(rows) - 1, len(names)))
    for i, row in enumerate(rows[1:], start=1):
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                message = f"cell {cell!r} at row {i}, column {names[j]!r} is not a finite number"
                raise ParseError(message, row=i, column=names[j])
            values[i - 1, j] = value
    return _csv_dataset(names, values)


# The bytes and the Dataset of the last CSV load_csv parsed without error.
_last_csv: tuple[bytes, Dataset] | None = None


def load_csv(path) -> Dataset:
    """Load a CSV file into a Dataset of float64 columns.

    The file is UTF-8 text (a leading byte-order mark is skipped) in the
    layout :func:`write_csv` writes: a header row of column names, then
    comma-separated rows. Every cell must be a finite number; the file must
    be rectangular.

    Cells are read as ``float()`` reads them, after ``csv.reader`` has split
    the rows. A file whose data rows hold only digits, ``+-.eE``, commas and
    single ``\n`` or ``\r\n`` line ends (no blank line, lone carriage return
    or quote) is parsed by numpy's C parser instead, which reads exactly those
    files to the same columns; the accepted inputs and the errors are the
    same either way.

    The file is read on every call. If its bytes, byte-order mark skipped,
    equal those of the last file this process parsed without error, that
    parse's Dataset is returned, so two loads may return the same object.
    Only content is compared, never the path or the modification time, so
    an edited file is always parsed again. The process keeps that one
    entry: the last file's bytes and its float64 columns, until a file with
    other bytes parses. Nothing can write to a column, so a caller cannot
    change what a later load returns.

    Raises:
        FileNotFoundError: if the file does not exist.
        EmptyFile: if the file holds no rows at all.
        RaggedRows: if row widths differ.
        ParseError: for a cell that is not a finite number: text, NaN or a
            value beyond float64 such as ``1e400`` (carries ``row`` and ``column``),
            or ``column names: <message>`` for a header that breaks the column-name
            rule of :class:`Dataset`: an empty name or one named twice (carries
            ``column``).
    """
    global _last_csv
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    last = _last_csv  # read once: another thread may replace the entry
    if last is not None and last[0] == data:
        return last[1]
    dataset = _parse_csv(data, path)
    _last_csv = data, dataset
    return dataset


def write_csv(dataset: Dataset, path) -> None:
    """Write a Dataset to CSV: a header row of column names, then one
    comma-separated row per dataset row.

    Every value is written as ``repr(float(v))``, its shortest round-trippable
    decimal representation, so ``load_csv(write_csv(d))`` reproduces the
    columns bit-exactly. A trace column raises TraceColumn.
    """
    columns = [values.tolist() for values in dataset.floats(dataset.column_names)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.column_names)
        for i in range(dataset.row_count):
            writer.writerow([repr(col[i]) for col in columns])


def _json_column(name: str, values: list):
    try:
        return _as_column(values, name)
    except NonFiniteValue:
        raise
    except ValueError as exc:
        raise ParseError(f"column {name!r}: {exc}", column=name) from None


def _json_object(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key, of which ``json`` would keep the last, raises ParseError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        _file_names([key for key, _ in pairs])
    return obj


def load_json(path) -> Dataset:
    """Load a JSON file into a Dataset.

    Two shapes are accepted: an array of flat objects with identical key
    sets, or a single object mapping column names to equal-length arrays.
    Numbers and booleans (as 0.0 and 1.0) become float64 columns, and arrays
    nested inside a column become trace columns, each cell by the same rule:
    numbers, or booleans, never the two mixed. Every number must be finite.

    Raises:
        FileNotFoundError: if the file does not exist.
        ParseError: for malformed JSON, unsupported values or integers beyond
            float64; ``column names: <message>`` for keys that break the
            column-name rule of :class:`Dataset`: an empty key or one an object
            repeats (carries ``column``).
        NonFiniteValue: for ``NaN``, ``Infinity`` or a number beyond float64 (``1e400``).
        InconsistentKeys: when record objects disagree on their keys.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_json_object)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, bad UTF-8, too many digits, too deep
            raise ParseError(f"malformed JSON in {path}: {exc}") from None

    if isinstance(doc, list):
        if not all(isinstance(rec, dict) for rec in doc):
            raise ParseError("JSON array must contain objects")
        names = list(doc[0].keys()) if doc else []
        _file_names(names)
        reference = set(names)
        for i, rec in enumerate(doc):
            if set(rec.keys()) != reference:
                raise InconsistentKeys(f"object {i} keys {sorted(rec)} != {sorted(reference)}")
        columns = [(n, _json_column(n, [rec[n] for rec in doc])) for n in names]
        return Dataset(columns, row_count=len(doc))

    if isinstance(doc, dict):
        _file_names(list(doc))
        for name, values in doc.items():
            if not isinstance(values, list):
                raise ParseError(f"column {name!r} must be an array")
        lengths = {len(v) for v in doc.values()}
        if len(lengths) > 1:
            raise RaggedRows(f"JSON columns have differing lengths: {sorted(lengths)}")
        columns = [(n, _json_column(n, values)) for n, values in doc.items()]
        return Dataset(columns)

    raise ParseError("JSON root must be an array of objects or an object of arrays")
