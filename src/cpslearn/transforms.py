"""Fittable, chainable dataset-to-dataset transforms.

Transforms are pure: applying the same (fitted) transform to the same input
always yields the same output. Adaptive transforms (currently only
:class:`Standardize`) must be fitted before they can be applied. ``Select`` takes a list or tuple
of distinct column names, ``Explode`` and ``Standardize`` a non-empty one, each by its config kind's check.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .dataset import Dataset, NonFiniteValue, _check, _is_int, _is_number, _names, _setting, _unchecked_dataset
from .errors import PipelineError


class NotAListColumn(PipelineError):
    """Explode was pointed at a column that holds scalars, not traces."""


class RaggedListLengths(PipelineError):
    """Within one row, the traces selected for exploding differ in length."""

    def __init__(self, row: int):
        super().__init__(f"trace lengths differ within row {row}")
        self.row = row


class WindowLargerThanData(PipelineError):
    """The sliding window is longer than the dataset."""


class NotFitted(PipelineError):
    """An adaptive transform was applied before being fitted."""


class EmptyDataset(PipelineError):
    """A transform that needs data was fitted on zero rows."""


class StatisticsOverflow(PipelineError):
    """The mean or standard deviation of a finite column overflows float64."""


# Checks of settings and of JSON values, built by ``dataset._check`` on ``dataset._is_int`` and
# ``_is_number``, which say which values are integers and numbers and live in ``dataset``, the lowest
# module that checks a value. ``_setting`` and ``_non_negative_int`` live there too: a Dataset's
# ``row_count`` is a setting.
_positive_int = _check(lambda v: _is_int(v) and v >= 1, "must be a positive integer")
_positive = _check(lambda v: _is_number(v) and v > 0, "must be a positive number")
_number = _check(_is_number, "must be a number")
_distinct_names = lambda value: _names(value, allow_empty=True, unique=True)  # Select's names
_column_name = _check(lambda v: _names([v]) is None, "must be a column name")


class Transform:
    """Base class: a Dataset -> Dataset mapping with an optional fit step."""

    def fit(self, dataset: Dataset) -> "Transform":
        """Fit on data; stateless transforms return self unchanged."""
        return self

    def apply(self, dataset: Dataset) -> Dataset:
        raise NotImplementedError


class Select(Transform):
    """Keep exactly the named columns, in the requested order."""

    def __init__(self, names: Sequence[str]):
        self.names = list(_setting("names", names, _distinct_names))

    def apply(self, dataset: Dataset) -> Dataset:
        return dataset.select(self.names)


class SlidingWindow(Transform):
    """Pivot a time series so each output row holds ``window_size``
    consecutive input rows.

    For every input column ``c`` the output carries columns ``c_0`` ...
    ``c_{w-1}``, ordered step-major: all columns of step 0, then step 1, and
    so on. Output row ``i`` concatenates input rows ``i`` .. ``i + w - 1``.
    Each output column is a row range of a checked input column, and no two
    ``(name, step)`` give one name, so the output is built unchecked.
    """

    def __init__(self, window_size: int):
        self.window_size = _setting("window_size", window_size, _positive_int)

    def apply(self, dataset: Dataset) -> Dataset:
        w = self.window_size
        n = dataset.row_count
        if n < w:
            raise WindowLargerThanData(f"window of {w} rows does not fit {n} data rows")
        out_rows = n - w + 1
        columns = {f"{name}_{step}": dataset.column(name)[step : step + out_rows]
                   for step in range(w) for name in dataset.column_names}
        return _unchecked_dataset(columns, out_rows)


class Explode(Transform):
    """Unnest trace columns: each trace element becomes its own row.

    All named columns must hold traces, and within any single row those
    traces must have equal length. Values of non-exploded columns repeat for
    every element; rows whose traces are empty vanish from the output.
    """

    def __init__(self, names: Sequence[str]):
        self.names = list(_setting("names", names, _names))

    def apply(self, dataset: Dataset) -> Dataset:
        for name in self.names:
            if not isinstance(dataset.column(name), tuple):
                raise NotAListColumn(f"column {name!r} does not hold traces")
        reference = dataset.column(self.names[0])
        counts = np.array([len(cell) for cell in reference], dtype=np.int64)
        for name in self.names[1:]:
            for row, cell in enumerate(dataset.column(name)):
                if len(cell) != counts[row]:
                    raise RaggedListLengths(row)

        exploded = set(self.names)
        columns = []
        for name in dataset.column_names:
            values = dataset.column(name)
            if name in exploded:
                flat = np.concatenate(values) if len(values) else np.empty(0, dtype=np.float64)
                columns.append((name, flat))
            elif isinstance(values, tuple):
                columns.append((name, tuple(cell for cell, k in zip(values, counts) for _ in range(k))))
            else:
                columns.append((name, np.repeat(values, counts)))
        return Dataset(columns, row_count=int(counts.sum()))


class Standardize(Transform):
    """Rescale float columns to zero mean and unit standard deviation.

    The statistics (population standard deviation, divisor N) are computed by
    :meth:`fit`. A column whose minimum equals its maximum is constant, with
    statistics ``(value, 0.0, True)`` and no standard deviation computed; so
    is one whose deviations all underflow when squared, with statistics
    ``(mean, 0.0, True)``. A constant column maps to zero on apply. No threshold
    enters the test, so a column scaled by a power of two standardizes to
    the same values, bit for bit, while the squares of its deviations stay
    normal. ``apply`` checks only the columns it computes: a value that
    overflows raises ``NonFiniteValue`` naming the first such column in the
    dataset's column order.
    """

    def __init__(self, names: Sequence[str]):
        self.names = list(_setting("names", names, _names))
        self._stats: dict[str, tuple[float, float, bool]] | None = None

    def fit(self, dataset: Dataset) -> "Standardize":
        if dataset.row_count == 0:
            raise EmptyDataset("cannot fit standardization on an empty dataset")
        stats = {}
        for name, values in zip(self.names, dataset.floats(self.names)):
            if values.min() == values.max():
                stats[name] = (float(values[0]), 0.0, True)
                continue
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises StatisticsOverflow below
                mean = float(np.mean(values))
                std = float(np.std(values))
            if not np.isfinite((mean, std)).all():
                raise StatisticsOverflow(f"column {name!r}: its mean or standard deviation overflows float64")
            stats[name] = (mean, std, std == 0.0)
        self._stats = stats
        return self

    @property
    def fitted_stats(self) -> dict[str, tuple[float, float, bool]]:
        """Per-column (mean, std, is_constant) after fitting."""
        if self._stats is None:
            raise NotFitted("standardize has not been fitted")
        return dict(self._stats)

    def apply(self, dataset: Dataset) -> Dataset:
        if self._stats is None:
            raise NotFitted("standardize must be fitted before it is applied")
        columns = {name: dataset.column(name) for name in dataset.column_names}
        for (name, (mean, std, constant)), values in zip(self._stats.items(), dataset.floats(self._stats)):
            if constant:
                columns[name] = np.zeros(len(values), dtype=np.float64)
            else:
                with np.errstate(over="ignore", invalid="ignore"):  # refused below, naming the column
                    columns[name] = (values - mean) / std
            columns[name].setflags(write=False)
        for name, values in columns.items():  # in column order, as the Dataset constructor checks
            if name in self._stats and not np.isfinite(values).all():
                raise NonFiniteValue(name)
        return _unchecked_dataset(columns, dataset.row_count)


class TransformChain(Transform):
    """Ordered sequence of transforms applied left to right."""

    def __init__(self, transforms: Iterable[Transform] = ()):
        self.transforms = list(transforms)

    def fit(self, dataset: Dataset) -> "TransformChain":
        """Fit members in order, feeding each the output of the previous."""
        current = dataset
        for transform in self.transforms:
            transform.fit(current)
            current = transform.apply(current)
        return self

    def apply(self, dataset: Dataset) -> Dataset:
        current = dataset
        for transform in self.transforms:
            current = transform.apply(current)
        return current
