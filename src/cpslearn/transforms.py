"""Fittable, chainable dataset-to-dataset transforms.

Transforms are pure: applying the same (fitted) transform to the same input
always yields the same output. Adaptive transforms (currently only
:class:`Standardize`) must be fitted before they can be applied.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Iterable, Sequence

import numpy as np

from .dataset import Dataset
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


# Checks of settings and of JSON values, kept in the lowest module that checks a setting (SlidingWindow):
# each returns None for a valid value, else the message that refuses it. A bool is neither an integer
# nor a number; numpy integer and float scalars are both; ``Infinity`` and ``NaN`` are not numbers.


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check(ok, message: str):
    return lambda value: None if ok(value) else message


_positive_int = _check(lambda v: _is_int(v) and v >= 1, "must be a positive integer")
_non_negative_int = _check(lambda v: _is_int(v) and v >= 0, "must be a non-negative integer")
_positive = _check(lambda v: _is_number(v) and v > 0, "must be a positive number")
# The same values as ``_positive``, worded as the library's ValueError words them: the tank's area,
# its step sizes and the incremental learner's regularization.
_positive_real = _check(lambda v: _is_number(v) and v > 0, "must be positive")
_number = _check(_is_number, "must be a number")


def _setting(name: str, value, check):
    """``value``, an ``int`` if integral; ``ValueError(f"{name} {message}, got {value!r}")`` if refused."""
    if (message := check(value)) is not None:
        raise ValueError(f"{name} {message}, got {value!r}")
    return operator.index(value) if _is_int(value) else value


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
        self.names = list(names)

    def apply(self, dataset: Dataset) -> Dataset:
        return dataset.select(self.names)


class SlidingWindow(Transform):
    """Pivot a time series so each output row holds ``window_size``
    consecutive input rows.

    For every input column ``c`` the output carries columns ``c_0`` ...
    ``c_{w-1}``, ordered step-major: all columns of step 0, then step 1, and
    so on. Output row ``i`` concatenates input rows ``i`` .. ``i + w - 1``.
    """

    def __init__(self, window_size: int):
        self.window_size = _setting("window_size", window_size, _positive_int)

    def apply(self, dataset: Dataset) -> Dataset:
        w = self.window_size
        n = dataset.row_count
        if n < w:
            raise WindowLargerThanData(f"window of {w} rows does not fit {n} data rows")
        out_rows = n - w + 1
        columns = [(f"{name}_{step}", dataset.column(name)[step : step + out_rows])
                   for step in range(w) for name in dataset.column_names]
        return Dataset(columns, row_count=out_rows)


class Explode(Transform):
    """Unnest trace columns: each trace element becomes its own row.

    All named columns must hold traces, and within any single row those
    traces must have equal length. Values of non-exploded columns repeat for
    every element; rows whose traces are empty vanish from the output.
    """

    def __init__(self, names: Sequence[str]):
        self.names = list(names)

    def apply(self, dataset: Dataset) -> Dataset:
        for name in self.names:
            if not isinstance(dataset.column(name), tuple):
                raise NotAListColumn(f"column {name!r} does not hold traces")
        if not self.names:
            return dataset

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
    :meth:`fit`; columns whose standard deviation falls below 1e-12 are
    flagged constant and map to zero on apply.
    """

    CONSTANT_EPS = 1e-12

    def __init__(self, names: Sequence[str]):
        self.names = list(names)
        self._stats: dict[str, tuple[float, float, bool]] | None = None

    def fit(self, dataset: Dataset) -> "Standardize":
        if dataset.row_count == 0:
            raise EmptyDataset("cannot fit standardization on an empty dataset")
        stats = {}
        for name, values in zip(self.names, dataset.floats(self.names)):
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises StatisticsOverflow below
                mean = float(np.mean(values))
                std = float(np.std(values))
            if not np.isfinite((mean, std)).all():
                raise StatisticsOverflow(f"column {name!r}: its mean or standard deviation overflows float64")
            stats[name] = (mean, std, std < self.CONSTANT_EPS)
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
                with np.errstate(over="ignore", invalid="ignore"):  # Dataset refuses inf, naming the column
                    columns[name] = (values - mean) / std
        return Dataset(columns, row_count=dataset.row_count)


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
