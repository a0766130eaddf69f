"""Fittable, chainable dataset-to-dataset transforms.

Transforms are pure: applying the same (fitted) transform to the same input
always yields the same output. Adaptive transforms (currently only
:class:`Standardize`) must be fitted before they can be applied.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .dataset import Column, ColumnKind, Dataset, UnknownColumn
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
        if not isinstance(window_size, int) or window_size < 1:
            raise ValueError(f"window_size must be a positive integer, got {window_size}")
        self.window_size = window_size

    def apply(self, dataset: Dataset) -> Dataset:
        w = self.window_size
        n = dataset.row_count
        if n < w:
            raise WindowLargerThanData(f"window of {w} rows does not fit {n} data rows")
        out_rows = n - w + 1
        columns = []
        for step in range(w):
            for name in dataset.column_names:
                kind = dataset.column_kind(name)
                values = dataset.column(name)[step : step + out_rows]
                columns.append((f"{name}_{step}", Column(kind, values)))
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
            if dataset.column_kind(name) is not ColumnKind.LIST_FLOAT64:
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
            kind = dataset.column_kind(name)
            values = dataset.column(name)
            if name in exploded:
                flat = np.concatenate(values) if len(values) else np.empty(0, dtype=np.float64)
                columns.append((name, flat))
            elif kind is ColumnKind.LIST_FLOAT64:
                repeated = tuple(cell for cell, k in zip(values, counts) for _ in range(k))
                columns.append((name, Column(kind, repeated)))
            else:
                columns.append((name, np.repeat(values, counts)))
        # The arrays are new; Dataset locks them. NaN was checked when the input was built.
        return Dataset(columns, row_count=int(counts.sum()), allow_nan=True)


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
        for name in self.names:
            if dataset.column_kind(name) is not ColumnKind.FLOAT64:
                raise ValueError(f"column {name!r} is not float64")
            values = dataset.column(name)
            mean = float(np.mean(values))
            std = float(np.std(values))
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
        for name in self._stats:
            if name not in dataset.column_names:
                raise UnknownColumn(name)
        columns = []
        for name in dataset.column_names:
            kind = dataset.column_kind(name)
            values = dataset.column(name)
            if name in self._stats:
                mean, std, constant = self._stats[name]
                if constant:
                    scaled = np.zeros(len(values), dtype=np.float64)
                else:
                    scaled = (values - mean) / std
                columns.append((name, scaled))
            else:
                columns.append((name, Column(kind, values)))
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
