"""Scalar regression and classification metrics.

Every metric works on float64 arrays. The regression sums run left to right
(``np.add.accumulate``) and squares go through C ``pow`` (``np.float_power``),
so every metric reproduces a straightforward reference loop over Python floats
bit for bit. A regression metric whose value is not finite raises
:class:`NonFiniteMetric`.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

import numpy as np

from .errors import PipelineError


class LengthMismatch(PipelineError):
    """Predicted and actual vectors differ in length."""


class EmptyInput(PipelineError):
    """Metrics are undefined on empty vectors."""


class ConstantActuals(PipelineError):
    """R2 is undefined: the actuals are constant and predictions differ."""


class NonBinaryValue(PipelineError):
    """Classification metrics require values in {0, 1}."""


class NonFiniteMetric(PipelineError):
    """A regression metric is not finite: an input is NaN or infinite, or errors or squares overflow."""


class MetricWarning(UserWarning):
    """Degenerate metric input handled by a documented convention."""


_LARGEST_BETA = math.sqrt(sys.float_info.max)  # the largest float whose square is finite


def _floats(values) -> np.ndarray:
    """``values`` as a 1-D float64 array; anything but such an array converts through ``float()``."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
        return values
    return np.array([float(v) for v in values], dtype=np.float64)


def _check(predicted, actual) -> tuple[np.ndarray, np.ndarray]:
    p, a = _floats(predicted), _floats(actual)
    if len(p) != len(a):
        raise LengthMismatch(f"{len(p)} predicted vs {len(a)} actual values")
    if not len(p):
        raise EmptyInput("metrics are undefined on empty inputs")
    return p, a


def _check_binary(predicted, actual) -> tuple[np.ndarray, np.ndarray]:
    p, a = _check(predicted, actual)
    values = np.concatenate((p, a))
    bad = np.flatnonzero((values != 0.0) & (values != 1.0))
    if len(bad):
        raise NonBinaryValue(f"expected 0 or 1, got {float(values[bad[0]])}")
    return p, a


def _sum(values: np.ndarray) -> float:
    """The sum of ``values`` added left to right, as a loop over Python floats adds them."""
    return float(np.add.accumulate(values)[-1])


def _square(values: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each value by C ``pow``, as a float's ``** 2``. Where that raises
    OverflowError, on a finite value whose square overflows, this raises FloatingPointError."""
    with np.errstate(over="raise"):
        return np.float_power(values, 2.0)


def _non_finite_cause(p: np.ndarray, a: np.ndarray) -> str:
    for check, cause in ((np.isnan, "an input is NaN"), (np.isinf, "an input is infinite")):
        if check(p).any() or check(a).any():
            return cause
    return "the errors overflow float64"


def _finite(metric):
    """``metric`` on the checked float64 arrays, raising NonFiniteMetric where its value
    is not finite.

    A square that overflows raises FloatingPointError (as a float's ``** 2``
    raises OverflowError) instead of giving inf; that too becomes NonFiniteMetric.
    """

    @functools.wraps(metric)
    def checked(predicted, actual) -> float:
        p, a = _check(predicted, actual)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are worded below
                value = metric(p, a)
        except FloatingPointError:
            raise NonFiniteMetric(f"{metric.__name__}: a squared error overflows float64") from None
        if not math.isfinite(value):
            raise NonFiniteMetric(f"{metric.__name__} is {value!r}: {_non_finite_cause(p, a)}")
        return value

    return checked


@_finite
def mae(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Mean absolute error."""
    return _sum(np.abs(predicted - actual)) / len(predicted)


@_finite
def mse(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Mean squared error."""
    return _sum(_square(predicted - actual)) / len(predicted)


@_finite
def max_error(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Largest absolute error."""
    return float(np.abs(predicted - actual).max())


@_finite
def r2(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Coefficient of determination.

    Constant actuals leave R2 undefined: returns 1.0 only when predictions
    match them exactly, otherwise raises ConstantActuals. Actuals that differ
    but whose squared deviations from their mean all underflow to 0 leave it
    undefined too, whatever the residuals: that raises NonFiniteMetric.
    """
    if (actual == actual[0]).all():
        if (predicted == actual).all():
            return 1.0
        raise ConstantActuals("actuals are constant; R2 is undefined")
    mean = _sum(actual) / len(actual)
    ss_res = _sum(_square(actual - predicted))
    ss_tot = _sum(_square(actual - mean))
    if ss_tot == 0.0:
        raise NonFiniteMetric("r2: the squared deviations of the actuals underflow to 0; R2 is undefined")
    return 1.0 - ss_res / ss_tot


def _confusion(p: np.ndarray, a: np.ndarray) -> tuple[int, int, int, int]:
    positive, actual = p == 1.0, a == 1.0
    tp = int(np.count_nonzero(positive & actual))
    fp = int(np.count_nonzero(positive)) - tp
    fn = int(np.count_nonzero(actual)) - tp
    return tp, fp, fn, len(p) - tp - fp - fn


def _share(hits: int, total: int, degenerate: str) -> float:
    """hits / total, or 0 with a MetricWarning saying ``degenerate`` when total is 0."""
    if total == 0:
        warnings.warn(degenerate, MetricWarning, stacklevel=3)
        return 0.0
    return hits / total


def accuracy(predicted, actual) -> float:
    """Fraction of exact matches."""
    p, a = _check_binary(predicted, actual)
    tp, fp, fn, tn = _confusion(p, a)
    return (tp + tn) / len(p)


def precision(predicted, actual) -> float:
    """tp / (tp + fp); 0 with a warning when nothing was predicted positive."""
    p, a = _check_binary(predicted, actual)
    tp, fp, _, _ = _confusion(p, a)
    return _share(tp, tp + fp, "no predicted positives; precision set to 0")


def recall(predicted, actual) -> float:
    """tp / (tp + fn); 0 with a warning when there are no actual positives."""
    p, a = _check_binary(predicted, actual)
    tp, _, fn, _ = _confusion(p, a)
    return _share(tp, tp + fn, "no actual positives; recall set to 0")


def f_beta(predicted, actual, beta: float = 1.0) -> float:
    """F-beta score; 0 when precision and recall are both 0.

    Raises:
        ValueError: unless ``0 < beta <= sqrt(DBL_MAX)``, so that ``beta**2`` is a finite float.
    """
    if not 0.0 < beta <= _LARGEST_BETA:  # False for NaN too
        raise ValueError(f"beta must be positive with a finite square, got {beta!r}")
    p, a = _check_binary(predicted, actual)
    tp, fp, fn, _ = _confusion(p, a)
    prec = _share(tp, tp + fp, "no predicted positives; precision set to 0")
    rec = _share(tp, tp + fn, "no actual positives; recall set to 0")
    if prec == 0.0 and rec == 0.0:
        return 0.0
    return (1.0 + beta**2) * prec * rec / (beta**2 * prec + rec)


REGISTRY = {
    "mae": mae,
    "mse": mse,
    "max_error": max_error,
    "r2": r2,
    "accuracy": accuracy,
    "precision": precision,
    "recall": recall,
    "f_beta": f_beta,
}


def get_metric(name: str):
    """Look up a metric by its registry name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown metric: {name!r} (known: {sorted(REGISTRY)})") from None
