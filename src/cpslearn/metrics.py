"""Scalar regression and classification metrics, and the library's one sum rule.

Every metric works on float64 arrays. Every total in the library, here and in
``transforms`` and ``learners``, is one :func:`_fold_sum`, a pairwise order fixed
by the length alone, and every square is a multiply, ``v * v``, which IEEE 754
rounds correctly on every host; so every metric reproduces a pairwise loop over
Python floats bit for bit. A regression metric whose value is not finite raises
:class:`NonFiniteMetric`.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

from ._numpy import np
from .dataset import _is_number, _names
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


def _fold_sum(terms: np.ndarray) -> np.ndarray:
    """The sums of ``terms`` over its last axis, of length 1 or more, which it overwrites.

    While m > 1 terms are left, term ``i + ceil(m/2)`` is added onto term i for each
    ``i < floor(m/2)`` and the first ``ceil(m/2)`` terms are kept: a pairwise order fixed by the
    length alone, with a rounding error of at most ``ceil(log2 m) eps`` times the sum of magnitudes,
    against ``(m - 1) eps`` for left to right (Higham, SIAM J. Sci. Comput. 14(4), 1993).

    This is the library's one sum rule: the metrics, ``Standardize``'s statistics, the tree's
    leaf values and its overflow guard, and every dot product and column norm of the least-squares
    kernels add by it. Nothing calls ``np.sum``, ``np.mean``, ``np.var``, ``np.std`` or
    ``np.add.reduce``, whose order numpy picks from the memory layout, nor BLAS, so no total
    depends on the layout, the CPU's features or the BLAS kernel. The one exception is the split
    search's ``np.cumsum``: it needs every prefix sum, and a prefix sum is left to right by
    definition. The triangular solves and a linear model's prediction are recurrences over its
    coefficients, each in the ascending order its code states.
    """
    m = terms.shape[-1]
    while m > 1:
        half = m - m // 2
        terms[..., :m // 2] += terms[..., half:m]
        m = half
    return terms[..., 0]


def _non_finite_cause(p: np.ndarray, a: np.ndarray) -> str:
    for check, cause in ((np.isnan, "an input is NaN"), (np.isinf, "an input is infinite")):
        if check(p).any() or check(a).any():
            return cause
    return "the errors overflow float64"


def _finite(metric):
    """``metric`` on the checked float64 arrays, raising NonFiniteMetric where its value
    is not finite."""

    @functools.wraps(metric)
    def checked(predicted, actual) -> float:
        p, a = _check(predicted, actual)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are worded below
            value = metric(p, a)
        if not math.isfinite(value):
            raise NonFiniteMetric(f"{metric.__name__} is {value!r}: {_non_finite_cause(p, a)}")
        return value

    return checked


def _sum_of_squares(name: str, errors: np.ndarray) -> float:
    """The :func:`_fold_sum` of ``v * v`` over ``errors``.

    Raises:
        NonFiniteMetric: ``<name>: a squared error overflows float64`` where the square of a
            finite error is inf.
    """
    squares = errors * errors
    if (np.isinf(squares) & np.isfinite(errors)).any():
        raise NonFiniteMetric(f"{name}: a squared error overflows float64")
    return float(_fold_sum(squares))


@_finite
def mae(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Mean absolute error."""
    return float(_fold_sum(np.abs(predicted - actual))) / len(predicted)


@_finite
def mse(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Mean squared error."""
    return _sum_of_squares("mse", predicted - actual) / len(predicted)


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
    mean = float(_fold_sum(actual.copy())) / len(actual)  # a copy: actual is the caller's array
    ss_res = _sum_of_squares("r2", actual - predicted)
    ss_tot = _sum_of_squares("r2", actual - mean)
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
        ValueError: unless ``beta`` is a number (not a bool) with ``0 < beta <= sqrt(DBL_MAX)``,
            so that ``beta * beta`` is a finite float.
    """
    if not (_is_number(beta) and 0.0 < beta <= _LARGEST_BETA):
        raise ValueError(f"beta must be positive with a finite square, got {beta!r}")
    p, a = _check_binary(predicted, actual)
    tp, fp, fn, _ = _confusion(p, a)
    prec = _share(tp, tp + fp, "no predicted positives; precision set to 0")
    rec = _share(tp, tp + fn, "no actual positives; recall set to 0")
    if prec == 0.0 and rec == 0.0:
        return 0.0
    return (1.0 + beta * beta) * prec * rec / (beta * beta * prec + rec)


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


def _metric_problems(names) -> list[str]:
    """The problems of a metric list, which is a non-empty list or tuple of ``REGISTRY`` names, none twice."""
    if not isinstance(names, (list, tuple)) or not names:
        return ["must be a non-empty list of metric names"]
    unknown = [name for name in names if not isinstance(name, str) or name not in REGISTRY]
    if unknown:
        return [f"unknown metric {name!r} (known: {sorted(REGISTRY)})" for name in unknown]
    repeats = _names(names, unique=True)  # a list of strings, so only a repeat is refused
    return [repeats] if repeats else []


def get_metric(name: str):
    """Look up a metric by its registry name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown metric: {name!r} (known: {sorted(REGISTRY)})") from None
