"""Scalar regression and classification metrics.

All reductions accumulate left to right over plain floats, so every metric
reproduces a straightforward reference loop bit for bit. A regression metric
whose value is not finite raises :class:`NonFiniteMetric`.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

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
    """A regression metric is not finite: the errors or their squares overflow float64."""


class MetricWarning(UserWarning):
    """Degenerate metric input handled by a documented convention."""


_LARGEST_BETA = math.sqrt(sys.float_info.max)  # the largest float whose square is finite


def _check(predicted, actual) -> tuple[list[float], list[float]]:
    p = [float(v) for v in predicted]
    a = [float(v) for v in actual]
    if len(p) != len(a):
        raise LengthMismatch(f"{len(p)} predicted vs {len(a)} actual values")
    if not p:
        raise EmptyInput("metrics are undefined on empty inputs")
    return p, a


def _check_binary(predicted, actual) -> tuple[list[float], list[float]]:
    p, a = _check(predicted, actual)
    for v in p + a:
        if v != 0.0 and v != 1.0:
            raise NonBinaryValue(f"expected 0 or 1, got {v}")
    return p, a


def _finite(metric):
    """``metric``, raising NonFiniteMetric where its value is not finite.

    A float ``** 2`` that overflows raises OverflowError instead of giving
    inf; that too becomes NonFiniteMetric.
    """

    @functools.wraps(metric)
    def checked(predicted, actual) -> float:
        try:
            value = metric(predicted, actual)
        except OverflowError:
            raise NonFiniteMetric(f"{metric.__name__}: a squared error overflows float64") from None
        if not math.isfinite(value):
            raise NonFiniteMetric(f"{metric.__name__} is {value!r}: the errors overflow float64")
        return value

    return checked


@_finite
def mae(predicted, actual) -> float:
    """Mean absolute error."""
    p, a = _check(predicted, actual)
    total = 0.0
    for pi, ai in zip(p, a):
        total += abs(pi - ai)
    return total / len(p)


@_finite
def mse(predicted, actual) -> float:
    """Mean squared error."""
    p, a = _check(predicted, actual)
    total = 0.0
    for pi, ai in zip(p, a):
        total += (pi - ai) ** 2
    return total / len(p)


@_finite
def max_error(predicted, actual) -> float:
    """Largest absolute error."""
    p, a = _check(predicted, actual)
    worst = 0.0
    for pi, ai in zip(p, a):
        error = abs(pi - ai)
        if error > worst or error != error:  # a NaN error is kept: no later error compares above it
            worst = error
    return worst


@_finite
def r2(predicted, actual) -> float:
    """Coefficient of determination.

    Constant actuals leave R2 undefined: returns 1.0 only when predictions
    match them exactly, otherwise raises ConstantActuals.
    """
    p, a = _check(predicted, actual)
    if all(v == a[0] for v in a):
        if all(pi == ai for pi, ai in zip(p, a)):
            return 1.0
        raise ConstantActuals("actuals are constant; R2 is undefined")
    total = 0.0
    for ai in a:
        total += ai
    mean = total / len(a)
    ss_res = 0.0
    ss_tot = 0.0
    for pi, ai in zip(p, a):
        ss_res += (ai - pi) ** 2
        ss_tot += (ai - mean) ** 2
    return 1.0 - ss_res / ss_tot


def _confusion(p: list[float], a: list[float]) -> tuple[int, int, int, int]:
    tp = fp = fn = tn = 0
    for pi, ai in zip(p, a):
        if pi == 1.0 and ai == 1.0:
            tp += 1
        elif pi == 1.0:
            fp += 1
        elif ai == 1.0:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


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
