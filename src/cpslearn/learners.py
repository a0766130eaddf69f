"""Trainable learners and the immutable models they produce.

A learner is a training algorithm; a model is its frozen output. Models
predict without any learner present and serialize to a versioned JSON
document, so a trained artifact can be shipped, reloaded, and used in a
process that never imports the training code.

Native implementations:

* :func:`fit_linear` / :class:`LinearRegressionLearner` -- ordinary least
  squares via a rank-revealing orthogonal decomposition.
* :func:`fit_tree` / :class:`RegressionTreeLearner` -- greedy binary
  regression tree minimizing weighted child variance.
* :class:`IncrementalLinearLearner` -- incremental least squares with a
  forgetting factor, in information form, solved by a BLAS-free Cholesky.
* :class:`EpsilonGreedyActiveLearner` -- an interactive policy over an action
  grid, with an :class:`IncrementalLinearLearner` as its one-step surrogate.
* ``LOCAL_KINDS`` -- the learner kinds a config builds: class, drive, and each
  setting's check (the one the learner applies) and default.
"""

from __future__ import annotations

import abc
import hashlib
import inspect
import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import strategies
from .dataset import Dataset
from .environments import ActionSpace, DatasetStream, OfflineEnvironment
from .errors import PipelineError
from .transforms import _check, _is_int, _is_number, _non_negative_int, _positive_int, _positive_real, _setting

MODEL_FORMAT_VERSION = 1
MODEL_FILE_SUFFIX = ".fcm.json"

_SPLIT_TIE_EPS = 1e-12
# The candidate cuts one pass of the split search scores: a node of n rows scores
# max(1, _BLOCK // n) features at once.
_BLOCK = 1 << 14

# The float64 bytes of Gram outer products that one pass over the incremental learner's queue may
# allocate: a design of width d queues at most _QUEUE_BYTES // (8 d^2) rows (an empty batch
# counts as one), or one larger batch. With the moments, the pass holds (d + 1) / d times that.
_QUEUE_BYTES = 1 << 20


class ShapeMismatch(PipelineError):
    """Inputs and outputs disagree in row count or column count."""


class SchemaMismatch(PipelineError):
    """Data columns do not match the schema a model or learner expects."""


class SingularDesign(PipelineError):
    """The least-squares design matrix is rank deficient.

    :func:`fit_linear` raises it instead of silently regularizing. The
    incremental learner raises it when its regularized Gram matrix is
    singular in float64, as when a tiny forgetting factor has forgotten the
    prior. Add rows, drop collinear columns, or raise the regularization.
    """


class TooFewSamples(PipelineError):
    """Not enough training rows for the requested tree configuration."""


class TargetsOverflow(PipelineError):
    """A sum over the training targets overflows float64."""


class TreeTooDeep(PipelineError):
    """The tree grew deeper than Python's recursion limit allows."""


class NeverUpdated(PipelineError):
    """Finalize was called on a learner that never saw any data."""


def _float_matrix(dataset: Dataset, columns: Sequence[str]) -> np.ndarray:
    """Stack float columns into an (n_rows, n_cols) design matrix; a trace column raises TraceColumn."""
    arrays = dataset.floats(columns)
    return np.column_stack(arrays) if arrays else np.empty((dataset.row_count, 0), dtype=np.float64)


def _training_columns(inputs: Dataset, outputs: Dataset) -> tuple[list[np.ndarray], np.ndarray]:
    """The read-only float input columns and target vector of one training pair, checked to match."""
    if len(outputs.column_names) != 1:
        raise ShapeMismatch(f"expected a single output column, got {len(outputs.column_names)}")
    (y,) = outputs.floats(outputs.column_names)
    if inputs.row_count != outputs.row_count:
        raise ShapeMismatch(f"{inputs.row_count} input rows vs {outputs.row_count} output rows")
    return inputs.floats(inputs.column_names), y


def _training_arrays(inputs: Dataset, outputs: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The float design matrix and target vector of one training pair, checked to match."""
    _, y = _training_columns(inputs, outputs)
    return _float_matrix(inputs, inputs.column_names), y


def _check_input_columns(inputs: Dataset, input_columns: tuple[str, ...]) -> None:
    """Raise SchemaMismatch unless ``inputs`` holds exactly ``input_columns``, in any order."""
    if set(inputs.column_names) != set(input_columns):
        raise SchemaMismatch(
            f"model expects columns {list(input_columns)}, got {list(inputs.column_names)}"
        )


class Model(abc.ABC):
    """A trained, immutable prediction artifact.

    Predictions are deterministic and side-effect free; concurrent predict
    calls are safe. ``input_columns`` and ``output_column`` form the schema
    contract checked on every call.
    """

    kind: str

    def __init__(self, input_columns: Sequence[str], output_column: str):
        self.input_columns = tuple(input_columns)
        self.output_column = output_column

    def predict(self, inputs: Dataset) -> Dataset:
        """Predict one value per input row, as a single-column Dataset.

        Raises:
            SchemaMismatch: if input columns differ from the trained schema.
            NonFiniteValue: if a prediction overflows float64.
        """
        _check_input_columns(inputs, self.input_columns)
        matrix = _float_matrix(inputs, self.input_columns)
        with np.errstate(over="ignore", invalid="ignore"):  # Dataset refuses inf and NaN, naming the column
            predictions = self._predict_matrix(matrix)
        return Dataset([(self.output_column, predictions)])

    @abc.abstractmethod
    def _predict_matrix(self, matrix: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _params(self) -> dict: ...

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "input_schema": list(self.input_columns),
            "output_schema": [self.output_column],
            "params": self._params(),
        }

    @property
    def model_id(self) -> str:
        """Deterministic content-based identifier."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return f"{self.kind}-{hashlib.sha256(canonical.encode()).hexdigest()[:12]}"


class LinearModel(Model):
    """Affine prediction: dot(weights, inputs) + intercept."""

    kind = "linear"

    def __init__(self, weights, intercept: float, input_columns: Sequence[str], output_column: str):
        super().__init__(input_columns, output_column)
        weights = np.array(weights, dtype=np.float64)  # a copy: callers may mutate theirs
        if weights.shape != (len(self.input_columns),):
            raise ShapeMismatch(
                f"{weights.shape[0] if weights.ndim else 0} weights for "
                f"{len(self.input_columns)} input columns"
            )
        weights.setflags(write=False)
        self.weights = weights
        self.intercept = float(intercept)

    def _predict_matrix(self, matrix: np.ndarray) -> np.ndarray:
        return matrix @ self.weights + self.intercept

    def _params(self) -> dict:
        return {"weights": self.weights.tolist(), "intercept": self.intercept}


@dataclass(frozen=True)
class TreeNode:
    """One node of a binary regression tree.

    Internal nodes route on ``feature <= threshold`` (left) versus greater
    (right); leaves carry the mean target of the training rows they hold.
    """

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float | None = None
    samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value, "samples": self.samples}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int, where: str = "params.root") -> "TreeNode":
        """Rebuild a subtree; a malformed node raises ValueError naming its path."""
        if "value" in d:
            value = _entry(d, "value", where, _is_number, "a number")
            samples = _entry(d, "samples", where, _is_int, "an integer")
            return cls(value=float(value), samples=samples)
        feature = _entry(d, "feature", where, lambda v: _is_int(v) and 0 <= v < n_features,
                         f"a column index below {n_features}")
        threshold = _entry(d, "threshold", where, _is_number, "a number")
        left = _entry(d, "left", where, _is_object, "an object")
        right = _entry(d, "right", where, _is_object, "an object")
        return cls(
            feature=feature,
            threshold=float(threshold),
            left=cls.from_dict(left, n_features, f"{where}.left"),
            right=cls.from_dict(right, n_features, f"{where}.right"),
        )


class RegressionTreeModel(Model):
    """A fitted binary regression tree."""

    kind = "regression_tree"

    def __init__(
        self,
        root: TreeNode,
        input_columns: Sequence[str],
        output_column: str,
        max_depth: int,
        min_samples_leaf: int,
    ):
        super().__init__(input_columns, output_column)
        self.root = root
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def _predict_matrix(self, matrix: np.ndarray) -> np.ndarray:
        out = np.empty(matrix.shape[0], dtype=np.float64)
        self._fill(self.root, matrix, np.arange(matrix.shape[0]), out)
        return out

    def _fill(self, node: TreeNode, matrix: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
        if node.is_leaf:
            out[rows] = node.value
            return
        mask = matrix[rows, node.feature] <= node.threshold
        self._fill(node.left, matrix, rows[mask], out)
        self._fill(node.right, matrix, rows[~mask], out)

    def _params(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "root": self.root.to_dict(),
        }


def fit_linear(inputs: Dataset, outputs: Dataset) -> LinearModel:
    """Fit ordinary least squares with an intercept.

    The solution minimizes squared error and is computed with a
    rank-revealing orthogonal decomposition; no silent regularization is
    applied.

    Raises:
        ShapeMismatch: if row counts differ or outputs are not one column.
        SingularDesign: if the design matrix (inputs plus intercept) is rank
            deficient, including the underdetermined case of fewer rows than
            coefficients, or if the solution overflows float64.
    """
    matrix, y = _training_arrays(inputs, outputs)
    design = np.column_stack([matrix, np.ones(inputs.row_count)])
    solution, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise SingularDesign(
            f"design matrix has rank {rank} < {design.shape[1]} coefficients"
        )
    if not (finite := np.isfinite(solution)).all():
        raise SingularDesign(
            f"{np.count_nonzero(~finite)} of {solution.size} coefficients are not finite: "
            "the solution overflows float64"
        )
    return LinearModel(
        solution[:-1], solution[-1], inputs.column_names, outputs.column_names[0]
    )


def _best_split(matrix: np.ndarray, y: np.ndarray, min_samples_leaf: int, orders: np.ndarray):
    """Exhaustive greedy split search: (score, feature, threshold), or None.

    ``orders`` is a (features, rows) array: row f holds the node's row
    indices into ``matrix`` and ``y`` in stable ascending order of feature f
    (:func:`_presort` gives it for every row). Candidates are midpoints
    between consecutive distinct sorted feature values; the score is the
    weighted child variance. Features are scanned in index order and each
    feature's candidates in ascending threshold order. A candidate replaces
    the incumbent only when its score is below the incumbent's by more than
    1e-12 (the first candidate seen is always taken), so ties resolve to the
    lowest feature index, then the lowest threshold. None means that no
    feature has two distinct values in the node.

    **Exact scores.** :func:`_scores` runs the elementwise operations of
    the scalar expression ``(n_l * max(0, s2_l/n_l - (s_l/n_l)**2) + n_r *
    max(0, ...)) / n`` in the same order, so each score is bit-identical to
    evaluating it one candidate at a time. Exact squares use
    ``np.float_power``, which calls the C library ``pow`` as a float64
    scalar's ``** 2`` does (an array's ``** 2`` is a multiply, and the two
    differ by one ulp for about one value in a thousand). No score is NaN:
    the clamp maps NaN to 0.0, and each score is a sum of non-negative terms.

    **Screen.** ``pow`` is paid only where it can matter. Every candidate is
    first screened: scored by :func:`_scores` with ``np.square``, a
    multiply, for each square. Let u = 2**-53, n < 2**30 the node's rows,
    and T a feature's sum of squared targets, assumed finite. Take one side
    of k rows, with a = s2/k and m = s/k as computed, and assume ``pow``
    within 1 ulp. The two squares differ by at most 3u m^2, and the two
    subtractions from a add at most u (a + m^2) each. The clamp does not
    widen the gap and leaves a value in [0, a]; the product by k adds
    2u k a. So the side's terms differ by at most 5u k m^2 + 4u k a, where
    k a <= (1 + u) s2 and k m^2 = s^2/k <= 1.1 s2 + T/100 (Cauchy-Schwarz,
    with the rounding of the cumulative sums, for n < 2**30). Over both
    sides that is at most 9.7u T, and the sum adds 2.1u T. After the
    division by n, which adds 2.1u T / n, the screened and exact scores
    differ by less than B = 16u T / n = 2**-49 T / n, plus at most
    2**-1070 from gradual underflow.

    A candidate survives the screen when its screened score is at most the
    least screened score before it in the scan plus the margin
    M = 2**-44 T / n + 2**-1000, with T the largest of the features scored
    together (the features' T agree to a relative 2n u). A candidate whose
    exact score is below every earlier exact score is, screened, below
    every earlier screened score plus 2 B, so it survives; M = 32 B is a
    slack of 16. If T overflows, M is infinite and every candidate survives.

    **Running minima.** Only a candidate whose exact score is below every
    earlier one can replace the incumbent. A candidate that replaced became
    the incumbent, and incumbents only decrease; one that did not was at
    least the incumbent of its time minus 1e-12, itself at least the current
    incumbent minus 1e-12. So a score at or above any earlier score, of any
    feature, never replaces. The survivors hold every strict running
    minimum of the scan, so the strict running minima of a block's
    survivors hold every candidate of the block that can replace. Those of
    them not below an earlier block's score lead these minima and, as just
    shown, sit at or above the incumbent minus 1e-12.

    **Tie rule.** These minima strictly decrease, so the ones below the
    incumbent minus 1e-12 are a suffix, found in one comparison. From its
    first, each minimum below the previous one minus 1e-12 replaces it; this
    run is found in one comparison too. Only the minima after the first step
    that does not replace go through the rule one at a time, as Python
    floats (``tolist``), whose subtraction and ``<`` are the same IEEE
    double operations as numpy's.

    **Blocks.** A node of n rows scores ``max(1, _BLOCK // n)`` features
    per pass: a small node in one pass, a large one feature by feature, so
    that the working set stays near ``_BLOCK`` cuts. The incumbent and the
    least screened score carry from block to block, and the threshold is
    formed once, for the winning cut.
    """
    p, n = orders.shape
    lo, hi = min_samples_leaf, n - min_samples_leaf + 1  # the cuts are lo, ..., hi - 1
    n_left = np.arange(lo, hi, dtype=np.float64)
    step = max(1, _BLOCK // n)
    best_score, winner = None, None  # a float, (feature, cut)
    screen_low = math.inf  # the least screened score so far
    for first in range(0, p, step):
        block = orders[first:first + step]
        b, c = len(block), hi - lo
        xs = matrix[block, np.arange(first, first + b)[:, np.newaxis]]
        valid = (xs[:, lo - 1:hi - 1] != xs[:, lo:hi]).ravel()
        del xs
        ys = y[block]
        sums = np.cumsum(ys, axis=1)  # sums[:, i - 1] is the sum of the first i sorted targets
        squares = np.cumsum(np.multiply(ys, ys, out=ys), axis=1)
        del ys

        # The screen, in one buffer led by the least screened score of earlier blocks.
        screened = np.empty(b * c + 1)
        screened[0] = screen_low
        _scores(sums[:, lo - 1:hi - 1], squares[:, lo - 1:hi - 1], sums[:, -1:], squares[:, -1:],
                n_left, n, np.square, screened[1:].reshape(b, c))
        np.copyto(screened[1:], np.inf, where=~valid)
        bound = np.minimum.accumulate(screened[:-1])  # the least screened score before each cut
        screen_low = min(float(bound[-1]), float(screened[-1]))
        bound += _screen_margin(float(squares[:, -1].max()), n)
        kept = np.flatnonzero(valid & (screened[1:] <= bound))
        del screened, bound, valid
        if not kept.size:
            continue

        # Exact scores of the survivors, and their strict running minima.
        feature, cut = np.divmod(kept, c)
        cut += lo
        scores = _scores(sums[feature, cut - 1], squares[feature, cut - 1], sums[feature, -1],
                         squares[feature, -1], cut, n, _pow_square, np.empty(kept.size))
        del feature, cut, sums, squares
        strict = np.empty(scores.size, dtype=bool)
        strict[0] = True
        np.less(scores[1:], np.minimum.accumulate(scores)[:-1], out=strict[1:])
        minima, at = scores[strict], kept[strict]

        # The tie rule on the strictly decreasing minima.
        if best_score is None:
            start = 0
        else:
            beats = np.flatnonzero(minima < best_score - _SPLIT_TIE_EPS)
            if not beats.size:
                continue
            start = int(beats[0])
        stops = np.flatnonzero(minima[start + 1:] >= minima[start:-1] - _SPLIT_TIE_EPS)
        last = start + int(stops[0]) if stops.size else minima.size - 1
        best_score = float(minima[last])
        for k, value in enumerate(minima[last + 1:].tolist(), last + 1):
            if value < best_score - _SPLIT_TIE_EPS:
                best_score, last = value, k
        f, j = divmod(int(at[last]), c)
        winner = (first + f, lo + j)
    if winner is None:
        return None
    feature, cut = winner
    low_row, high_row = orders[feature, cut - 1], orders[feature, cut]
    return best_score, feature, (matrix[low_row, feature] + matrix[high_row, feature]) / 2.0


def _scores(s, s2, total, total_sq, n_left, n, square, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the weighted child variance of each cut and return it.

    ``s`` and ``s2`` are the sums of the left child's targets and of their
    squares, ``total`` and ``total_sq`` the node's, and ``n_left`` the left
    child's rows, all broadcast against ``out``. The operations are those of
    ``(n_l * max(0, s2/n_l - square(s/n_l)) + n_r * max(0, ...)) / n`` in
    its order. ``np.fmax`` clamps as ``max(0.0, v)`` does: it maps NaN to
    0.0, and a variance is never -0.0 (``s2`` and the squares are +0.0 or
    more, and a difference of equal floats is +0.0).
    """
    n_right = n - n_left
    mean = np.divide(s, n_left)
    np.divide(s2, n_left, out=out)
    out -= square(mean, out=mean)
    np.fmax(out, 0.0, out=out)
    out *= n_left
    np.subtract(total, s, out=mean)
    mean /= n_right
    right = np.subtract(total_sq, s2)
    right /= n_right
    right -= square(mean, out=mean)
    np.fmax(right, 0.0, out=right)
    right *= n_right
    out += right
    out /= n
    return out


def _pow_square(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squares by the C library ``pow``, as a float64 scalar's ``** 2`` takes them."""
    return np.float_power(values, 2.0, out=out)


def _screen_margin(total_sq: float, n: int) -> float:
    """The margin M of :func:`_best_split`'s screen, for a node of ``n`` rows whose
    squared targets sum to ``total_sq``."""
    return 2.0**-44 * total_sq / n + 2.0**-1000


def _presort(matrix: np.ndarray) -> np.ndarray:
    """Each feature's stable argsort, as a (features, rows) array: row f lists the rows in
    ascending order of feature f."""
    return np.argsort(matrix.T, axis=1, kind="stable")


def _grow_tree(matrix, y, rows, orders, depth, max_depth, min_samples_leaf) -> TreeNode:
    """The subtree over ``rows``, ascending indices into ``matrix`` and ``y``.

    ``orders`` holds the same rows once per feature, in stable ascending order
    of that feature. A child filters its parent's rows and orders by the split
    mask; this keeps each child's rows in their original relative order, so
    the filtered order is exactly the child's own stable argsort.
    """
    node_y = y[rows]
    if depth >= max_depth or len(rows) < 2 * min_samples_leaf or np.var(node_y) == 0.0:
        return TreeNode(value=float(np.mean(node_y)), samples=len(rows))
    split = _best_split(matrix, y, min_samples_leaf, orders)
    if split is None:  # all features constant within this node
        return TreeNode(value=float(np.mean(node_y)), samples=len(rows))
    del node_y
    _, feature, threshold = split
    p = len(orders)
    mask = np.zeros(len(y), dtype=bool)
    mask[rows] = matrix[rows, feature] <= threshold
    left = _grow_tree(matrix, y, rows[mask[rows]], orders[mask[orders]].reshape(p, -1),
                      depth + 1, max_depth, min_samples_leaf)
    np.logical_not(mask, out=mask)
    right = _grow_tree(matrix, y, rows[mask[rows]], orders[mask[orders]].reshape(p, -1),
                       depth + 1, max_depth, min_samples_leaf)
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right)


def fit_tree(
    inputs: Dataset,
    outputs: Dataset,
    max_depth: int,
    min_samples_leaf: int = 1,
) -> RegressionTreeModel:
    """Fit a greedy binary regression tree.

    At each node the (feature, threshold) pair minimizing the weighted child
    variance is chosen; recursion stops at ``max_depth`` (0 yields a single
    leaf), on pure nodes, or when a child would fall below
    ``min_samples_leaf`` rows.

    Each feature is argsorted once per fit (``kind="stable"``), and every node
    searches its split in its share of these orders. This is exact: a child
    keeps its rows in their original relative order, so filtering the
    parent's order by the child's mask gives the child's own stable argsort,
    ties included (in row order; ``-0.0`` ties ``0.0``). A
    node's targets ``y[rows]`` stay in row order, so its variance and leaf
    mean are those of the rows it holds, summed in the same order.

    A node scores every candidate cut with a multiply for each square, and
    computes the exact score, with the C library ``pow``, only for the
    candidates that could still be a running minimum; the tie rule runs on
    those minima. :func:`_best_split` bounds the gap between the two scores
    and shows why this returns the same split, and so the same model bytes,
    as scoring every candidate exactly. No step calls BLAS, so the bytes do
    not depend on the CPU's kernel either.

    Raises:
        ValueError: ``max_depth must be a non-negative integer, got ...`` or
            ``min_samples_leaf must be a positive integer, got ...``.
        ShapeMismatch: if row counts differ or outputs are not one column.
        TooFewSamples: if fewer than ``2 * min_samples_leaf`` rows are given.
        TargetsOverflow: if the targets' sum overflows float64, or, when ``max_depth`` > 0,
            their sum of squares, which bounds every sum and variance of the split search.
        TreeTooDeep: if the tree grows deeper than Python's recursion limit
            allows; a smaller ``max_depth`` bounds it.
    """
    max_depth = _setting("max_depth", max_depth, _non_negative_int)
    min_samples_leaf = _setting("min_samples_leaf", min_samples_leaf, _positive_int)
    matrix, y = _training_arrays(inputs, outputs)
    if inputs.row_count < 2 * min_samples_leaf:
        raise TooFewSamples(
            f"{inputs.row_count} rows < 2 * min_samples_leaf = {2 * min_samples_leaf}"
        )
    with np.errstate(over="ignore"):  # a single leaf sums the targets; a split search squares them
        total = np.sum(y * y) if max_depth > 0 else np.sum(y)
    if not np.isfinite(total):
        raise TargetsOverflow(f"the targets in column {outputs.column_names[0]!r} are too large: "
                              "their sums overflow float64")
    rows = np.arange(inputs.row_count)
    try:
        root = _grow_tree(matrix, y, rows, _presort(matrix), 0, max_depth, min_samples_leaf)
    except RecursionError:
        raise TreeTooDeep(
            f"tree grew past Python's recursion limit at max_depth={max_depth}; "
            "use a smaller max_depth"
        ) from None
    return RegressionTreeModel(
        root, inputs.column_names, outputs.column_names[0], max_depth, min_samples_leaf
    )


class LinearRegressionLearner:
    """Offline learner wrapping :func:`fit_linear`."""

    def fit(self, inputs: Dataset, outputs: Dataset) -> LinearModel:
        return fit_linear(inputs, outputs)


class RegressionTreeLearner:
    """Offline learner wrapping :func:`fit_tree`.

    Raises:
        ValueError: when built, as :func:`fit_tree` for its settings.
    """

    def __init__(self, max_depth: int = 5, min_samples_leaf: int = 1):
        self.max_depth = _setting("max_depth", max_depth, _non_negative_int)
        self.min_samples_leaf = _setting("min_samples_leaf", min_samples_leaf, _positive_int)

    def fit(self, inputs: Dataset, outputs: Dataset) -> RegressionTreeModel:
        return fit_tree(inputs, outputs, self.max_depth, self.min_samples_leaf)


def _cholesky(gram: list) -> list:
    """The lower Cholesky factor of ``gram`` (a list of row lists), on Python floats.

    Reads the lower triangle of ``gram``. Every sum runs in ascending index
    order, so the factor depends on the inputs alone, not on a BLAS kernel or
    the Python version.

    Raises:
        SingularDesign: if a pivot is not positive and finite.
    """
    d = len(gram)
    lower = [[0.0] * d for _ in range(d)]
    for j in range(d):
        row_j = lower[j]
        pivot = gram[j][j]
        for k in range(j):
            pivot -= row_j[k] * row_j[k]
        if not 0.0 < pivot < math.inf:
            raise SingularDesign(
                f"Gram matrix pivot {j} is {pivot!r}, not positive and finite: the design "
                "(inputs plus intercept) is singular in float64; add rows, drop collinear "
                "inputs, or raise regularization or forgetting_factor"
            )
        diagonal = math.sqrt(pivot)
        row_j[j] = diagonal
        for i in range(j + 1, d):
            row_i = lower[i]
            value = gram[i][j]
            for k in range(j):
                value -= row_i[k] * row_j[k]
            row_i[j] = value / diagonal
    return lower


def _forward_substitute(lower: list, rhs: list) -> list:
    """Solve ``lower z = rhs`` for z, summing in ascending index order."""
    d = len(rhs)
    forward = [0.0] * d
    for i in range(d):
        value = rhs[i]
        for k in range(i):
            value -= lower[i][k] * forward[k]
        forward[i] = value / lower[i][i]
    return forward


def _solve_positive_definite(gram: list, rhs: list) -> list:
    """Solve ``gram w = rhs`` by :func:`_cholesky` and two substitutions.

    Raises:
        SingularDesign: if a pivot is not positive and finite, or the solution
            is not (``rhs`` or the solve overflowed).
    """
    lower = _cholesky(gram)
    forward = _forward_substitute(lower, rhs)
    d = len(rhs)
    solution = [0.0] * d  # lower' @ solution = forward
    for i in reversed(range(d)):
        value = forward[i]
        for k in range(i + 1, d):
            value -= lower[k][i] * solution[k]
        solution[i] = value / lower[i][i]
    if not all(map(math.isfinite, solution)):
        raise SingularDesign(f"the solution {solution!r} is not finite: the sums overflow float64")
    return solution


_forgetting_factor = _check(lambda v: _is_number(v) and 0 < v <= 1, "must be in (0, 1]")
_epsilon = _check(lambda v: _is_number(v) and 0 <= v <= 1, "must be in [0, 1]")


class IncrementalLinearLearner:
    """Incremental least squares with an intercept, kept in information form.

    The learner keeps the exponentially weighted Gram matrix G and moment
    vector b of the design (the inputs plus a constant 1 column), starting
    from ``G = delta I`` and ``b = 0``. A batch of m rows x_i with targets
    y_i, oldest first, updates them to

        G <- lam^m G + sum_i lam^(m-1-i) x_i x_i'
        b <- lam^m b + sum_i lam^(m-1-i) x_i y_i

    where lam is ``forgetting_factor`` and delta is ``regularization``.
    ``finalize`` solves ``G w = b`` once. After n rows, w minimizes
    ``sum_i lam^(n-1-i) (y_i - x_i w)^2 + delta lam^n |w|^2``: in exact
    arithmetic this is the estimate of per-row recursive least squares with
    the same lam and the prior P0 = I/delta, whatever the batch sizes.

    ``update`` checks a batch and queues its read-only columns; it does no
    arithmetic. The queue is accumulated when ``finalize`` is called, when
    the active learner reads G, and before its rows' outer products would
    pass ``_QUEUE_BYTES`` (1 MiB). Consecutive queued batches of one size m
    are stacked into one array indexed by row, design column (the target
    last) and batch, and every row's products ``lam^(m-1-i) x_i [x_i' y_i]``
    are formed in one broadcast. Each batch's sums then add its rows
    strictly in order, ``((p_0 + p_1) + p_2) + ...``, for all batches at
    once; and ``[G | b]`` is updated in place, batch by batch in stream
    order: first scaled by ``lam^m``, then the batch's sums added. So G and
    b hold the same bytes as when each batch is accumulated as it arrives,
    its rows added in order. The code never calls ``np.add.reduce`` (nor
    ``sum`` or ``mean``): numpy picks recursive or pairwise summation from
    the memory layout, so the bytes of a reduction would depend on how the
    queue happened to be stacked.

    The sums are elementwise ufuncs and the solve is a fixed-order Cholesky
    factorization on Python floats (no BLAS call), so the fitted weights do
    not depend on the CPU's BLAS kernel. With a tiny forgetting factor,
    ``lam^m`` may underflow to 0: the older rows and the prior are then
    forgotten entirely, and ``finalize`` raises
    :class:`SingularDesign` if what remains does not determine w (a Cholesky
    pivot that is not positive and finite) or the sums overflowed. An
    overflow is never reported by ``update``.

    The schema (input columns and output column) is fixed by the first batch;
    later batches must match it. ``finalize`` snapshots the current estimate
    into a :class:`LinearModel` and may be called again after more batches.

    Raises:
        ValueError: when built, ``forgetting_factor must be in (0, 1], got ...``
            or ``regularization must be positive, got ...``.
    """

    def __init__(self, forgetting_factor: float = 1.0, regularization: float = 1e-8):
        self.forgetting_factor = _setting("forgetting_factor", forgetting_factor, _forgetting_factor)
        self.regularization = _setting("regularization", regularization, _positive_real)
        self._gram: np.ndarray | None = None
        self._moment: np.ndarray | None = None
        self._rows = 0
        self._queue: list[tuple[list[np.ndarray], np.ndarray]] = []  # (input columns, targets), oldest first
        self._queued_rows = 0
        self._input_columns: tuple[str, ...] | None = None
        self._output_column: str | None = None

    def update(self, inputs: Dataset, outputs: Dataset) -> None:
        """Check one batch and queue it; a batch refused with an error leaves the learner unchanged."""
        columns, y = _training_columns(inputs, outputs)
        if self._gram is None:
            dim = len(columns) + 1
            self._gram = np.eye(dim) * self.regularization
            self._moment = np.zeros(dim)
            self._input_columns = inputs.column_names
            self._output_column = outputs.column_names[0]
        elif inputs.column_names != self._input_columns:
            raise SchemaMismatch(
                f"batch columns {list(inputs.column_names)} != {list(self._input_columns)}"
            )
        entry = max(len(y), 1)  # an empty batch still takes a place in the queue
        if self._queued_rows + entry > _QUEUE_BYTES // (8 * len(self._moment) ** 2):
            self._accumulate()
        self._queue.append((columns, y))
        self._queued_rows += entry
        self._rows += len(y)

    def _accumulate(self) -> None:
        """Fold the queued batches into G and b, oldest first, and empty the queue."""
        queue, self._queue, self._queued_rows = self._queue, [], 0
        forget, dim = self.forgetting_factor, len(self._moment)
        folded = np.concatenate([self._gram, self._moment[:, np.newaxis]], axis=1)  # [G | b]
        for m, group in itertools.groupby(queue, key=lambda batch: len(batch[1])):
            group = list(group)
            count = len(group)
            rows = np.ones((m, dim + 1, count))  # row, design column (target last), batch
            for j in range(dim - 1):
                rows[:, j] = np.concatenate([columns[j] for columns, _ in group]).reshape(count, m).T
            rows[:, dim] = np.concatenate([targets for _, targets in group]).reshape(count, m).T
            decays = np.array([forget ** k for k in range(m - 1, -1, -1)])
            decay = forget**m
            with np.errstate(over="ignore", invalid="ignore"):  # finalize raises SingularDesign on an overflow
                weighted = rows[:, :dim] * decays[:, np.newaxis, np.newaxis]
                products = weighted[:, :, np.newaxis] * rows[:, np.newaxis]  # row, [G | b] entry, batch
                sums = products[0].copy() if m else np.zeros((dim, dim + 1, count))
                for k in range(1, m):
                    sums += products[k]
                for batch in sums.transpose(2, 0, 1).copy():
                    folded *= decay
                    folded += batch
        self._gram, self._moment = folded[:, :dim], folded[:, dim]

    def _sums(self) -> tuple[np.ndarray, np.ndarray] | None:
        """G and b with every queued batch accumulated, or None before the first row."""
        if self._rows == 0:
            return None
        self._accumulate()
        return self._gram, self._moment

    def finalize(self) -> LinearModel:
        """Solve for the current weights and snapshot them as an immutable model.

        Raises:
            NeverUpdated: if no sample has been absorbed.
            SingularDesign: if the accumulated Gram matrix is singular in float64,
                or its sums overflow.
        """
        sums = self._sums()
        if sums is None:
            raise NeverUpdated("incremental learner has not seen any data")
        weights = _solve_positive_definite(sums[0].tolist(), sums[1].tolist())
        return LinearModel(weights[:-1], weights[-1], self._input_columns, self._output_column)


class EpsilonGreedyActiveLearner:
    """Interactive policy over a discrete action grid.

    With probability epsilon a uniformly random grid action is proposed
    (seeded RNG); otherwise the grid action with the highest surrogate
    predictive variance is chosen, seeking the least-explored region. An
    untrained surrogate carries no information, so all actions tie and the
    first grid action is returned.

    The surrogate is an :class:`IncrementalLinearLearner`, with this
    learner's ``forgetting_factor`` and ``regularization``, fed one row per
    transition: the inputs (state features, action) and the next value of
    the target column. Its intercept is the bias term. The predictive
    variance of an action is ``x' G^-1 x = |L^-1 x|^2``, where x is the
    regressor (state, action, 1) and L the Cholesky factor of the
    surrogate's Gram matrix G: one factorization per proposal and one
    forward substitution per grid action, on Python floats (no BLAS call).

    Raises:
        ValueError: when built: ``epsilon must be in [0, 1], got ...``, ``action_grid_size
            must be a positive integer, got ...``, ``seed must be a non-negative integer,
            got ...``, as the surrogate for its settings, or if the action is a state column.
    """

    def __init__(
        self,
        action_space: ActionSpace,
        state_columns: Sequence[str],
        target_column: str,
        epsilon: float = 0.1,
        action_grid_size: int = 11,
        seed: int = 0,
        forgetting_factor: float = 1.0,
        regularization: float = 1e-8,
    ):
        if action_space.name in state_columns:
            raise ValueError(f"the action {action_space.name!r} must not be a state column")
        self.action_space = action_space
        self.state_columns = tuple(state_columns)
        self.target_column = target_column
        self.epsilon = _setting("epsilon", epsilon, _epsilon)
        grid_size = _setting("action_grid_size", action_grid_size, _positive_int)
        self.action_grid = np.linspace(action_space.low, action_space.high, grid_size)
        self._rng = np.random.default_rng(_setting("seed", seed, _non_negative_int))
        self._surrogate = IncrementalLinearLearner(forgetting_factor, regularization)

    def _state(self, observation: Dataset) -> list:
        if observation.row_count != 1:
            raise SchemaMismatch(f"expected a single-row observation, got {observation.row_count}")
        return _float_matrix(observation, self.state_columns)[0].tolist()

    def propose_action(self, observation: Dataset) -> float:
        """Pick the next action for the given single-row observation.

        Raises:
            SingularDesign: if the surrogate's Gram matrix is singular in
                float64, as when a tiny forgetting factor forgot the prior.
        """
        state = self._state(observation)
        if self._rng.random() < self.epsilon:
            return float(self.action_grid[self._rng.integers(len(self.action_grid))])
        sums = self._surrogate._sums()
        if sums is None:
            return float(self.action_grid[0])
        lower = _cholesky(sums[0].tolist())
        scores = []
        for action in self.action_grid.tolist():
            variance = 0.0
            for z in _forward_substitute(lower, [*state, action, 1.0]):
                variance += z * z
            scores.append(variance)
        return float(self.action_grid[int(np.argmax(scores))])

    def observe_transition(self, observation: Dataset, action: float, next_observation: Dataset) -> None:
        """Absorb one (observation, action, next observation) transition."""
        values = [*self._state(observation), float(action)]
        target = next_observation.select([self.target_column])
        if target.row_count != 1:
            raise SchemaMismatch("next observation must be a single row")
        names = (*self.state_columns, self.action_space.name)
        self._surrogate.update(Dataset([(name, [v]) for name, v in zip(names, values)]), target)

    def finalize(self) -> LinearModel:
        """Freeze the surrogate into a model predicting the next target value
        from (state features, action).

        Raises:
            NeverUpdated: if no transition has been observed.
            SingularDesign: as :meth:`IncrementalLinearLearner.finalize`.
        """
        return self._surrogate.finalize()


def _fit_whole(learner_class, train: Dataset, io, **settings) -> Model:
    return strategies.learn_offline(OfflineEnvironment.from_dataset(train), None, io, learner_class(**settings))


def _fit_streamed(learner_class, train: Dataset, io, batch_size: int = 32, **settings) -> Model:
    stream = DatasetStream(train.select([*io.inputs, *io.outputs]), batch_size)
    return strategies.learn_incremental(stream, None, io, learner_class(**settings))


def _kind(learner_class, drive, **checks) -> tuple:
    parameters = {**inspect.signature(drive).parameters, **inspect.signature(learner_class).parameters}
    return learner_class, drive, {name: (check, parameters[name].default) for name, check in checks.items()}


# kind -> (learner class, drive, {setting -> (check, default from the signature that takes it)}).
# ``drive(learner_class, train, io, **settings)`` builds the learner and learns the training rows,
# with its strategy looked up in ``strategies`` at call time, so a strategy rebound there is called.
LOCAL_KINDS = {
    "regression_tree": _kind(RegressionTreeLearner, _fit_whole, max_depth=_non_negative_int,
                             min_samples_leaf=_positive_int),
    "linear": _kind(LinearRegressionLearner, _fit_whole),
    "incremental_linear": _kind(IncrementalLinearLearner, _fit_streamed, forgetting_factor=_forgetting_factor,
                                regularization=_positive_real, batch_size=_positive_int),
}


# Checks of values read from model documents, beside ``transforms._is_int`` and ``_is_number``.
def _is_object(value) -> bool:
    return isinstance(value, dict)


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(name, str) for name in value)


def _entry(obj: dict, key: str, where: str, check, what: str):
    """``obj[key]``, or a ValueError naming ``where.key`` if it is missing or fails ``check``."""
    if key not in obj:
        raise ValueError(f"malformed model document: {where}.{key} is missing")
    if not check(obj[key]):
        raise ValueError(f"malformed model document: {where}.{key} must be {what}")
    return obj[key]


def _rebuild_linear(params: dict, inputs: list, output: str) -> LinearModel:
    n = len(inputs)
    weights = _entry(params, "weights", "params",
                     lambda v: isinstance(v, list) and len(v) == n and all(map(_is_number, v)),
                     f"a list of {n} numbers")
    intercept = _entry(params, "intercept", "params", _is_number, "a number")
    return LinearModel(weights, intercept, inputs, output)


def _rebuild_tree(params: dict, inputs: list, output: str) -> RegressionTreeModel:
    return RegressionTreeModel(
        TreeNode.from_dict(_entry(params, "root", "params", _is_object, "an object"), len(inputs)),
        inputs,
        output,
        _entry(params, "max_depth", "params", lambda v: _non_negative_int(v) is None, "a non-negative integer"),
        _entry(params, "min_samples_leaf", "params", lambda v: _positive_int(v) is None, "a positive integer"),
    )


_MODEL_KINDS = {LinearModel.kind: _rebuild_linear, RegressionTreeModel.kind: _rebuild_tree}


def model_from_dict(doc: dict) -> Model:
    """Rebuild a model from its serialized dictionary form.

    Raises:
        ValueError: naming the first missing or ill-typed entry of a malformed
            document, including a tree nested past the interpreter's recursion limit.
    """
    if not isinstance(doc, dict):
        raise ValueError("malformed model document: must be an object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {version}")
    kind = doc.get("kind")
    if kind not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind: {kind}")
    inputs = _entry(doc, "input_schema", "model", _is_names, "a list of column names")
    outputs = _entry(doc, "output_schema", "model", lambda v: _is_names(v) and len(v) == 1,
                     "a list of one column name")
    params = _entry(doc, "params", "model", _is_object, "an object")
    try:
        return _MODEL_KINDS[kind](params, inputs, outputs[0])
    except RecursionError:
        raise ValueError("malformed model document: tree nested too deeply") from None


def save_model(model: Model, path) -> None:
    """Write a model as versioned JSON; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def load_model(path) -> Model:
    """Load a model saved by :func:`save_model`.

    Raises:
        ValueError: if the file is not JSON or not a well-formed model document.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"malformed model document: {path} is nested too deeply") from None
    return model_from_dict(doc)
