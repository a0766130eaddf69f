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
  forgetting factor, in information form: batches accumulate a weighted
  Gram matrix and moment vector, and ``finalize`` solves them once by a
  fixed-order Cholesky factorization (no BLAS call).
* :class:`RecursiveLeastSquares` -- per-sample recursive least squares,
  the surrogate of the active learner.
* :class:`EpsilonGreedyActiveLearner` -- an interactive policy that explores
  an action grid and maintains a linear one-step surrogate of the system.
"""

from __future__ import annotations

import abc
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ColumnKind, Dataset
from .environments import ActionSpace
from .errors import PipelineError

MODEL_FORMAT_VERSION = 1
MODEL_FILE_SUFFIX = ".fcm.json"

_SPLIT_TIE_EPS = 1e-12


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


class TreeTooDeep(PipelineError):
    """The tree grew deeper than Python's recursion limit allows."""


class DimensionMismatch(PipelineError):
    """An input row does not match the dimension of the online estimator."""


class NeverUpdated(PipelineError):
    """Finalize was called on a learner that never saw any data."""


def _float_matrix(dataset: Dataset, columns: Sequence[str]) -> np.ndarray:
    """Stack float columns into an (n_rows, n_cols) design matrix."""
    for name in columns:
        if dataset.column_kind(name) is not ColumnKind.FLOAT64:
            raise SchemaMismatch(f"column {name!r} is not float64")
    if not columns:
        return np.empty((dataset.row_count, 0), dtype=np.float64)
    return np.column_stack([dataset.column(name) for name in columns])


def _training_arrays(inputs: Dataset, outputs: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The float design matrix and target vector of one training pair, checked to match."""
    if len(outputs.column_names) != 1:
        raise ShapeMismatch(f"expected a single output column, got {len(outputs.column_names)}")
    y = _float_matrix(outputs, outputs.column_names)[:, 0]
    if inputs.row_count != outputs.row_count:
        raise ShapeMismatch(f"{inputs.row_count} input rows vs {outputs.row_count} output rows")
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
        """
        _check_input_columns(inputs, self.input_columns)
        matrix = _float_matrix(inputs, self.input_columns)
        return Dataset([(self.output_column, self._predict_matrix(matrix))])

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

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

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
            coefficients.
    """
    matrix, y = _training_arrays(inputs, outputs)
    design = np.column_stack([matrix, np.ones(inputs.row_count)])
    solution, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise SingularDesign(
            f"design matrix has rank {rank} < {design.shape[1]} coefficients"
        )
    return LinearModel(
        solution[:-1], solution[-1], inputs.column_names, outputs.column_names[0]
    )


def _best_split(matrix: np.ndarray, y: np.ndarray, min_samples_leaf: int, orders: list):
    """Exhaustive greedy split search.

    ``orders`` holds, per feature, the node's row indices into ``matrix`` and
    ``y`` in stable ascending order of that feature (:func:`_presort` gives
    them for every row). Candidates are midpoints between consecutive distinct
    sorted feature values; the score is the weighted child variance.
    Features are scanned in index order and each feature's candidates in
    ascending threshold order. A candidate replaces the incumbent only when
    its score is below the incumbent's by more than 1e-12 (the first
    candidate seen is always taken), so ties resolve to the lowest feature
    index, then the lowest threshold.

    Every candidate score of a feature is computed in one numpy pass. The
    elementwise operations are the ones of the scalar expression
    ``(n_l * max(0, s2_l/n_l - (s_l/n_l)**2) + n_r * max(0, ...)) / n`` in
    the same order, so each score is bit-identical to evaluating it one
    candidate at a time. Two details keep it so: squares use
    ``np.float_power``, which calls the C library ``pow`` as a float64
    scalar's ``** 2`` does (an array's ``** 2`` is a multiply, and the two
    differ by one ulp for about one value in a thousand); negative variances
    are clamped with ``np.where(v > 0.0, v, 0.0)``, which like Python's
    ``max(0.0, v)`` maps -0.0 and NaN to 0.0 where ``np.maximum`` would keep
    them.

    Only candidates that are a strict running minimum of their feature's
    scores go through the sequential rule; this filtering is exact. If a
    candidate replaces the incumbent, its score is below every earlier
    score: a candidate that replaced became the incumbent, and incumbents
    only decrease; one that did not was at least the incumbent of its time
    minus 1e-12, itself at least the current incumbent minus 1e-12. So a
    score at or above an earlier (non-NaN) score of its feature never
    replaces, and the incumbent changes only at the candidates kept. The
    rule runs on Python floats (``tolist``), whose subtraction and ``<`` are
    the same IEEE double operations as on numpy float64 scalars, and the
    threshold is formed once, for the winning cut of each feature.
    """
    best, best_score = None, None  # (score, feature, threshold), score
    for feature, order in enumerate(orders):
        n = len(order)
        cuts = np.arange(min_samples_leaf, n - min_samples_leaf + 1)
        xs = matrix[order, feature]
        ys = y[order]
        sums = np.concatenate([[0.0], np.cumsum(ys)])
        squares = np.concatenate([[0.0], np.cumsum(ys * ys)])
        total, total_sq = sums[n], squares[n]
        i = cuts[xs[cuts - 1] != xs[cuts]]
        if not i.size:
            continue
        n_left, n_right = i, n - i
        var_left = squares[i] / n_left - np.float_power(sums[i] / n_left, 2.0)
        var_right = (total_sq - squares[i]) / n_right - np.float_power(
            (total - sums[i]) / n_right, 2.0
        )
        var_left = np.where(var_left > 0.0, var_left, 0.0)
        var_right = np.where(var_right > 0.0, var_right, 0.0)
        scores = (n_left * var_left + n_right * var_right) / n
        # Drop every score at or above an earlier non-NaN score (fmin skips NaN).
        keep = np.ones(scores.size, dtype=bool)
        keep[1:] = ~(scores[1:] >= np.fmin.accumulate(scores)[:-1])
        kept = np.flatnonzero(keep)
        winner = None
        for j, score in zip(kept.tolist(), scores[kept].tolist()):
            if best_score is None or score < best_score - _SPLIT_TIE_EPS:
                best_score, winner = score, j
        if winner is not None:
            cut = i[winner]
            best = (best_score, feature, (xs[cut - 1] + xs[cut]) / 2.0)
    return best


def _presort(matrix: np.ndarray) -> list:
    """Each column's stable argsort: row indices in ascending order of that feature."""
    return [np.argsort(column, kind="stable") for column in matrix.T]


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
    _, feature, threshold = split
    left = matrix[:, feature] <= threshold
    right = ~left
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_grow_tree(matrix, y, rows[left[rows]], [order[left[order]] for order in orders],
                        depth + 1, max_depth, min_samples_leaf),
        right=_grow_tree(matrix, y, rows[right[rows]], [order[right[order]] for order in orders],
                         depth + 1, max_depth, min_samples_leaf),
    )


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
    ties included (in row order; ``-0.0`` ties ``0.0``, NaN sorts last). A
    node's targets ``y[rows]`` stay in row order, so its variance and leaf
    mean are those of the rows it holds, summed in the same order.

    Raises:
        ShapeMismatch: if row counts differ or outputs are not one column.
        TooFewSamples: if fewer than ``2 * min_samples_leaf`` rows are given.
        TreeTooDeep: if the tree grows deeper than Python's recursion limit
            allows; a smaller ``max_depth`` bounds it.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    if min_samples_leaf < 1:
        raise ValueError(f"min_samples_leaf must be positive, got {min_samples_leaf}")
    matrix, y = _training_arrays(inputs, outputs)
    if inputs.row_count < 2 * min_samples_leaf:
        raise TooFewSamples(
            f"{inputs.row_count} rows < 2 * min_samples_leaf = {2 * min_samples_leaf}"
        )
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
    """Offline learner wrapping :func:`fit_tree`."""

    def __init__(self, max_depth: int = 5, min_samples_leaf: int = 1):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def fit(self, inputs: Dataset, outputs: Dataset) -> RegressionTreeModel:
        return fit_tree(inputs, outputs, self.max_depth, self.min_samples_leaf)


def _check_rls_parameters(forgetting_factor: float, regularization: float) -> None:
    """Refuse a forgetting factor outside (0, 1] or a regularization that is not positive and finite."""
    if not 0.0 < forgetting_factor <= 1.0:
        raise ValueError(f"forgetting_factor must be in (0, 1], got {forgetting_factor}")
    if not 0.0 < regularization < math.inf:
        raise ValueError(f"regularization must be positive and finite, got {regularization}")


class RecursiveLeastSquares:
    """Online least squares over a fixed regressor dimension, one sample at a time.

    Maintains the weight vector and the inverse-Gram matrix P through
    rank-one updates (P starts as I/delta, delta being ``regularization``),
    so that P is at hand after every sample: the active learner's surrogate
    reads its predictive variance between steps.

    Note the regressor is used exactly as given: no intercept column is
    appended here.

    Attributes:
        weights: current estimate, shape (dim,). Replaced by a new array on
            every update.
        updates: number of samples absorbed so far.
    """

    def __init__(self, dim: int, forgetting_factor: float = 1.0, regularization: float = 1e-8):
        if not _is_int(dim) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        _check_rls_parameters(forgetting_factor, regularization)
        self.dim = dim
        self.forgetting_factor = forgetting_factor
        self.weights = np.zeros(dim, dtype=np.float64)
        self._P = np.eye(dim, dtype=np.float64) / regularization
        self.updates = 0

    def update(self, row, target: float) -> None:
        """Absorb one (regressor, target) sample by the rank-one update

            Pr = P r;  gain = Pr / (forget + r'Pr);  w += gain (target - r'w)
            P = ((P - gain Pr') / forget + its transpose) / 2

        The symmetrization keeps P numerically symmetric.

        Raises:
            DimensionMismatch: if the regressor length differs from ``dim``.
        """
        row = self._regressor(row)
        forget = self.forgetting_factor
        Pr = self._P @ row
        gain = Pr / (forget + row @ Pr)
        self.weights = self.weights + gain * (target - row @ self.weights)
        P = (self._P - np.outer(gain, Pr)) / forget
        self._P = (P + P.T) / 2.0
        self.updates += 1

    def predictive_variance(self, row) -> float:
        """Quadratic form row' P row: relative uncertainty of a prediction."""
        row = self._regressor(row)
        return float(row @ self._P @ row)

    def _regressor(self, row) -> np.ndarray:
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (self.dim,):
            raise DimensionMismatch(f"regressor of shape {row.shape}, expected ({self.dim},)")
        return row


def _solve_positive_definite(gram: list, rhs: list) -> list:
    """Solve ``gram w = rhs`` by Cholesky factorization on Python floats.

    Reads the lower triangle of ``gram`` (a list of row lists). Every sum
    runs in ascending index order, so the result depends on the inputs
    alone, not on a BLAS kernel or the Python version.

    Raises:
        SingularDesign: if a pivot is not positive and finite, or the solution
            is not (``rhs`` or the solve overflowed).
    """
    d = len(rhs)
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
    forward = [0.0] * d  # lower @ forward = rhs
    for i in range(d):
        value = rhs[i]
        for k in range(i):
            value -= lower[i][k] * forward[k]
        forward[i] = value / lower[i][i]
    solution = [0.0] * d  # lower' @ solution = forward
    for i in reversed(range(d)):
        value = forward[i]
        for k in range(i + 1, d):
            value -= lower[k][i] * solution[k]
        solution[i] = value / lower[i][i]
    if not all(map(math.isfinite, solution)):
        raise SingularDesign(f"the solution {solution!r} is not finite: the sums overflow float64")
    return solution


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

    The sums are elementwise ufuncs and ``np.add.reduce`` and the solve is a
    fixed-order Cholesky factorization on Python floats (no BLAS call), so
    the fitted weights do not depend on the CPU's BLAS kernel. With a tiny
    forgetting factor, ``lam^m`` may underflow to 0: the older rows and the
    prior are then forgotten entirely, and ``finalize`` raises
    :class:`SingularDesign` if what remains does not determine w (a Cholesky
    pivot that is not positive and finite) or the sums overflowed.

    The schema (input columns and output column) is fixed by the first batch;
    later batches must match it. ``finalize`` snapshots the current estimate
    into a :class:`LinearModel` and may be called again after more batches.
    """

    def __init__(self, forgetting_factor: float = 1.0, regularization: float = 1e-8):
        _check_rls_parameters(forgetting_factor, regularization)
        self.forgetting_factor = forgetting_factor
        self.regularization = regularization
        self._gram: np.ndarray | None = None
        self._moment: np.ndarray | None = None
        self._rows = 0
        self._input_columns: tuple[str, ...] | None = None
        self._output_column: str | None = None

    def update(self, inputs: Dataset, outputs: Dataset) -> None:
        """Absorb one batch; a batch refused with an error leaves the learner unchanged."""
        matrix, y = _training_arrays(inputs, outputs)
        if self._gram is None:
            dim = len(inputs.column_names) + 1
            self._gram = np.eye(dim) * self.regularization
            self._moment = np.zeros(dim)
            self._input_columns = inputs.column_names
            self._output_column = outputs.column_names[0]
        elif inputs.column_names != self._input_columns:
            raise SchemaMismatch(
                f"batch columns {list(inputs.column_names)} != {list(self._input_columns)}"
            )
        m, forget = len(y), self.forgetting_factor
        design = np.ones((m, matrix.shape[1] + 1))
        design[:, :-1] = matrix
        decays = np.array([forget ** k for k in range(m - 1, -1, -1)])
        weighted = design * decays[:, np.newaxis]
        gram = np.add.reduce(weighted[:, :, np.newaxis] * design[:, np.newaxis, :], axis=0)
        moment = np.add.reduce(weighted * y[:, np.newaxis], axis=0)
        decay = forget**m
        self._gram = self._gram * decay + gram
        self._moment = self._moment * decay + moment
        self._rows += m

    def finalize(self) -> LinearModel:
        """Solve for the current weights and snapshot them as an immutable model.

        Raises:
            NeverUpdated: if no sample has been absorbed.
            SingularDesign: if the accumulated Gram matrix is singular in float64,
                or its sums overflow.
        """
        if self._rows == 0:
            raise NeverUpdated("incremental learner has not seen any data")
        weights = _solve_positive_definite(self._gram.tolist(), self._moment.tolist())
        return LinearModel(weights[:-1], weights[-1], self._input_columns, self._output_column)


class EpsilonGreedyActiveLearner:
    """Interactive policy over a discrete action grid.

    With probability epsilon a uniformly random grid action is proposed
    (seeded RNG); otherwise the grid action with the highest surrogate
    predictive variance is chosen, seeking the least-explored region. An
    untrained surrogate carries no information, so all actions tie and the
    first grid action is returned.

    The surrogate is a recursive-least-squares model of the next target
    value from (state features, action, bias).
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
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        if action_grid_size < 1:
            raise ValueError(f"action_grid_size must be positive, got {action_grid_size}")
        self.action_space = action_space
        self.state_columns = tuple(state_columns)
        self.target_column = target_column
        self.epsilon = epsilon
        self.action_grid = np.linspace(action_space.low, action_space.high, action_grid_size)
        self._rng = np.random.default_rng(seed)
        self._surrogate = RecursiveLeastSquares(
            len(self.state_columns) + 2, forgetting_factor, regularization
        )

    def _state_vector(self, observation: Dataset) -> np.ndarray:
        if observation.row_count != 1:
            raise SchemaMismatch(f"expected a single-row observation, got {observation.row_count}")
        return _float_matrix(observation, self.state_columns)[0]

    def propose_action(self, observation: Dataset) -> float:
        """Pick the next action for the given single-row observation."""
        state = self._state_vector(observation)
        if self._rng.random() < self.epsilon:
            return float(self.action_grid[self._rng.integers(len(self.action_grid))])
        if self._surrogate.updates == 0:
            return float(self.action_grid[0])
        scores = [
            self._surrogate.predictive_variance(np.concatenate([state, [action, 1.0]]))
            for action in self.action_grid
        ]
        return float(self.action_grid[int(np.argmax(scores))])

    def observe_transition(self, observation: Dataset, action: float, next_observation: Dataset) -> None:
        """Absorb one (observation, action, next observation) transition."""
        state = self._state_vector(observation)
        target_cell = next_observation.column(self.target_column)
        if len(target_cell) != 1:
            raise SchemaMismatch("next observation must be a single row")
        target = float(target_cell[0])
        regressor = np.concatenate([state, [action, 1.0]])
        self._surrogate.update(regressor, target)

    def finalize(self) -> LinearModel:
        """Freeze the surrogate into a model predicting the next target value
        from (state features, action).

        Raises:
            NeverUpdated: if no transition has been observed.
        """
        if self._surrogate.updates == 0:
            raise NeverUpdated("active learner has not observed any transition")
        weights = self._surrogate.weights
        input_columns = (*self.state_columns, self.action_space.name)
        return LinearModel(weights[:-1], weights[-1], input_columns, self.target_column)


# Checks of values read from JSON documents. ``bool`` is a subclass of
# ``int`` in Python, so JSON ``true``/``false`` is excluded from integers and
# numbers explicitly; ``json`` also parses ``Infinity`` and ``NaN``, which no
# document written by this package holds.


def _is_object(value) -> bool:
    return isinstance(value, dict)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


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
        _entry(params, "max_depth", "params", _is_int, "an integer"),
        _entry(params, "min_samples_leaf", "params", _is_int, "an integer"),
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
