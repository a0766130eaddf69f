"""Trainable learners and the immutable models they produce.

A learner is a training algorithm; a model is its frozen output. Models
predict without any learner present and serialize to a versioned JSON
document, so a trained artifact can be shipped, reloaded, and used in a
process that never imports the training code.

Native implementations:

* :func:`fit_linear` / :class:`LinearRegressionLearner` -- ordinary least
  squares by Householder QR, with a stated rank rule on the diagonal of R.
* :func:`fit_tree` / :class:`RegressionTreeLearner` -- greedy binary
  regression tree minimizing weighted child variance.
* :class:`IncrementalLinearLearner` -- incremental least squares with a
  forgetting factor, in square-root information form: it folds its rows into
  the R of the same Householder QR every fixed number of rows.
* :class:`EpsilonGreedyActiveLearner` -- an interactive policy over an action
  grid, with an :class:`IncrementalLinearLearner` as its one-step surrogate.
* ``LOCAL_KINDS`` -- the learner kinds a config builds: class, drive, and each
  setting's check (the one the learner applies) and default.
"""

from __future__ import annotations

import abc
import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import strategies
from .dataset import Dataset, _is_int, _is_number, _names, _non_negative_int
from .environments import ActionSpace, DatasetStream, OfflineEnvironment
from .errors import PipelineError
from .transforms import _check, _column_name, _distinct_names, _number, _positive, _positive_int, _setting

MODEL_FORMAT_VERSION = 1
MODEL_FILE_SUFFIX = ".fcm.json"

# The candidate cuts one pass of the split search scores: a node of n rows scores
# max(1, _BLOCK // n) features at once.
_BLOCK = 1 << 14

# The rows the incremental learner buffers before it folds them into its R: its bytes depend on
# the rows of the stream and on this count, never on the batch sizes.
_FOLD_ROWS = 1 << 12


class ShapeMismatch(PipelineError):
    """Inputs and outputs disagree in row count or column count."""


class SchemaMismatch(PipelineError):
    """Data columns do not match the schema a model or learner expects."""


class SingularDesign(PipelineError):
    """The least-squares design matrix is rank deficient.

    :func:`fit_linear` raises it instead of silently regularizing, and the
    incremental learner when the rank rule refuses its R, as when a tiny
    forgetting factor has forgotten the prior, or when R or its solution
    overflows float64. Add rows, drop collinear columns, or raise the
    regularization or the forgetting factor.
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


# The exact kernels. Each adds in the order its code states, by elementwise ufuncs or on Python
# floats, and never calls BLAS or ``np.add.reduce`` (whose order numpy picks from the memory layout),
# so its bits depend on its inputs alone: not on the BLAS kernel, the CPU's features or the layout.

def _fold_sum(terms: np.ndarray) -> np.ndarray:
    """The sums of ``terms`` over its last axis, of length 1 or more, which it overwrites.

    While m > 1 terms are left, term ``i + ceil(m/2)`` is added onto term i for each
    ``i < floor(m/2)`` and the first ``ceil(m/2)`` terms are kept: a pairwise order fixed by the
    length alone, with a rounding error of at most ``ceil(log2 m) eps`` times the sum of magnitudes.
    """
    m = terms.shape[-1]
    while m > 1:
        half = m - m // 2
        terms[..., :m // 2] += terms[..., half:m]
        m = half
    return terms[..., 0]


def _row_product(matrix: np.ndarray, weights: list, intercept: float) -> np.ndarray:
    """Each row's ``0.0 + x_0 w_0 + x_1 w_1 + ... + intercept``, added left to right."""
    out = np.zeros(len(matrix))
    for column, weight in zip(matrix.T, weights):
        out += column * weight
    out += intercept
    return out


def _triangularize(rows: np.ndarray) -> None:
    """Householder QR of a least-squares problem, in place.

    ``rows`` holds A's p columns and then y as rows of n >= p values; afterwards row j holds
    R[k, j] at k < j and R[k, k] at k = j, and row p holds Q'y in its first p entries (the other
    entries are left over from the reflections). Step k reflects column k's entries k, ..., n-1
    onto ``R[k, k]`` with ``v = x - R[k, k] e_0`` and ``R[k, k] = -copysign(|x|, x_0)``, and
    applies the reflection to the later rows through ``v . a = x . a - R[k, k] a_0``: one
    :func:`_fold_sum` gives ``x . x`` and every ``x . a``. A step whose ``x . x`` is 0 reflects
    nothing. Column k of R has the norm of column k of A (Q is orthogonal).
    """
    for k in range(len(rows) - 1):
        block = rows[k:, k:]  # row k's entries from k on, then the later columns' and y's
        dots = _fold_sum(block * block[0]).tolist()
        if dots[0] == 0.0:
            continue
        x0 = float(block[0, 0])
        norm = math.sqrt(dots[0])
        diagonal = -math.copysign(norm, x0)
        scale = norm * (norm + abs(x0))  # v . v / 2
        factors = [(xa - diagonal * a0) / scale for xa, a0 in zip(dots[1:], block[1:, 0].tolist())]
        block[0, 0] = x0 - diagonal
        block[1:] -= np.multiply.outer(factors, block[0])
        block[0, 0] = diagonal


def _rank_rule(rows: np.ndarray, n: int) -> None:
    """Refuse the R that :func:`_triangularize` left in ``rows`` for n rows when some
    ``|R[k, k]| <= max(n, p) eps |R[:, k]|``: design column k is then within that share of its
    norm of the span of the columns before it.

    Raises:
        SingularDesign: naming the first column the rule refuses.
    """
    p = len(rows) - 1
    tolerance = max(n, p) * np.finfo(np.float64).eps
    for k in range(p):
        column = rows[k, :k + 1].tolist()  # R[:k+1, k]
        squares = 0.0
        for value in column:
            squares += value * value
        if not abs(column[k]) > tolerance * math.sqrt(squares):
            raise SingularDesign(
                f"design matrix is rank deficient: design column {k} (the inputs, then the intercept) "
                f"is within {tolerance:.3g} of its norm of the span of the columns before it"
            )


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


def _back_substitute(lower: list, rhs: list) -> list:
    """Solve ``lower' w = rhs`` for w, reading the lower triangle of ``lower``; each sum runs in
    ascending index order."""
    d = len(rhs)
    solution = [0.0] * d
    for i in reversed(range(d)):
        value = rhs[i]
        for k in range(i + 1, d):
            value -= lower[k][i] * solution[k]
        solution[i] = value / lower[i][i]
    return solution


class Model(abc.ABC):
    """A trained, immutable prediction artifact.

    Predictions are deterministic and side-effect free; concurrent predict
    calls are safe. ``input_columns`` and ``output_column`` form the schema
    contract checked on every call. A model that can be built saves, and its
    document loads back.

    Raises:
        ValueError: when built, ``input_columns <message>, got ...`` for a name list that
            ``dataset._names`` refuses (it may be empty, and holds no name twice), or
            ``output_column must be a column name, got ...``.
    """

    kind: str

    def __init__(self, input_columns: Sequence[str], output_column: str):
        self.input_columns = tuple(_setting("input_columns", input_columns, _distinct_names))
        self.output_column = _setting("output_column", output_column, _column_name)

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
    """Affine prediction: each row's ``0.0 + x_0 w_0 + x_1 w_1 + ... + intercept``, added left to
    right (:func:`_row_product`).

    Raises:
        ValueError: when built, as :class:`Model`, ``weights must be finite numbers, got ...``
            unless ``weights`` is a list, tuple or array of finite numbers (never strings or bools),
            or ``intercept must be a number, got ...``.
        ShapeMismatch: if there is not one weight per input column.
    """

    kind = "linear"

    def __init__(self, weights, intercept: float, input_columns: Sequence[str], output_column: str):
        super().__init__(input_columns, output_column)
        values = weights.tolist() if isinstance(weights, np.ndarray) else weights
        if not isinstance(values, (list, tuple)) or not all(map(_is_number, values)):
            raise ValueError(f"weights must be finite numbers, got {values!r}")
        if len(values) != len(self.input_columns):
            raise ShapeMismatch(f"{len(values)} weights for {len(self.input_columns)} input columns")
        self.weights = np.array(values, dtype=np.float64)  # a copy: callers may mutate theirs
        self.weights.setflags(write=False)
        self.intercept = float(_setting("intercept", intercept, _number))

    def _predict_matrix(self, matrix: np.ndarray) -> np.ndarray:
        return _row_product(matrix, self.weights.tolist(), self.intercept)

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
    def from_dict(cls, d: dict, where: str = "params.root") -> "TreeNode":
        """Rebuild a subtree of the document's shape; a missing entry, or a child that is not an
        object, raises ValueError naming its path. :class:`RegressionTreeModel` checks the values."""
        if "value" in d:
            return cls(value=_entry(d, "value", where), samples=_entry(d, "samples", where))
        return cls(
            feature=_entry(d, "feature", where),
            threshold=_entry(d, "threshold", where),
            left=cls.from_dict(_entry(d, "left", where, _is_object, "an object"), f"{where}.left"),
            right=cls.from_dict(_entry(d, "right", where, _is_object, "an object"), f"{where}.right"),
        )


_integer = _check(_is_int, "must be an integer")


class RegressionTreeModel(Model):
    """A fitted binary regression tree.

    Raises:
        ValueError: when built, as :class:`Model`, as :func:`fit_tree` for its settings, or naming
            the first node of ``root`` (depth first, left before right) that is not a
            :class:`TreeNode` (``root.left must be a tree node, got ...``), or whose entry breaks
            the document's rule: a leaf's ``value`` a finite number and ``samples`` an integer,
            a split's ``feature`` a column index below the input count and ``threshold`` a finite
            number (``root.right.threshold must be a number, got nan``).
    """

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
        n = len(self.input_columns)
        feature = _check(lambda v: _is_int(v) and 0 <= v < n, f"must be a column index below {n}")
        nodes = [("root", root)]
        while nodes:
            where, node = nodes.pop()
            if not isinstance(node, TreeNode):
                raise ValueError(f"{where} must be a tree node, got {node!r}")
            if node.is_leaf:
                _setting(f"{where}.value", node.value, _number)
                _setting(f"{where}.samples", node.samples, _integer)
            else:
                _setting(f"{where}.feature", node.feature, feature)
                _setting(f"{where}.threshold", node.threshold, _number)
                nodes += [(f"{where}.right", node.right), (f"{where}.left", node.left)]
        self.root = root
        self.max_depth = _setting("max_depth", max_depth, _non_negative_int)
        self.min_samples_leaf = _setting("min_samples_leaf", min_samples_leaf, _positive_int)

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
    """Fit ordinary least squares with an intercept, by Householder QR.

    The design is the input columns, then a column of ones. Each design column and the target
    are scaled by a power of two, which is exact, so that their largest magnitude is in
    [0.5, 1), so no dot product overflows; :func:`_triangularize` factors the scaled design,
    :func:`_rank_rule` refuses design column k when ``|R[k, k]| <= max(n, p) eps |R[:, k]|`` for
    n rows and p coefficients, and :func:`_back_substitute` solves on Python floats. Every sum
    runs in a stated order and no step calls BLAS, so the weights do not depend on the CPU's
    kernel. No silent regularization is applied.

    Raises:
        ShapeMismatch: if row counts differ or outputs are not one column.
        SingularDesign: if the design matrix (inputs plus intercept) is rank
            deficient by the rule above, including the underdetermined case of fewer rows than
            coefficients, or if the solution overflows float64.
    """
    columns, y = _training_columns(inputs, outputs)
    n, p = inputs.row_count, len(columns) + 1
    if n < p:
        raise SingularDesign(f"design matrix has {n} rows < {p} coefficients")
    rows = np.ones((p + 1, n))  # the input columns, the intercept's ones, then y
    for row, column in zip(rows, columns):
        row[:] = column
    rows[p] = y
    _, exponents = np.frexp(np.max(np.abs(rows), axis=1))
    np.ldexp(rows, -exponents[:, np.newaxis], out=rows)
    _triangularize(rows)
    _rank_rule(rows, n)
    solution = _back_substitute(rows[:p, :p].tolist(), rows[p, :p].tolist())
    with np.errstate(over="ignore"):  # an overflowing coefficient is refused below
        solution = np.ldexp(solution, exponents[p] - exponents[:p])
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
    feature's candidates in ascending threshold order, and the first least
    score wins: a tie resolves to the lowest feature index, then the lowest
    threshold. No tolerance enters the comparison, so the split does not
    depend on the target's unit: targets scaled by a power of two scale every
    score by its square, exactly. None means that no feature has two
    distinct values in the node.

    **Scores.** :func:`_scores` runs the elementwise operations of the
    scalar expression ``(n_l * max(0, s2_l/n_l - m_l*m_l) + n_r * max(0,
    ...)) / n``, with ``m_l = s_l/n_l``, in the same order, so each score is
    bit-identical to evaluating it one candidate at a time. No score is NaN:
    the clamp maps NaN to 0.0, and each score is a sum of non-negative terms.
    A cut between equal feature values scores +inf and never wins.

    **Blocks.** A node of n rows scores ``max(1, _BLOCK // n)`` features
    per pass: a small node in one pass, a large one feature by feature, so
    that the working set stays near ``_BLOCK`` cuts. ``np.argmin`` gives a
    block's first least score, which replaces the incumbent only if it is
    strictly lower, and the threshold is formed once, for the winning cut.
    """
    p, n = orders.shape
    lo, hi = min_samples_leaf, n - min_samples_leaf + 1  # the cuts are lo, ..., hi - 1
    n_left = np.arange(lo, hi, dtype=np.float64)
    step = max(1, _BLOCK // n)
    best_score, winner = math.inf, None  # a float, (feature, cut)
    for first in range(0, p, step):
        block = orders[first:first + step]
        b, c = len(block), hi - lo
        xs = matrix[block, np.arange(first, first + b)[:, np.newaxis]]
        tied = xs[:, lo - 1:hi - 1] == xs[:, lo:hi]
        del xs
        ys = y[block]
        sums = np.cumsum(ys, axis=1)  # sums[:, i - 1] is the sum of the first i sorted targets
        squares = np.cumsum(np.multiply(ys, ys, out=ys), axis=1)
        del ys
        scores = _scores(sums[:, lo - 1:hi - 1], squares[:, lo - 1:hi - 1], sums[:, -1:], squares[:, -1:],
                         n_left, n, np.empty((b, c)))
        del sums, squares
        np.copyto(scores, np.inf, where=tied)
        del tied
        at = int(np.argmin(scores))
        if scores.flat[at] < best_score:
            best_score = float(scores.flat[at])
            f, j = divmod(at, c)
            winner = (first + f, lo + j)
    if winner is None:
        return None
    feature, cut = winner
    low_row, high_row = orders[feature, cut - 1], orders[feature, cut]
    return best_score, feature, (matrix[low_row, feature] + matrix[high_row, feature]) / 2.0


def _scores(s, s2, total, total_sq, n_left, n, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the weighted child variance of each cut and return it.

    ``s`` and ``s2`` are the sums of the left child's targets and of their
    squares, ``total`` and ``total_sq`` the node's, and ``n_left`` the left
    child's rows, all broadcast against ``out``. The operations are those of
    ``(n_l * max(0, s2/n_l - m*m) + n_r * max(0, ...)) / n``, with ``m =
    s/n_l``, in its order; ``np.square`` is that multiply. ``np.fmax`` clamps
    as ``max(0.0, v)`` does: it maps NaN to 0.0, and a variance is never
    -0.0 (``s2`` and the squares are +0.0 or more, and a difference of equal
    floats is +0.0).
    """
    n_right = n - n_left
    mean = np.divide(s, n_left)
    np.divide(s2, n_left, out=out)
    out -= np.square(mean, out=mean)
    np.fmax(out, 0.0, out=out)
    out *= n_left
    np.subtract(total, s, out=mean)
    mean /= n_right
    right = np.subtract(total_sq, s2)
    right /= n_right
    right -= np.square(mean, out=mean)
    np.fmax(right, 0.0, out=right)
    right *= n_right
    out += right
    out /= n
    return out


def _presort(matrix: np.ndarray) -> np.ndarray:
    """Each feature's stable argsort, as a (features, rows) array: row f lists the rows in
    ascending order of feature f."""
    return np.argsort(matrix.T, axis=1, kind="stable")


def _grow_tree(matrix, y, rows, orders, depth, max_depth, min_samples_leaf) -> TreeNode:
    """The subtree over ``rows``, ascending indices into ``matrix`` and ``y``.

    ``orders`` holds the same rows once per feature, in stable ascending order
    of that feature, or is None at ``max_depth``, where a node is a leaf and
    searches nothing. A child filters its parent's rows and orders by the
    split mask; this keeps each child's rows in their original relative order,
    so the filtered order is exactly the child's own stable argsort.
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
    leaves = depth + 1 >= max_depth  # children at max_depth search nothing, so they get no orders
    mask = np.zeros(len(y), dtype=bool)
    mask[rows] = matrix[rows, feature] <= threshold
    left = _grow_tree(matrix, y, rows[mask[rows]], None if leaves else orders[mask[orders]].reshape(p, -1),
                      depth + 1, max_depth, min_samples_leaf)
    np.logical_not(mask, out=mask)
    right = _grow_tree(matrix, y, rows[mask[rows]], None if leaves else orders[mask[orders]].reshape(p, -1),
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
    ties included (in row order; ``-0.0`` ties ``0.0``). Children at
    ``max_depth`` are leaves, which search nothing, so they carry no orders. A
    node's targets ``y[rows]`` stay in row order, so its variance and leaf
    mean are those of the rows it holds, summed in the same order.

    A node scores every candidate cut once, squaring each child's mean by a
    multiply, and takes the first least score in scan order, with no
    tolerance; :func:`_best_split` shows why this takes the split of scoring
    the candidates one at a time. So targets scaled by a power of two give
    the same splits with every leaf value scaled by it, and an input column
    scaled by one gives the same splits with its thresholds scaled by it,
    bit for bit while the values stay normal. No step calls BLAS, so the
    model bytes do not depend on the CPU's kernel.

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


_forgetting_factor = _check(lambda v: _is_number(v) and 0 < v <= 1, "must be in (0, 1]")
_epsilon = _check(lambda v: _is_number(v) and 0 <= v <= 1, "must be in [0, 1]")


class IncrementalLinearLearner:
    """Incremental least squares with an intercept, in square-root information form.

    The learner keeps the upper triangular R and the vector Q'y of a QR factorization of the
    exponentially weighted design (the inputs plus a constant 1 column), starting from
    ``R = sqrt(delta) I`` and ``Q'y = 0``. After n rows x_i with targets y_i, oldest first, they
    factor the least-squares problem whose rows are ``sqrt(lam)^(n-1-i) [x_i | y_i]`` under the
    prior rows ``sqrt(lam)^n sqrt(delta) [I | 0]``, where lam is ``forgetting_factor`` and delta
    is ``regularization``. So ``R w = Q'y`` gives the w that minimizes
    ``sum_i lam^(n-1-i) (y_i - x_i w)^2 + delta lam^n |w|^2``: in exact arithmetic the estimate
    of per-row recursive least squares with the same lam and the prior P0 = I/delta.

    ``update`` checks a batch and copies its rows into a buffer. Every ``_FOLD_ROWS`` rows of the
    stream, wherever the batches begin and end, the buffer is folded into R: of the K rows folded,
    the newest is scaled by 1, each older one by ``sqrt(lam)`` more per step of age, and R and
    Q'y by ``sqrt(lam)^K``; then :func:`_triangularize` factors R stacked over the rows, as it
    factors :func:`fit_linear`'s design. ``sqrt(lam)^j`` is the product of j factors
    ``sqrt(lam)``, multiplied left to right. ``finalize`` folds the buffered rows into a copy, checks its R by
    :func:`_rank_rule` (for the rows seen plus the p prior rows) and back-substitutes. So the
    model depends on the rows, in order, and on nothing else: not on the batch sizes, nor on
    when it is read, nor on the CPU's BLAS kernel (no step calls BLAS).

    With a tiny forgetting factor the powers may underflow to 0: the older rows and the prior
    are then forgotten entirely, and ``finalize`` raises :class:`SingularDesign` if what remains
    does not determine w, or if R or the solution overflows float64. ``update`` reports no
    overflow.

    The schema (input columns and output column) is fixed by the first batch;
    later batches must match it. ``finalize`` snapshots the current estimate
    into a :class:`LinearModel` and may be called again after more batches.

    Raises:
        ValueError: when built, ``forgetting_factor must be in (0, 1], got ...``
            or ``regularization must be a positive number, got ...``.
    """

    def __init__(self, forgetting_factor: float = 1.0, regularization: float = 1e-8):
        self.forgetting_factor = _setting("forgetting_factor", forgetting_factor, _forgetting_factor)
        self.regularization = _setting("regularization", regularization, _positive)
        # Rows 0..p-1 hold the design columns and row p the targets: first R' over Q'y, then the
        # rows buffered since the last fold.
        self._block: np.ndarray | None = None
        self._powers: np.ndarray | None = None  # sqrt(lam)^j for j = 0, ..., _FOLD_ROWS
        self._buffered = 0
        self._rows = 0
        self._input_columns: tuple[str, ...] | None = None
        self._output_column: str | None = None

    def update(self, inputs: Dataset, outputs: Dataset) -> None:
        """Check one batch and buffer its rows; a batch refused with an error leaves the learner unchanged."""
        columns, y = _training_columns(inputs, outputs)
        if self._block is None:
            p = len(columns) + 1
            self._block = np.zeros((p + 1, p + _FOLD_ROWS))
            self._block[:p, :p] = np.eye(p) * math.sqrt(self.regularization)
            self._block[p - 1, p:] = 1.0  # the buffered rows' intercept column
            self._powers = np.ones(_FOLD_ROWS + 1)
            np.multiply.accumulate(np.full(_FOLD_ROWS, math.sqrt(self.forgetting_factor)), out=self._powers[1:])
            self._input_columns = inputs.column_names
            self._output_column = outputs.column_names[0]
        elif (inputs.column_names, outputs.column_names[0]) != (self._input_columns, self._output_column):
            raise SchemaMismatch(
                f"batch columns {list(inputs.column_names)} -> {outputs.column_names[0]!r} != "
                f"{list(self._input_columns)} -> {self._output_column!r}"
            )
        block = self._block
        p, width = len(block) - 1, block.shape[1]
        done = 0
        while done < len(y):
            at = p + self._buffered
            take = min(len(y) - done, width - at)
            rows = slice(done, done + take)
            if columns:
                block[:p - 1, at:at + take] = [column[rows] for column in columns]
            block[p, at:at + take] = y[rows]
            done += take
            self._buffered += take
            if at + take == width:
                self._fold(block, self._buffered)
                self._buffered = 0
                block[p - 1, p:] = 1.0  # the buffered rows' intercept column
        self._rows += len(y)

    def _fold(self, block: np.ndarray, m: int) -> None:
        """Fold the first m rows buffered in ``block`` into its R and Q'y, in place.

        Each row of R' keeps its zeros right of the diagonal: every reflection's v is 0 there."""
        if m == 0:
            return
        p = len(block) - 1
        with np.errstate(over="ignore", invalid="ignore"):  # finalize raises SingularDesign on an overflow
            block[:, :p] *= self._powers[m]
            block[:, p:p + m] *= self._powers[m - 1::-1]
            _triangularize(block[:, :p + m])

    def _factor(self) -> np.ndarray | None:
        """``[R' | Q'y]``, stacked as in ``_block``, with the buffered rows folded into a copy, or
        None before the first row.

        Raises:
            SingularDesign: if R is not finite, or :func:`_rank_rule` refuses it.
        """
        if self._rows == 0:
            return None
        p = len(self._block) - 1
        block = self._block[:, :p + self._buffered].copy()
        self._fold(block, self._buffered)
        factor = block[:, :p]
        if not np.isfinite(factor[:p]).all():
            raise SingularDesign("the triangular factor R is not finite: the sums overflow float64")
        _rank_rule(factor, self._rows + p)
        return factor

    def finalize(self) -> LinearModel:
        """Solve for the current weights and snapshot them as an immutable model.

        Raises:
            NeverUpdated: if no sample has been absorbed.
            SingularDesign: as :meth:`_factor`, or if the solution is not finite.
        """
        factor = self._factor()
        if factor is None:
            raise NeverUpdated("incremental learner has not seen any data")
        weights = _back_substitute(factor[:-1].tolist(), factor[-1].tolist())
        if not all(map(math.isfinite, weights)):
            raise SingularDesign(f"the solution {weights!r} is not finite: the sums overflow float64")
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
    variance of an action is ``x' (R'R)^-1 x = |R'^-1 x|^2``, where x is the
    regressor (state, action, 1) and R the surrogate's triangular factor,
    with its buffered rows folded into a copy: one forward substitution per
    grid action, on Python floats (no BLAS call).

    Raises:
        ValueError: when built: ``epsilon must be in [0, 1], got ...``, ``action_grid_size
            must be a positive integer, got ...``, ``seed must be a non-negative integer,
            got ...``, as the surrogate for its settings, ``state_columns <message>, got ...``
            for a name list that ``dataset._names`` refuses (it may be empty, and holds no name
            twice), ``target_column must be a column name, got ...``, or if the action is a
            state column.
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
        self.state_columns = tuple(_setting("state_columns", state_columns, _distinct_names))
        self.target_column = _setting("target_column", target_column, _column_name)
        if action_space.name in self.state_columns:
            raise ValueError(f"the action {action_space.name!r} must not be a state column")
        self.action_space = action_space
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
            SingularDesign: if the rank rule refuses the surrogate's R, as
                when a tiny forgetting factor forgot the prior.
        """
        state = self._state(observation)
        if self._rng.random() < self.epsilon:
            return float(self.action_grid[self._rng.integers(len(self.action_grid))])
        factor = self._surrogate._factor()
        if factor is None:
            return float(self.action_grid[0])
        transposed = factor[:-1].tolist()  # R', lower triangular
        scores = []
        for action in self.action_grid.tolist():
            variance = 0.0
            for z in _forward_substitute(transposed, [*state, action, 1.0]):
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
                                regularization=_positive, batch_size=_positive_int),
}


def _is_object(value) -> bool:
    return isinstance(value, dict)


def _entry(obj: dict, key: str, where: str, check=None, what: str = ""):
    """``obj[key]``, or a ValueError naming ``where.key`` if it is missing or fails ``check``."""
    if key not in obj:
        raise ValueError(f"malformed model document: {where}.{key} is missing")
    if check is not None and not check(obj[key]):
        raise ValueError(f"malformed model document: {where}.{key} must be {what}")
    return obj[key]


# Each model document's params, read for the constructor of its kind: the readers check only the
# document's shape, and the constructor checks the values, naming the params entry it refuses.
def _linear_params(params: dict, n: int) -> dict:
    return {
        "weights": _entry(params, "weights", "params", lambda v: isinstance(v, list) and len(v) == n,
                          f"a list of {n} numbers"),
        "intercept": _entry(params, "intercept", "params"),
    }


def _tree_params(params: dict, n: int) -> dict:
    return {
        "root": TreeNode.from_dict(_entry(params, "root", "params", _is_object, "an object")),
        "max_depth": _entry(params, "max_depth", "params"),
        "min_samples_leaf": _entry(params, "min_samples_leaf", "params"),
    }


_MODEL_KINDS = {LinearModel.kind: (LinearModel, _linear_params),
                RegressionTreeModel.kind: (RegressionTreeModel, _tree_params)}


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
    inputs = _entry(doc, "input_schema", "model", lambda v: _names(v, allow_empty=True, unique=True) is None,
                    "a list of distinct column names")
    outputs = _entry(doc, "output_schema", "model", lambda v: _names(v) is None and len(v) == 1,
                     "a list of one column name")
    params = _entry(doc, "params", "model", _is_object, "an object")
    model_class, read = _MODEL_KINDS[kind]
    try:
        settings = read(params, len(inputs))
    except RecursionError:
        raise ValueError("malformed model document: tree nested too deeply") from None
    try:
        return model_class(**settings, input_columns=inputs, output_column=outputs[0])
    except ValueError as error:
        raise ValueError(f"malformed model document: params.{error}") from None


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
