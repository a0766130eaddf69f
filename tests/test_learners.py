import json
import math
from fractions import Fraction
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpslearn import (
    ActionSpace,
    Dataset,
    EpsilonGreedyActiveLearner,
    IncrementalEnvironment,
    IncrementalLinearLearner,
    IoSpec,
    LinearModel,
    RegressionTreeLearner,
    RegressionTreeModel,
    SlidingWindow,
    WaterTankActiveEnvironment,
    fit_linear,
    fit_tree,
    learn_active,
    learn_incremental,
    load_model,
    model_from_dict,
    save_model,
)
from cpslearn import learners
from cpslearn.config import watertank_config
from cpslearn.dataset import NonFiniteValue, TraceColumn
from cpslearn.environments import WATERTANK_KIND
from cpslearn.learners import (
    NeverUpdated,
    SchemaMismatch,
    ShapeMismatch,
    SingularDesign,
    TargetsOverflow,
    TooFewSamples,
    TreeNode,
    TreeTooDeep,
)
from conftest import random_dataset, recursion_headroom


def brute_force_stump(matrix: np.ndarray, y: np.ndarray, min_leaf: int = 1):
    """Independent oracle: enumerate every feature/midpoint candidate directly."""
    n = len(y)
    best = None
    for feature in range(matrix.shape[1]):
        values = np.unique(matrix[:, feature])
        for low, high in zip(values[:-1], values[1:]):
            threshold = (low + high) / 2.0
            mask = matrix[:, feature] <= threshold
            n_left = int(mask.sum())
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            score = (n_left * np.var(y[mask]) + (n - n_left) * np.var(y[~mask])) / n
            if best is None or score < best[0]:
                best = (score, feature, threshold, float(np.mean(y[mask])), float(np.mean(y[~mask])))
    return best


def reference_best_split(matrix: np.ndarray, y: np.ndarray, min_samples_leaf: int, square=lambda m: m * m):
    """Oracle: the split search as a scalar loop over every candidate cut; ``square``
    squares each child's mean, by a multiply unless told otherwise."""
    n = len(y)
    best = None  # (score, feature, threshold)
    for feature in range(matrix.shape[1]):
        order = np.argsort(matrix[:, feature], kind="stable")
        xs = matrix[order, feature]
        ys = y[order]
        sums = np.concatenate([[0.0], np.cumsum(ys)])
        squares = np.concatenate([[0.0], np.cumsum(ys * ys)])
        total, total_sq = sums[n], squares[n]
        for i in range(min_samples_leaf, n - min_samples_leaf + 1):
            if xs[i - 1] == xs[i]:
                continue
            n_left, n_right = i, n - i
            var_left = max(0.0, squares[i] / n_left - square(sums[i] / n_left))
            var_right = max(
                0.0, (total_sq - squares[i]) / n_right - square((total - sums[i]) / n_right)
            )
            score = (n_left * var_left + n_right * var_right) / n
            if best is None or score < best[0]:
                best = (score, feature, (xs[i - 1] + xs[i]) / 2.0)
    return best


def reference_tree(matrix: np.ndarray, y: np.ndarray, depth: int, max_depth: int, min_samples_leaf: int) -> dict:
    """Oracle: the tree grown on each node's own row subset, searched by
    ``reference_best_split``, as the ``root`` entry of its model document."""
    if depth >= max_depth or len(y) < 2 * min_samples_leaf or np.var(y) == 0.0:
        return {"value": float(np.mean(y)), "samples": len(y)}
    split = reference_best_split(matrix, y, min_samples_leaf)
    if split is None:
        return {"value": float(np.mean(y)), "samples": len(y)}
    _, feature, threshold = split
    mask = matrix[:, feature] <= threshold
    return {
        "feature": feature,
        "threshold": threshold,
        "left": reference_tree(matrix[mask], y[mask], depth + 1, max_depth, min_samples_leaf),
        "right": reference_tree(matrix[~mask], y[~mask], depth + 1, max_depth, min_samples_leaf),
    }


def assert_tree_matches_reference(matrix: np.ndarray, y: np.ndarray, max_depth: int, min_samples_leaf: int):
    """``fit_tree``'s document equals the oracle's, compared as JSON text so
    that every float (``-0.0`` included) must match bit for bit."""
    inputs = Dataset({f"x{k}": matrix[:, k] for k in range(matrix.shape[1])})
    fitted = fit_tree(inputs, Dataset({"y": y}), max_depth, min_samples_leaf).to_dict()
    expected = reference_tree(matrix, y, 0, max_depth, min_samples_leaf)
    assert json.dumps(fitted["params"]["root"]) == json.dumps(expected)


def tree_depth(node) -> int:
    """The number of splits on the longest path from ``node`` to a leaf."""
    return 0 if node.is_leaf else 1 + max(tree_depth(node.left), tree_depth(node.right))


@st.composite
def split_problems(draw):
    """A node's (matrix, y, min_samples_leaf) with ties, constants and offsets."""
    n = draw(st.integers(2, 300))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(p):
        kind = draw(st.sampled_from(["continuous", "rounded", "constant"]))
        column = rng.normal(size=n) * 10.0 ** draw(st.integers(-3, 4))
        if kind == "rounded":
            column = np.round(column, draw(st.integers(-1, 1)))
        elif kind == "constant":
            column = np.full(n, column[0])
        columns.append(column)
    matrix = np.column_stack(columns)
    y_kind = draw(st.sampled_from(["continuous", "rounded", "constant", "linear"]))
    offset = draw(st.sampled_from([0.0, 1.0, 1e4, 1e8]))
    y = rng.normal(size=n) * 10.0 ** draw(st.integers(-3, 3))
    if y_kind == "rounded":
        y = np.round(y)
    elif y_kind == "constant":
        y = np.full(n, y[0])
    elif y_kind == "linear":
        y = 3.0 * matrix[:, 0]
    min_samples_leaf = draw(st.integers(1, n // 2))
    return matrix, y + offset, min_samples_leaf


class TestSplitSearchOracle:
    @settings(deadline=None, max_examples=200)
    @given(split_problems())
    def test_matches_scalar_loop(self, problem):
        matrix, y, min_samples_leaf = problem
        orders = learners._presort(matrix)
        assert learners._best_split(matrix, y, min_samples_leaf, orders) == reference_best_split(
            matrix, y, min_samples_leaf
        )

    @pytest.mark.parametrize("block", [1, 40])
    @settings(deadline=None, max_examples=150)
    @given(split_problems())
    def test_matches_scalar_loop_across_blocks(self, block, problem):
        """Features scored in blocks of ``block`` cuts: the incumbent and the running minima
        cross block boundaries."""
        matrix, y, min_samples_leaf = problem
        with mock.patch.object(learners, "_BLOCK", block):
            found = learners._best_split(matrix, y, min_samples_leaf, learners._presort(matrix))
        assert found == reference_best_split(matrix, y, min_samples_leaf)

    @pytest.mark.parametrize("block", [1, learners._BLOCK])
    def test_squares_are_a_multiply(self, block):
        """At an offset of 1e8 the scores' rounding outweighs the targets' variance, and
        squaring by the C library ``pow`` (a float64 scalar's ``** 2``) takes another split
        than squaring by a multiply (0.175, not 1.075). The search takes the multiply's, the
        second, equal feature's scores included: at ``_BLOCK`` 1 each feature is a block of
        its own, so the least score carries from the first block to the second."""
        column = np.array([0.58, -0.52, -0.23, 1.57])
        matrix = np.column_stack([column, column])
        y = np.array([99999998.0, 99999998.0, 100000000.0, 100000000.0])
        expected = reference_best_split(matrix, y, 1)
        assert expected[1:] == (0, 1.075)
        assert reference_best_split(matrix, y, 1, square=lambda m: m**2)[1:] == (0, 0.175)
        with mock.patch.object(learners, "_BLOCK", block):
            assert learners._best_split(matrix, y, 1, learners._presort(matrix)) == expected

    def test_fit_memory_stays_below_the_per_feature_search(self):
        """19 998 x 5 rows whose first feature's scores fall smoothly, so its running minima
        are many: the per-feature search peaked at 6.0 MB here and this one at 4.93 MB.
        A transposed copy of the matrix (0.8 MB) would pass 5.4 MB."""
        rng = np.random.default_rng(19_998)
        inputs = random_dataset(rng, 19_998, 5)
        outputs = Dataset({"y": inputs.column("c0") ** 2 + rng.normal(size=19_998)})
        tracemalloc.start()
        try:
            fit_tree(inputs, outputs, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.4e6

    def test_all_constant_features_have_no_split(self):
        matrix = np.full((6, 2), 3.0)
        y = np.arange(6.0)
        assert learners._best_split(matrix, y, 1, learners._presort(matrix)) is None
        assert reference_best_split(matrix, y, 1) is None

    def test_fitted_tree_matches_reference(self):
        rng = np.random.default_rng(33)
        inputs = random_dataset(rng, 2_000, 5)
        matrix = np.column_stack([inputs.column(c) for c in inputs.column_names])
        y = np.sin(matrix[:, 0]) + 0.1 * np.round(matrix[:, 1]) + rng.normal(size=2_000)
        assert_tree_matches_reference(matrix, y, max_depth=6, min_samples_leaf=3)

    @settings(deadline=None, max_examples=100)
    @given(split_problems(), st.integers(0, 8), st.data())
    def test_fitted_tree_matches_reference_on_ties_and_signed_zeros(self, problem, max_depth, data):
        matrix, y, min_samples_leaf = problem
        if data.draw(st.booleans(), label="signed zeros"):
            # Stable sorting must keep -0.0 and 0.0 as ties, in row order.
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="zeros seed"))
            column = data.draw(st.integers(0, matrix.shape[1] - 1), label="column")
            matrix[:, column] = rng.choice([-0.0, 0.0, 1.0, -1.0], size=len(y))
        assert_tree_matches_reference(matrix, y, max_depth, min_samples_leaf)


def exact_least_squares(columns: list, targets: list) -> list | None:
    """The exact least-squares solution, as Fractions: the normal equations ``A'A w = A'y``,
    formed and solved in rationals by Gaussian elimination (every float is a rational); None
    if the columns are exactly collinear."""
    a = [[Fraction(v) for v in column] for column in columns]
    y = [Fraction(v) for v in targets]
    p = len(a)
    system = [[sum(u * v for u, v in zip(a[i], a[j])) for j in range(p)] + [sum(u * v for u, v in zip(a[i], y))]
              for i in range(p)]
    for k in range(p):
        pivot = next((i for i in range(k, p) if system[i][k] != 0), None)
        if pivot is None:
            return None
        system[k], system[pivot] = system[pivot], system[k]
        for i in range(k + 1, p):
            factor = system[i][k] / system[k][k]
            system[i] = [u - factor * v for u, v in zip(system[i], system[k])]
    solution = [Fraction(0)] * p
    for i in reversed(range(p)):
        solution[i] = (system[i][p] - sum(system[i][j] * solution[j] for j in range(i + 1, p))) / system[i][i]
    return solution


@st.composite
def least_squares_problems(draw):
    """(inputs as an (n, d) array, targets): column scales from 1e-3 to 1e8; column 1 may be
    3 times column 0 plus a small share of noise, so the design is near collinear."""
    d = draw(st.integers(0, 4))
    n = draw(st.integers(d + 1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = rng.uniform(-1.0, 1.0, (n, d)) * 10.0 ** rng.integers(-3, 9, size=d)
    if d >= 2 and draw(st.booleans()):
        noise = 10.0 ** draw(st.integers(-16, -4)) * np.max(np.abs(inputs[:, 0]))
        inputs[:, 1] = 3.0 * inputs[:, 0] + rng.uniform(-1.0, 1.0, n) * noise
    targets = inputs @ rng.normal(size=d) + rng.normal(size=n) * 10.0 ** draw(st.integers(-8, 2))
    return inputs, targets


class TestLinear:
    def test_exact_line(self):
        model = fit_linear(Dataset({"x": [0.0, 1.0, 2.0]}), Dataset({"y": [1.0, 3.0, 5.0]}))
        assert model.weights[0] == pytest.approx(2.0, abs=1e-10)
        assert model.intercept == pytest.approx(1.0, abs=1e-10)

    def test_constant_outputs(self):
        model = fit_linear(Dataset({"x": [0.0, 1.0, 2.0]}), Dataset({"y": [4.0, 4.0, 4.0]}))
        assert model.weights[0] == pytest.approx(0.0, abs=1e-10)
        assert model.intercept == pytest.approx(4.0, abs=1e-10)

    def test_underdetermined_is_singular(self):
        inputs = Dataset({"a": [1.0, 2.0], "b": [3.0, 4.0], "c": [5.0, 6.0]})
        with pytest.raises(SingularDesign):
            fit_linear(inputs, Dataset({"y": [1.0, 2.0]}))

    def test_collinear_is_singular(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(SingularDesign):
            fit_linear(Dataset({"a": x, "b": 2 * x}), Dataset({"y": x}))

    def test_overflowing_solution_is_singular(self):
        """Finite targets whose slope is past the largest double: no model holds an infinite weight."""
        inputs = Dataset({"a": [0.0, 0.25, 0.5, 0.75, 1.0]})
        outputs = Dataset({"y": [-1.7e308, -1e308, 0.0, 1e308, 1.7e308]})
        with pytest.raises(SingularDesign, match=r"^1 of 2 coefficients are not finite: the solution overflows float64$"):
            fit_linear(inputs, outputs)

    def test_row_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fit_linear(Dataset({"x": [1.0, 2.0]}), Dataset({"y": [1.0, 2.0, 3.0]}))

    def test_recovers_random_generators(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n, p = int(rng.integers(10, 60)), int(rng.integers(1, 5))
            inputs = random_dataset(rng, n, p)
            weights = rng.normal(size=p)
            intercept = float(rng.normal())
            matrix = np.column_stack([inputs.column(c) for c in inputs.column_names])
            y = Dataset({"y": matrix @ weights + intercept})
            model = fit_linear(inputs, y)
            assert np.max(np.abs(model.weights - weights)) < 1e-8
            assert abs(model.intercept - intercept) < 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n, p = int(rng.integers(20, 80)), int(rng.integers(1, 5))
            inputs = random_dataset(rng, n, p)
            y_values = rng.normal(size=n)
            model = fit_linear(inputs, Dataset({"y": y_values}))
            matrix = np.column_stack([inputs.column(c) for c in inputs.column_names])
            residual = y_values - (matrix @ model.weights + model.intercept)
            design = np.column_stack([matrix, np.ones(n)])
            assert np.max(np.abs(design.T @ residual)) < 1e-8

    @pytest.mark.parametrize("scale", [2.0**-44, 2.0**-52], ids=["2^-44", "2^-52"])
    def test_rank_rule_reads_the_diagonal_of_r(self, scale):
        """Design column 1 is column 0 plus ``scale`` times a column orthogonal to it and to the
        intercept (three columns of a 16 x 16 Hadamard matrix, so every value is exact): its
        distance from column 0's span is ``scale`` times its norm, to rounding. The rank rule
        refuses a column within ``max(n, p) eps = 16 eps = 2^-48`` of its norm of the span of the
        columns before it: 2^-44 is 16 times above that, and 2^-52 16 times below."""
        rows = np.arange(16)
        a = np.where(rows & 1, -1.0, 1.0)
        e = np.where(rows & 2, -1.0, 1.0)
        inputs = Dataset({"a": a, "b": a + scale * e})
        outputs = Dataset({"y": 3.0 + a + 2.0 * (a + scale * e)})
        if scale > 2.0**-48:
            model = fit_linear(inputs, outputs)
            assert model.weights.tolist() == pytest.approx([1.0, 2.0], rel=1e-2)
        else:
            with pytest.raises(SingularDesign, match=r"^design matrix is rank deficient: design column 1 "):
                fit_linear(inputs, outputs)

    @settings(deadline=None, max_examples=80)
    @given(least_squares_problems())
    def test_weights_are_within_the_first_order_bound_of_the_exact_solution(self, problem):
        """The weights w of ``fit_linear`` against the exact least-squares solution w*, in
        rationals. Householder QR is backward stable column by column (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., thm. 20.3): w is the exact solution for
        ``A + dA`` and ``y + dy`` with ``|dA_j| <= g |A_j|`` for each column A_j and
        ``|dy| <= g |y|``; take g = n p eps. With the columns scaled to unit norm, S = A D^-1
        and z* = D w*, first-order perturbation theory gives

            |w_j - w*_j| |A_j| <= |z - z*| <= 2 (g |y| + g sqrt(p) |z*|) / s + 2 g sqrt(p) |r| / s^2

        (2-norms; s the least singular value of S; r the exact residual; the factor 2 covers the
        second-order terms where ``g sqrt(p) / s <= 1/2``). Or the fit raises SingularDesign, and
        only where the rank rule can see a column within ``max(n, p) eps`` of its norm of the span
        of the columns before it, plus the backward error: ``s <= max(n, p) eps + g``."""
        inputs, targets = problem
        n, d = inputs.shape
        p = d + 1
        columns = [*inputs.T.tolist(), [1.0] * n]
        exact = exact_least_squares(columns, targets.tolist())
        design = np.column_stack([inputs, np.ones(n)])
        norms = np.linalg.norm(design, axis=0)
        s = float(np.linalg.svd(design / norms, compute_uv=False)[-1])
        g = n * p * EPS
        try:
            model = fit_linear(Dataset([(f"c{j}", inputs[:, j]) for j in range(d)], row_count=n),
                               Dataset({"y": targets}))
        except SingularDesign:
            assert s <= max(n, p) * EPS + g
            return
        assert exact is not None
        if g * math.sqrt(p) / s > 0.5:
            return
        residual = math.hypot(*(float(Fraction(y) - sum(Fraction(x[i]) * w for x, w in zip(columns, exact)))
                                for i, y in enumerate(targets.tolist())))
        z_norm = math.hypot(*(float(w) * norm for w, norm in zip(exact, norms.tolist())))
        y_norm = math.hypot(*targets.tolist())
        bound = 2 * (g * y_norm + g * math.sqrt(p) * z_norm) / s + 2 * g * math.sqrt(p) * residual / s**2
        for fitted, w, norm in zip([*model.weights.tolist(), model.intercept], exact, norms.tolist()):
            assert abs(float(Fraction(fitted) - w)) * norm <= bound

    @pytest.mark.parametrize("source", ["weights", "linear", "incremental_linear"])
    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_predict_adds_its_terms_in_the_stated_order(self, source, data):
        """Each prediction is ``0.0 + x_0 w_0 + x_1 w_1 + ... + intercept``, added left to right
        as Python floats, bit for bit, over the whole double range: a prediction that overflows
        raises NonFiniteValue. The weights are drawn, or fitted by either linear learner."""
        d = data.draw(st.integers(0, 4))
        wide = st.floats(allow_nan=False, allow_infinity=False)
        names = [f"c{j}" for j in range(d)]
        if source == "weights":
            model = LinearModel(data.draw(st.lists(wide, min_size=d, max_size=d)), data.draw(wide), names, "y")
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            train = Dataset([(name, rng.normal(size=12) * 10.0 ** rng.integers(-5, 6)) for name in names],
                            row_count=12)
            targets = Dataset({"y": rng.normal(size=12)})
            if source == "linear":
                model = fit_linear(train, targets)
            else:
                learner = IncrementalLinearLearner()
                learner.update(train, targets)
                model = learner.finalize()
        rows = data.draw(st.lists(st.lists(wide, min_size=d, max_size=d), min_size=1, max_size=5))
        expected = []
        for row in rows:
            value = 0.0
            for x, w in zip(row, model.weights.tolist()):
                value += x * w
            expected.append(value + model.intercept)
        inputs = Dataset([(name, [row[j] for row in rows]) for j, name in enumerate(names)], row_count=len(rows))
        if all(map(math.isfinite, expected)):
            assert model.predict(inputs).column("y").tobytes() == np.array(expected).tobytes()
        else:
            with pytest.raises(NonFiniteValue):
                model.predict(inputs)

    def test_predict(self):
        model = LinearModel([2.0], 1.0, ["x"], "y")
        out = model.predict(Dataset({"x": [0.0, 10.0]}))
        assert out.column("y").tolist() == [1.0, 21.0]
        with pytest.raises(SchemaMismatch):
            model.predict(Dataset({"x": [0.0], "extra": [1.0]}))
        with pytest.raises(SchemaMismatch):
            model.predict(Dataset({"z": [0.0]}))


class TestRegressionTree:
    def test_known_stump(self):
        inputs = Dataset({"x": [1.0, 2.0, 3.0, 4.0]})
        outputs = Dataset({"y": [0.0, 0.0, 10.0, 10.0]})
        model = fit_tree(inputs, outputs, max_depth=1)
        assert model.root.feature == 0
        assert model.root.threshold == 2.5
        assert model.root.left.value == 0.0
        assert model.root.right.value == 10.0
        predictions = model.predict(Dataset({"x": [2.4, 2.6]}))
        assert predictions.column("y").tolist() == [0.0, 10.0]

    def test_pure_targets_yield_single_leaf(self):
        model = fit_tree(Dataset({"x": [1.0, 2.0, 3.0]}), Dataset({"y": [7.0, 7.0, 7.0]}), 5)
        assert model.root.is_leaf
        assert model.root.value == 7.0

    def test_depth_zero_predicts_mean(self):
        model = fit_tree(Dataset({"x": [1.0, 2.0]}), Dataset({"y": [1.0, 3.0]}), 0)
        assert model.root.is_leaf
        assert model.root.value == 2.0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            fit_tree(Dataset({"x": [1.0, 2.0, 3.0]}), Dataset({"y": [1.0, 2.0, 3.0]}), 3,
                     min_samples_leaf=2)

    @pytest.mark.parametrize("kwargs", [
        {"max_depth": 2.5}, {"max_depth": True}, {"max_depth": "3"}, {"max_depth": -1},
        {"min_samples_leaf": 1.5}, {"min_samples_leaf": False}, {"min_samples_leaf": np.True_},
        {"min_samples_leaf": 0},
    ], ids=str)
    def test_settings_that_are_not_integers_in_range_are_refused(self, kwargs):
        """2.5 and True once wrote models that model_from_dict refused, and 1.5 raised an IndexError."""
        fit = Dataset({"x": [1.0, 2.0, 3.0, 4.0]}), Dataset({"y": [0.0, 1.0, 0.0, 1.0]})
        ((name, _),) = kwargs.items()
        message = f"^{name} must be a {'positive' if name == 'min_samples_leaf' else 'non-negative'} integer, got "
        with pytest.raises(ValueError, match=message):
            fit_tree(*fit, **{"max_depth": 2, **kwargs})
        with pytest.raises(ValueError, match=message):
            RegressionTreeLearner(**kwargs)

    def test_any_integer_setting_is_stored_as_an_int(self):
        fit = Dataset({"x": [1.0, 2.0, 3.0, 4.0]}), Dataset({"y": [0.0, 1.0, 0.0, 1.0]})
        model = RegressionTreeLearner(np.int64(2), np.int32(1)).fit(*fit)
        assert (type(model.max_depth), type(model.min_samples_leaf)) == (int, int)
        assert model_from_dict(json.loads(json.dumps(model.to_dict()))).to_dict() == fit_tree(*fit, 2).to_dict()

    def test_tree_past_the_recursion_limit_is_typed(self):
        # Targets 4^(i - 99): the best split peels the largest row off, so the tree is a
        # chain 99 splits deep, past a limit 60 frames above the caller.
        x = np.arange(100.0)
        y = 4.0 ** (x - 99)
        with recursion_headroom(60), pytest.raises(TreeTooDeep, match="max_depth=10000"):
            fit_tree(Dataset({"x": x}), Dataset({"y": y}), max_depth=10_000)
        assert tree_depth(fit_tree(Dataset({"x": x}), Dataset({"y": y}), max_depth=10_000).root) == 99

    @pytest.mark.parametrize("max_depth", [0, 1, 5])
    def test_overflowing_targets_are_typed(self, max_depth):
        """Twenty 1e308 targets: their sum, and so the sum of their squares, overflows."""
        with pytest.raises(TargetsOverflow, match="^the targets in column 'y' are too large"):
            fit_tree(Dataset({"x": np.arange(20.0)}), Dataset({"y": [1e308] * 20}), max_depth)

    def test_only_a_split_search_needs_finite_squares(self):
        inputs, outputs = Dataset({"x": np.arange(20.0)}), Dataset({"y": [(-1.0) ** i * 1e200 for i in range(20)]})
        assert fit_tree(inputs, outputs, 0).root.value == 0.0
        with pytest.raises(TargetsOverflow):
            fit_tree(inputs, outputs, 1)

    def test_constant_features_become_leaf(self):
        model = fit_tree(Dataset({"x": [2.0, 2.0, 2.0, 2.0]}),
                         Dataset({"y": [1.0, 2.0, 3.0, 4.0]}), 4)
        assert model.root.is_leaf
        assert model.root.value == 2.5

    def test_tie_breaks_pick_lowest_feature(self):
        # Identical features give identical scores; the split must use feature 0.
        x = np.array([1.0, 2.0, 3.0, 4.0])
        model = fit_tree(Dataset({"a": x, "b": x.copy()}),
                         Dataset({"y": [0.0, 0.0, 5.0, 5.0]}), 1)
        assert model.root.feature == 0

    def test_structural_invariants_on_random_data(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(8, 60))
            inputs = random_dataset(rng, n, int(rng.integers(1, 4)))
            y_values = rng.uniform(-3.0, 3.0, size=n)
            max_depth = int(rng.integers(0, 6))
            min_leaf = int(rng.integers(1, 4))
            if n < 2 * min_leaf:
                continue
            model = fit_tree(inputs, Dataset({"y": y_values}), max_depth, min_leaf)
            assert tree_depth(model.root) <= max_depth
            leaves = []
            stack = [model.root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    leaves.append(node)
                else:
                    stack.extend([node.left, node.right])
            assert all(leaf.samples >= min_leaf for leaf in leaves)
            predictions = model.predict(random_dataset(rng, 20, len(inputs.column_names)).select(inputs.column_names))
            assert predictions.column("y").min() >= y_values.min() - 1e-12
            assert predictions.column("y").max() <= y_values.max() + 1e-12

    def test_depth_one_matches_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            n = int(rng.integers(4, 50))
            p = int(rng.integers(1, 5))
            inputs = random_dataset(rng, n, p)
            y_values = rng.uniform(0.0, 10.0, size=n)
            model = fit_tree(inputs, Dataset({"y": y_values}), 1)
            matrix = np.column_stack([inputs.column(c) for c in inputs.column_names])
            oracle = brute_force_stump(matrix, y_values)
            assert oracle is not None
            _, feature, threshold, left_value, right_value = oracle
            assert model.root.feature == feature
            assert model.root.threshold == threshold
            assert model.root.left.value == left_value
            assert model.root.right.value == right_value


def scaled_column(data: Dataset, name: str, k: int) -> Dataset:
    """``data`` with column ``name`` multiplied by 2^k, which is exact in the normal range."""
    return Dataset([(c, np.ldexp(data.column(c), k) if c == name else data.column(c)) for c in data.column_names])


def fit_kind(kind: str, train: Dataset, io: IoSpec):
    """The model a config of learner ``kind`` at its default settings learns from ``train``."""
    learner_class, drive, _ = learners.LOCAL_KINDS[kind]
    return drive(learner_class, train, io)


def predicted(model, rows: Dataset) -> np.ndarray:
    return model.predict(rows.select(model.input_columns)).column(model.output_column)


@st.composite
def unit_problems(draw):
    """A learner kind, a training set of 2-60 rows and 1-3 uniform inputs, and k in [-100, 100].
    The targets are continuous, rounded to 0.5 so that scores tie, or constant, with magnitudes
    up to 10: scaled by 2^k they and their squares stay normal."""
    kind = draw(st.sampled_from(sorted(learners.LOCAL_KINDS)))
    p = draw(st.integers(1, 3))
    n = draw(st.integers(p + 2 if kind != "regression_tree" else 2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.normal(size=n) * 3.0
    y_kind = draw(st.sampled_from(["continuous", "rounded", "constant"]))
    if y_kind == "rounded":
        y = np.round(y * 2.0) / 2.0
    elif y_kind == "constant":
        y = np.full(n, y[0])
    train = Dataset([*((f"x{j}", rng.uniform(-5.0, 5.0, size=n)) for j in range(p)), ("y", y)])
    return kind, train, IoSpec([f"x{j}" for j in range(p)], ["y"]), draw(st.integers(-100, 100))


class TestUnitInvariance:
    """Metamorphic relations (Chen et al., "Metamorphic Testing: A Review of Challenges and
    Opportunities", ACM Computing Surveys 51(1), 2018): a learner's model does not depend on the
    unit its data is measured in. Scaling by 2^k is exact, so each relation holds bit for bit.
    Each drawn example fits two models of at most 60 rows: under 10 ms."""

    @settings(deadline=None, max_examples=100)
    @given(unit_problems())
    def test_targets_times_a_power_of_two_scale_every_prediction(self, problem):
        kind, train, io, k = problem
        expected = np.ldexp(predicted(fit_kind(kind, train, io), train), k)
        assert predicted(fit_kind(kind, scaled_column(train, "y", k), io), train).tobytes() == expected.tobytes()

    @settings(deadline=None, max_examples=100)
    @given(unit_problems(), st.data())
    def test_an_input_times_a_power_of_two_keeps_every_prediction(self, problem, data):
        kind, train, io, k = problem
        if kind == "incremental_linear":
            kind = "linear"  # its ridge prior is absolute, so it depends on the input units
        name = data.draw(st.sampled_from(io.inputs))
        expected = predicted(fit_kind(kind, train, io), train)
        scaled = scaled_column(train, name, k)
        assert predicted(fit_kind(kind, scaled, io), scaled).tobytes() == expected.tobytes()

    @pytest.fixture(scope="class")
    def paper(self):
        """The training rows and io of ``watertank_config``'s scenario."""
        cfg = watertank_config()
        sample, _ = WATERTANK_KIND
        raw = sample(**{key: value for key, value in cfg["environment"].items() if key != "kind"}).observe()
        train, _ = SlidingWindow(3).apply(raw).split(cfg["split_fraction"])
        return train, IoSpec(cfg["io"]["inputs"], cfg["io"]["outputs"])

    @pytest.mark.parametrize("kind", sorted(learners.LOCAL_KINDS))
    @pytest.mark.parametrize("k", [-40, -20, -10, 10])
    def test_paper_targets_times_a_power_of_two(self, paper, kind, k):
        train, io = paper
        expected = np.ldexp(predicted(fit_kind(kind, train, io), train), k)
        assert predicted(fit_kind(kind, scaled_column(train, "x_2", k), io), train).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["linear", "regression_tree"])
    @pytest.mark.parametrize("k", [-30, -3, 5, 30])
    def test_paper_input_times_a_power_of_two(self, paper, kind, k):
        train, io = paper
        expected = predicted(fit_kind(kind, train, io), train)
        for name in io.inputs:
            scaled = scaled_column(train, name, k)
            assert predicted(fit_kind(kind, scaled, io), scaled).tobytes() == expected.tobytes(), name


# The exact oracle's integers carry a bits per row for a forgetting factor L / 2^a, so its cost
# grows with n a. Near the bound (8 columns, 100 rows, a = 51 to 65) it took 0.13-0.20 s per
# example on a 2 GHz Xeon; at 5e-324 (a = 1074) and 100 rows, 36 s.
ORACLE_ROW_BITS = 5_400


@st.composite
def rls_streams(draw):
    """(dim, forgetting factor, regularization, rows, targets, batch size, fold rows K). The rows n
    and the factor's exponent bits a are drawn jointly: n a <= ORACLE_ROW_BITS, with n up to 100
    for every factor of at most 54 bits (all factors from 0.25 up, and 1.0)."""
    dim = draw(st.integers(1, 8))
    forget = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
    regularization = draw(st.sampled_from([1e-8, 1e-2, 1.0, 1e3]))
    exponent_bits = forget.as_integer_ratio()[1].bit_length() - 1
    n = draw(st.integers(1, min(100, ORACLE_ROW_BITS // max(exponent_bits, 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 8))
    rows = rng.uniform(-1.0, 1.0, (n, dim)) * scale
    rows[draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0.0
    targets = rng.uniform(-1.0, 1.0, n) * 10.0 ** draw(st.integers(-3, 8))
    fold = draw(st.sampled_from([1, 3, 16, learners._FOLD_ROWS]))
    return dim, forget, regularization, rows, targets, draw(st.integers(1, 64)), fold


def tiny_factor_stream(forget: float, dim: int) -> tuple:
    """An rls_streams value of 4 rows for a factor too fine to draw with many rows."""
    rng = np.random.default_rng(dim)
    return dim, forget, 1e-2, rng.uniform(-1.0, 1.0, (4, dim)) * 10.0, rng.uniform(-1.0, 1.0, 4), 3, 2


EPS = np.finfo(np.float64).eps


def exact_weighted_ridge(rows, targets, forget: float, regularization: float):
    """Oracle: the exact minimizer w of
    ``sum_i forget^(n-1-i) (y_i - x_i w)^2 + regularization forget^n |w|^2``,
    with x_i = (row_i[:-1], 1).

    Every float is an integer over a power of two, so one power of two S scales
    the normal equations G w = b to integers: with forget = L / 2^a, regularization = D / 2^f
    and each x, y = X / 2^e, S = 2^(a n + f + 2e) gives S forget^(n-1-i) x x' =
    L^(n-1-i) 2^(a (i+1) + f) X X' and S regularization forget^n = D L^n 2^(2e).
    Fraction-free (Bareiss) elimination then solves the integer system exactly.

    Returns the integers N and q with w = N / q.
    """
    n, dim = rows.shape
    values = [*rows[:, :-1].ravel().tolist(), *targets.tolist()]
    e = max(float(v).as_integer_ratio()[1] for v in values).bit_length() - 1
    def scaled(v):  # v * 2^e, an integer
        num, den = float(v).as_integer_ratio()
        return num << (e - den.bit_length() + 1)
    design = [[scaled(v) for v in row[:-1]] + [1 << e] for row in rows.tolist()]
    ys = [scaled(v) for v in targets.tolist()]
    lam_num, lam_den = forget.as_integer_ratio()
    a = lam_den.bit_length() - 1
    reg_num, reg_den = regularization.as_integer_ratio()
    f = reg_den.bit_length() - 1
    decays = [lam_num ** (n - 1 - i) << (a * (i + 1) + f) for i in range(n)]
    system = [[0] * (dim + 1) for _ in range(dim)]  # [S G | S b]
    for j in range(dim):
        system[j][dim] = sum(s * x[j] * y for s, x, y in zip(decays, design, ys))
        for k in range(j + 1):
            system[j][k] = system[k][j] = sum(s * (x[j] * x[k]) for s, x in zip(decays, design))
        system[j][j] += reg_num * lam_num**n << (2 * e)
    previous = 1
    for k in range(dim - 1):  # G is positive definite: every pivot is positive
        for i in range(k + 1, dim):
            for j in range(k + 1, dim + 1):
                system[i][j] = (system[i][j] * system[k][k] - system[i][k] * system[k][j]) // previous
        previous = system[k][k]
    determinant = system[dim - 1][dim - 1]
    numerators = [0] * dim  # determinant * w, the integers of Cramer's rule
    for i in reversed(range(dim)):
        value = determinant * system[i][dim] - sum(system[i][k] * numerators[k] for k in range(i + 1, dim))
        numerators[i] = value // system[i][i]
    return numerators, determinant


def weighted_problem(rows, targets, forget: float, regularization: float) -> tuple:
    """The incremental learner's least-squares problem, in floats: the p prior rows
    ``sqrt(forget)^n sqrt(regularization) I`` over the design rows (row_i[:-1], 1), each with its
    target scaled by ``sqrt(forget)^(n-1-i)``; the targets of the prior rows are 0."""
    n, dim = rows.shape
    root = math.sqrt(forget)
    scales = np.array([root ** (n - 1 - i) for i in range(n)])
    design = np.column_stack([rows[:, :-1], np.ones(n)]) * scales[:, np.newaxis]
    prior = np.eye(dim) * (root**n * math.sqrt(regularization))
    return np.vstack([prior, design]), np.concatenate([np.zeros(dim), targets * scales])


def first_order_bound(design: np.ndarray, targets: np.ndarray, exact: list, g: float) -> tuple:
    """(|A_j| for each column, s, bound) for a least-squares problem ``A w = y`` and its exact
    solution w*: s is the least singular value of A with its columns scaled to unit norm (0 if a
    column is 0), and the bound on ``|w_j - w*_j| |A_j|`` is the one of
    :meth:`TestLinear.test_weights_are_within_the_first_order_bound_of_the_exact_solution`,

        2 (g |y| + g sqrt(p) |z*|) / s + 2 g sqrt(p) |r| / s^2,

    for w exact for ``A + dA`` and ``y + dy`` with ``|dA_j| <= g |A_j|`` and ``|dy| <= g |y|``;
    z* = D w*, and the residual r of w* is formed in floats, one ``math.fsum`` per row. The bound
    is inf outside the first-order regime ``g sqrt(p) / s <= 1/2``."""
    p = design.shape[1]
    norms = np.linalg.norm(design, axis=0)
    s = float(np.linalg.svd(design / norms, compute_uv=False)[-1]) if norms.all() else 0.0
    if 2 * g * math.sqrt(p) > s:
        return norms, s, math.inf
    w = [float(v) for v in exact]
    residual = math.hypot(*(y - math.fsum(x * v for x, v in zip(row, w))
                            for row, y in zip(design.tolist(), targets.tolist())))
    z_norm = math.hypot(*(v * norm for v, norm in zip(w, norms.tolist())))
    y_norm = math.hypot(*targets.tolist())
    return norms, s, 2 * (g * y_norm + g * math.sqrt(p) * z_norm) / s + 2 * g * math.sqrt(p) * residual / s**2


def fold_error(n: int, p: int) -> float:
    """The backward error g of the incremental learner after n rows of p design columns.

    A fold of m rows is a Householder QR of p + m rows, exact for its input perturbed by
    ``(p + m) p eps`` of each column's norm (Higham, thm. 19.4); later folds scale that input
    and its error alike. Over at most n folds of n rows in all, that sums to at most
    ``(n p + n) p eps``. Each row is scaled by at most n roundings of ``sqrt(lam)`` products,
    ``n eps`` of its norm. Together at most ``n (p + 1)^2 eps``."""
    return n * (p + 1) ** 2 * EPS


def batch_of(rows, targets) -> tuple[Dataset, Dataset]:
    """The inputs ``rows[:, :-1]`` and the ``targets``, as a learner's batch."""
    n, dim = rows.shape
    return Dataset([(f"c{j}", rows[:, j]) for j in range(dim - 1)], row_count=n), Dataset({"y": targets})


def feed(learner: IncrementalLinearLearner, rows, targets, batch: int) -> None:
    """Stream ``rows`` and ``targets`` to the learner in batches of ``batch`` rows."""
    for start in range(0, len(rows), batch):  # the last batch may be short
        learner.update(*batch_of(rows[start:start + batch], targets[start:start + batch]))


class TestWeightedRidgeOracle:
    @settings(deadline=None, max_examples=60)
    @given(rls_streams())
    @example(tiny_factor_stream(1e-300, 1))
    @example(tiny_factor_stream(1e-300, 3))
    @example(tiny_factor_stream(5e-324, 1))
    @example(tiny_factor_stream(5e-324, 3))
    def test_weights_are_within_the_first_order_bound_of_exact_weighted_ridge(self, stream):
        """The learner's weights w against the exact minimizer w* of its weighted ridge
        problem. The learner factors the weighted rows under the prior rows
        (:func:`weighted_problem`) by Householder QR, fold by fold, so w is the exact solution
        of that problem perturbed column by column by g = :func:`fold_error`, and
        :func:`first_order_bound` holds for it, in cond(A) and not in cond(A' A). Or the
        learner raises SingularDesign, and only where its rank rule, ``max(n + p, p) eps`` for
        the n rows and p prior rows, can see a column within that share of its norm of the span
        of the columns before it, plus the backward error: ``s <= (n + p) eps + sqrt(p) g``. A
        forgetting factor whose powers underflow forgets the old rows and the prior: that is
        no error, only a smaller s."""
        dim, forget, regularization, rows, targets, batch, fold = stream
        n = len(rows)
        learner = IncrementalLinearLearner(forget, regularization)
        with mock.patch.object(learners, "_FOLD_ROWS", fold):
            feed(learner, rows, targets, batch)
        numerators, denominator = exact_weighted_ridge(rows, targets, forget, regularization)
        exact = [Fraction(num, denominator) for num in numerators]
        g = fold_error(n, dim)
        with np.errstate(under="ignore"):
            norms, s, bound = first_order_bound(*weighted_problem(rows, targets, forget, regularization), exact, g)
        try:
            model = learner.finalize()
        except SingularDesign:
            assert s <= (n + dim) * EPS + math.sqrt(dim) * g
            return
        for fitted, w, norm in zip([*model.weights.tolist(), model.intercept], exact, norms.tolist()):
            assert abs(float(Fraction(fitted) - w)) * norm <= bound

    @settings(deadline=None, max_examples=80)
    @given(least_squares_problems(), st.sampled_from([1, 3, learners._FOLD_ROWS]))
    def test_without_forgetting_the_weights_are_within_the_bound_of_fit_linear(self, problem, fold):
        """With lam = 1 the learner solves ``fit_linear``'s problem under the prior rows
        ``sqrt(delta) I``. Those rows are zero rows, which change no least-squares solution,
        perturbed by ``sqrt(delta)`` in each column. So both weights are within
        :func:`first_order_bound` of the exact least-squares solution w*: ``fit_linear``'s with
        g = n p eps, the learner's with g = :func:`fold_error` + sqrt(delta) / min_j |A_j|;
        and they are within the sum of the two bounds of each other. Or the learner raises
        SingularDesign, as the rule of the oracle test above allows. Each example solves at
        most 30 rows of 5 columns in rationals: under 10 ms."""
        inputs, targets = problem
        n, d = inputs.shape
        p = d + 1
        train, outputs = Dataset([(f"c{j}", inputs[:, j]) for j in range(d)], row_count=n), Dataset({"y": targets})
        try:
            linear = fit_linear(train, outputs)
        except SingularDesign:
            return  # TestLinear says when that may happen
        learner = IncrementalLinearLearner()
        with mock.patch.object(learners, "_FOLD_ROWS", fold):
            learner.update(train, outputs)
        exact = exact_least_squares([*inputs.T.tolist(), [1.0] * n], targets.tolist())
        design = np.column_stack([inputs, np.ones(n)])
        norms, s, linear_bound = first_order_bound(design, targets, exact, n * p * EPS)
        g = fold_error(n, p) + math.sqrt(learner.regularization) / float(norms.min())
        _, _, bound = first_order_bound(design, targets, exact, g)
        try:
            model = learner.finalize()
        except SingularDesign:
            assert s <= (n + p) * EPS + math.sqrt(p) * g
            return
        pairs = zip([*model.weights.tolist(), model.intercept], [*linear.weights.tolist(), linear.intercept])
        for (incremental, fitted), norm in zip(pairs, norms.tolist()):
            assert abs(incremental - fitted) * norm <= bound + linear_bound

    def test_tiny_forgetting_factor_keeps_the_newest_target(self):
        """forget^k underflows to 0 for the older rows: the estimate is the last target.
        Per-row RLS cancels its P to exactly 0 here and stays at the first target, 3.0."""
        learner = IncrementalLinearLearner(forgetting_factor=8.1e-49)
        learner.update(Dataset([], row_count=4), Dataset({"y": [3.0, -2.0, 5.0, 7.0]}))
        assert learner.finalize().intercept == 7.0

    def test_singular_design_is_typed(self):
        """A constant input and the intercept are collinear; a tiny factor forgets the prior."""
        learner = IncrementalLinearLearner(forgetting_factor=1e-200)
        learner.update(Dataset({"a": [2.0, 2.0, 2.0]}), Dataset({"y": [1.0, 2.0, 3.0]}))
        with pytest.raises(SingularDesign, match="^design matrix is rank deficient: design column 1 "):
            learner.finalize()

    def test_overflowing_sums_are_typed(self):
        """Update absorbs an overflow without a warning; finalize is the one signal."""
        learner = IncrementalLinearLearner()
        learner.update(Dataset({"a": [1.0, 2.0]}), Dataset({"y": [1e308, 1e308]}))  # the intercept's moment
        learner.update(Dataset({"a": np.arange(20.0)}), Dataset({"y": [1e308] * 20}))
        with pytest.raises(SingularDesign, match="is not finite"):
            learner.finalize()

    def test_overflowing_factor_is_typed(self):
        """The squares of inputs of 1e200 overflow: R holds inf, which no rank rule reads."""
        learner = IncrementalLinearLearner()
        learner.update(Dataset({"a": [1e200, -3e200, 2e200]}), Dataset({"y": [1.0, 2.0, 3.0]}))
        with pytest.raises(SingularDesign, match="^the triangular factor R is not finite: the sums overflow float64$"):
            learner.finalize()


def model_json(model: LinearModel) -> str:
    """The document :func:`save_model` writes for ``model``."""
    return json.dumps(model.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def outcome(read):
    """The model JSON or the factor's bytes ``read()`` gives (None for no factor), or the
    SingularDesign or NeverUpdated it raises."""
    try:
        result = read()
    except (SingularDesign, NeverUpdated) as error:
        return f"{type(error).__name__}: {error}"
    if isinstance(result, LinearModel):
        return model_json(result)
    return None if result is None else result.tobytes()


@st.composite
def cut_streams(draw):
    """(dim, forgetting factor, fold rows K, rows, targets, cuts, reads). More than K rows, cut
    at up to 12 sorted positions (a repeated position is an empty batch); after each batch, no
    read, a ``finalize`` or the read the active learner makes (``_factor``)."""
    dim = draw(st.integers(1, 5))
    forget = draw(st.sampled_from([1.0, 0.9, 8.1e-49]))
    fold = draw(st.integers(1, 8))
    n = draw(st.integers(fold + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.uniform(-1.0, 1.0, (n, dim)) * 10.0 ** draw(st.integers(-3, 8))
    rows[rng.random((n, dim)) < 0.1] = -0.0
    targets = rng.uniform(-1.0, 1.0, n) * 10.0 ** draw(st.integers(-3, 8))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=12)))
    reads = draw(st.lists(st.sampled_from([None, "finalize", "_factor"]), min_size=len(cuts) + 1,
                          max_size=len(cuts) + 1))
    return dim, forget, fold, rows, targets, cuts, reads


class TestOneStreamOneModel:
    @settings(deadline=None, max_examples=100)
    @given(cut_streams())
    def test_any_cut_and_any_reads_give_the_bytes_of_one_batch(self, stream):
        """The learner folds at fixed row counts of the stream and reads fold into a copy, so
        after any rows its model and factor hold the bytes of one batch of those rows, and the
        reads change nothing after them. Each example feeds at most 40 rows in at most 13
        batches, with as many one-batch references: under 10 ms."""
        dim, forget, fold, rows, targets, cuts, reads = stream
        n = len(rows)

        def one_batch(stop: int) -> IncrementalLinearLearner:
            learner = IncrementalLinearLearner(forget)
            learner.update(*batch_of(rows[:stop], targets[:stop]))
            return learner

        with mock.patch.object(learners, "_FOLD_ROWS", fold):
            learner = IncrementalLinearLearner(forget)
            bounds = [0, *cuts, n]
            for start, stop, read in zip(bounds, bounds[1:], reads):
                learner.update(*batch_of(rows[start:stop], targets[start:stop]))
                if read:
                    assert outcome(getattr(learner, read)) == outcome(getattr(one_batch(stop), read))
            assert outcome(learner.finalize) == outcome(one_batch(n).finalize)

    @staticmethod
    def state(learner: IncrementalLinearLearner) -> tuple:
        """The rows seen, the rows buffered, and the bytes of R' over Q'y and the buffered rows."""
        p = len(learner._block) - 1
        return learner._rows, learner._buffered, learner._block[:, :p + learner._buffered].tobytes()

    def assert_same_bytes(self, forget: float, rows, targets, size: int) -> None:
        """Batches of ``size`` rows leave the state and the model of one batch of the rows and
        of batches of 7 rows, which start and end nowhere near a fold."""
        learners_by_size = {size: IncrementalLinearLearner(forget), 7: IncrementalLinearLearner(forget)}
        for batch, learner in learners_by_size.items():
            feed(learner, rows, targets, batch)
        whole = IncrementalLinearLearner(forget)
        whole.update(*batch_of(rows, targets))
        for learner in learners_by_size.values():
            assert self.state(learner) == self.state(whole)
            assert outcome(learner.finalize) == outcome(whole.finalize)

    def test_same_bytes_across_the_real_fold(self):
        """12 000 rows of 5 inputs in batches of 32 cross the fold of 4 096 rows twice, and
        leave 3 808 rows buffered."""
        rng = np.random.default_rng(23)
        rows, targets = rng.normal(size=(12_000, 6)) * 100.0, rng.normal(size=12_000)
        assert learners._FOLD_ROWS == 4_096
        self.assert_same_bytes(0.9999, rows, targets, 32)
        learner = IncrementalLinearLearner(0.9999)
        feed(learner, rows, targets, 32)
        assert self.state(learner)[:2] == (12_000, 12_000 - 2 * 4_096)

    @pytest.mark.parametrize("forget", [1.0, 0.9, 8.1e-49])
    @pytest.mark.parametrize("dim", [2, 6])
    @pytest.mark.parametrize("size, count", [(32, 113), (32, 700), (1, 300), (5_000, 1)],
                             ids=["113x32", "700x32", "300x1", "1x5000"])
    def test_same_bytes_for_the_shapes_the_layout_changes(self, size, count, dim, forget):
        """With the real fold of 4 096 rows: 113 batches of 32 (no fold, only the read's fold
        into a copy), 700 batches of 32 (five folds, then 1 920 rows buffered), 300 one-row
        batches as the active learner feeds them, and one batch larger than the buffer, split
        inside one update. Over a full fold the powers of sqrt(8.1e-49) underflow to 0."""
        rng = np.random.default_rng(size * count + dim)
        rows, targets = rng.normal(size=(size * count, dim)) * 100.0, rng.normal(size=size * count)
        self.assert_same_bytes(forget, rows, targets, size)

    def test_empty_batches_do_not_pile_up(self):
        """An empty batch buffers no row and leaves the learner never updated."""
        learner = IncrementalLinearLearner()
        for _ in range(100):
            learner.update(Dataset({"a": np.empty(0)}), Dataset({"y": np.empty(0)}))
            assert (learner._rows, learner._buffered) == (0, 0)
        with pytest.raises(NeverUpdated):
            learner.finalize()

    def test_queue_memory_stays_bounded(self):
        """200 000 rows in batches of 32, each batch in new arrays: the traced peak stays
        near the fold buffer of 4 096 rows and its fold's temporaries (under 1 MiB at six
        design columns) instead of growing with the stream."""

        class FreshBatches(IncrementalEnvironment):
            def __init__(self):
                self.rng, self.left = np.random.default_rng(5), 200_000

            def next_batch(self):
                if self.left == 0:
                    return None
                size = min(32, self.left)
                self.left -= size
                block = self.rng.normal(size=(6, size))
                block.setflags(write=False)  # the Dataset shares it instead of copying
                return Dataset([(f"c{j}", block[j]) for j in range(5)] + [("y", block[5])])

        io = IoSpec([f"c{j}" for j in range(5)], ["y"])
        tracemalloc.start()
        try:
            learn_incremental(FreshBatches(), None, io, IncrementalLinearLearner())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestRecursiveLeastSquares:
    def test_matches_batch_ols_via_incremental_learner(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n, p = int(rng.integers(30, 100)), int(rng.integers(1, 5))
            inputs = random_dataset(rng, n, p)
            y = Dataset({"y": rng.normal(size=n)})
            batch = fit_linear(inputs, y)
            learner = IncrementalLinearLearner(forgetting_factor=1.0, regularization=1e-8)
            learner.update(inputs, y)
            online = learner.finalize()
            assert np.max(np.abs(online.weights - batch.weights)) < 1e-6
            assert abs(online.intercept - batch.intercept) < 1e-6

    def test_zero_regressor_moves_only_the_intercept(self):
        """A row x adds x x' to the Gram matrix G = R'R and x y to the moment b = R'Q'y. A row of
        zero inputs adds only its intercept's 1 to G and y to b, to within the fold's rounding."""
        learner = IncrementalLinearLearner()
        learner.update(Dataset({"a": [1.0, 2.0], "b": [3.0, -1.0]}), Dataset({"y": [1.0, 4.0]}))
        before = learner._factor()
        learner.update(Dataset({"a": [0.0], "b": [0.0]}), Dataset({"y": [123.0]}))
        after = learner._factor()
        gram, moment = before[:-1] @ before[:-1].T, before[:-1] @ before[-1]
        gram[-1, -1] += 1.0
        moment[-1] += 123.0
        assert np.allclose(after[:-1] @ after[:-1].T, gram, rtol=0.0, atol=1e-13 * np.abs(gram).max())
        assert np.allclose(after[:-1] @ after[-1], moment, rtol=0.0, atol=1e-13 * np.abs(moment).max())

    @pytest.mark.parametrize(
        "forgetting_factor, regularization, message",
        [
            (0.0, 1e-8, "forgetting_factor must be in"),
            (1.5, 1e-8, "forgetting_factor must be in"),
            (float("nan"), 1e-8, "forgetting_factor must be in"),
            (1.0, 0.0, "regularization must be a positive number, got"),
            (1.0, -1.0, "regularization must be a positive number, got"),
            (1.0, float("nan"), "regularization must be a positive number, got"),
            (1.0, float("inf"), "regularization must be a positive number, got"),
            ("0.5", 1e-8, "^forgetting_factor must be in \\(0, 1\\], got '0.5'$"),
            (True, True, "^forgetting_factor must be in \\(0, 1\\], got True$"),
            (1.0, True, "^regularization must be a positive number, got True$"),
            pytest.param(1.0, 10**400, "^regularization must be a positive number, got 10{400}$", id="1.0-10**400"),
        ],
    )
    def test_incremental_learner_checks_its_parameters_when_built(self, forgetting_factor, regularization, message):
        with pytest.raises(ValueError, match=message):
            IncrementalLinearLearner(forgetting_factor, regularization)

    def test_never_updated(self):
        with pytest.raises(NeverUpdated):
            IncrementalLinearLearner().finalize()

    def test_finalized_model_is_a_snapshot(self):
        learner = IncrementalLinearLearner()
        learner.update(Dataset({"a": [1.0, 2.0]}), Dataset({"y": [3.0, 5.0]}))
        model = learner.finalize()
        weights, intercept = model.weights.copy(), model.intercept
        learner.update(Dataset({"a": [3.0, 4.0]}), Dataset({"y": [-1.0, 9.0]}))
        assert not np.array_equal(learner.finalize().weights, weights)
        assert np.array_equal(model.weights, weights)
        assert model.intercept == intercept

    def test_schema_fixed_by_first_batch(self):
        learner = IncrementalLinearLearner()
        learner.update(Dataset({"a": [1.0, 2.0]}), Dataset({"y": [1.0, 3.0]}))
        with pytest.raises(SchemaMismatch):
            learner.update(Dataset({"b": [1.0]}), Dataset({"y": [1.0]}))
        with pytest.raises(SchemaMismatch, match=r"^batch columns \['a'\] -> 'z' != \['a'\] -> 'y'$"):
            learner.update(Dataset({"a": [1.0]}), Dataset({"z": [1.0]}))
        assert learner.finalize().output_column == "y"

    @pytest.mark.parametrize(
        "inputs, outputs",
        [
            (Dataset({"a": [[1.0], [2.0]]}), Dataset({"y": [1.0, 2.0]})),  # a trace input column
            (Dataset({"a": [1.0, 2.0]}), Dataset({"y": [[1.0], [2.0]]})),  # a trace target
            (Dataset({"a": [1.0, 2.0]}), Dataset({"y": [1.0]})),  # row counts differ
            (Dataset({"a": [1.0]}), Dataset({"y": [1.0], "z": [2.0]})),  # two targets
        ],
    )
    def test_rejected_first_batch_fixes_no_schema(self, inputs, outputs):
        learner = IncrementalLinearLearner()
        with pytest.raises((TraceColumn, learners.ShapeMismatch)):
            learner.update(inputs, outputs)
        learner.update(Dataset({"b": [1.0, 2.0]}), Dataset({"w": [3.0, 5.0]}))
        model = learner.finalize()
        assert (model.input_columns, model.output_column) == (("b",), "w")


class TestDeterminism:
    def test_identical_fits_are_bit_identical(self):
        rng = np.random.default_rng(51)
        inputs = random_dataset(rng, 40, 3)
        outputs = Dataset({"y": rng.normal(size=40)})
        tree_a = fit_tree(inputs, outputs, 4)
        tree_b = fit_tree(inputs, outputs, 4)
        assert json.dumps(tree_a.to_dict()) == json.dumps(tree_b.to_dict())
        linear_a = fit_linear(inputs, outputs)
        linear_b = fit_linear(inputs, outputs)
        assert json.dumps(linear_a.to_dict()) == json.dumps(linear_b.to_dict())
        assert tree_a.model_id == tree_b.model_id


class TestSerialization:
    def test_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(61)
        inputs = random_dataset(rng, 30, 2)
        outputs = Dataset({"y": rng.normal(size=30)})
        for model in (fit_tree(inputs, outputs, 3), fit_linear(inputs, outputs)):
            path = tmp_path / f"{model.kind}.fcm.json"
            save_model(model, path)
            reloaded = load_model(path)
            probe = random_dataset(rng, 10, 2)
            assert np.array_equal(
                model.predict(probe).column("y"), reloaded.predict(probe).column("y")
            )

    def test_model_file_shape(self, tmp_path):
        model = fit_linear(Dataset({"x": [0.0, 1.0]}), Dataset({"y": [1.0, 3.0]}))
        path = tmp_path / "m.fcm.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["kind"] == "linear"
        assert doc["input_schema"] == ["x"]
        assert doc["output_schema"] == ["y"]
        assert "weights" in doc["params"]

    def test_fresh_process_predicts_identically(self, tmp_path):
        rng = np.random.default_rng(62)
        inputs = random_dataset(rng, 25, 2)
        outputs = Dataset({"y": rng.normal(size=25)})
        model = fit_tree(inputs, outputs, 4)
        path = tmp_path / "tree.fcm.json"
        save_model(model, path)
        probe = random_dataset(rng, 8, 2)
        expected = model.predict(probe).column("y").tolist()
        script = (
            "import json, sys\n"
            "from cpslearn import Dataset, load_model\n"
            "model = load_model(sys.argv[1])\n"
            "probe = Dataset(json.loads(sys.argv[2]))\n"
            "print(json.dumps(model.predict(probe).column('y').tolist()))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(path),
             json.dumps({name: probe.column(name).tolist() for name in probe.column_names})],
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(result.stdout) == expected


def linear_doc() -> dict:
    return fit_linear(Dataset({"a": [0.0, 1.0, 2.0], "b": [1.0, 0.0, 4.0]}),
                      Dataset({"y": [1.0, 2.0, 5.0]})).to_dict()


def tree_doc() -> dict:
    rng = np.random.default_rng(63)
    return fit_tree(random_dataset(rng, 40, 2), Dataset({"y": rng.normal(size=40)}), 2).to_dict()


def deep_tree_doc(depth: int) -> dict:
    node = {"value": 0.0, "samples": 1}
    for _ in range(depth):
        node = {"feature": 0, "threshold": 0.0, "left": node, "right": {"value": 1.0, "samples": 1}}
    doc = tree_doc()
    doc["params"].update(max_depth=depth, root=node)
    return doc


DELETE = object()


def edited(doc: dict, path: tuple, value) -> dict:
    """``doc`` with the entry at ``path`` set to ``value``, or deleted if ``value`` is DELETE."""
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


# (document maker, path, new value or DELETE, the entry the error names).
MALFORMED = [
    (linear_doc, ("params",), DELETE, "model.params is missing"),
    (linear_doc, ("params",), [1.0], "model.params must be an object"),
    (linear_doc, ("input_schema",), DELETE, "model.input_schema is missing"),
    (linear_doc, ("input_schema",), "a", "model.input_schema must be a list of distinct column names"),
    (linear_doc, ("input_schema",), [1, 2], "model.input_schema must be a list of distinct column names"),
    (linear_doc, ("output_schema",), [], "model.output_schema must be a list of one column name"),
    (linear_doc, ("output_schema",), None, "model.output_schema must be a list of one column name"),
    (linear_doc, ("params", "weights"), DELETE, "params.weights is missing"),
    (linear_doc, ("params", "weights"), "1,2", "params.weights must be a list of 2 numbers"),
    (linear_doc, ("params", "weights"), [1.0], "params.weights must be a list of 2 numbers"),
    (linear_doc, ("params", "weights"), [1.0, "2"], "params.weights must be finite numbers, got [1.0, '2']"),
    (linear_doc, ("params", "weights"), [1.0, 10**400],
     f"params.weights must be finite numbers, got [1.0, {10**400}]"),
    (linear_doc, ("params", "intercept"), DELETE, "params.intercept is missing"),
    (linear_doc, ("params", "intercept"), None, "params.intercept must be a number, got None"),
    (linear_doc, ("params", "intercept"), float("nan"), "params.intercept must be a number, got nan"),
    (tree_doc, ("params", "root"), DELETE, "params.root is missing"),
    (tree_doc, ("params", "root"), [], "params.root must be an object"),
    (tree_doc, ("params", "max_depth"), DELETE, "params.max_depth is missing"),
    (tree_doc, ("params", "min_samples_leaf"), "1", "params.min_samples_leaf must be a positive integer, got '1'"),
    (tree_doc, ("params", "root", "left"), DELETE, "params.root.left is missing"),
    (tree_doc, ("params", "root", "right"), 3, "params.root.right must be an object"),
    (tree_doc, ("params", "root", "feature"), 2, "params.root.feature must be a column index below 2, got 2"),
    (tree_doc, ("params", "root", "feature"), -1, "params.root.feature must be a column index below 2, got -1"),
    (tree_doc, ("params", "root", "feature"), True, "params.root.feature must be a column index below 2, got True"),
    (tree_doc, ("params", "root", "threshold"), "0.5", "params.root.threshold must be a number, got '0.5'"),
    (tree_doc, ("params", "root", "left", "left"), {"value": "x", "samples": 1},
     "params.root.left.left.value must be a number, got 'x'"),
    (tree_doc, ("params", "root", "left", "left"), {"value": 1.0}, "params.root.left.left.samples is missing"),
    *[(tree_doc, ("params", "max_depth"), value, f"params.max_depth must be a non-negative integer, got {value!r}")
      for value in (-3, True, 2.5)],
    *[(tree_doc, ("params", "min_samples_leaf"), value,
       f"params.min_samples_leaf must be a positive integer, got {value!r}")
      for value in (-3, 0, True, 2.5)],
    *[(linear_doc, ("input_schema",), value, "model.input_schema must be a list of distinct column names")
      for value in (["a", "a"], ["", "b"])],
    (linear_doc, ("output_schema",), [""], "model.output_schema must be a list of one column name"),
]


class TestMalformedModelDocuments:
    @pytest.mark.parametrize("make, path, value, message", MALFORMED)
    def test_malformed_entry_is_named(self, make, path, value, message):
        with pytest.raises(ValueError) as info:
            model_from_dict(edited(make(), path, value))
        assert type(info.value) is ValueError
        assert str(info.value) == f"malformed model document: {message}"

    def test_a_stump_depth_loads(self):
        """``max_depth`` 0 is a setting the fit takes, so a document may hold it."""
        assert model_from_dict(edited(tree_doc(), ("params", "max_depth"), 0)).max_depth == 0

    @pytest.mark.parametrize("doc", [None, [], "model"])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ValueError, match="must be an object"):
            model_from_dict(doc)

    def test_tree_nested_past_the_recursion_limit(self):
        with pytest.raises(ValueError, match="tree nested too deeply"):
            model_from_dict(deep_tree_doc(sys.getrecursionlimit() + 100))

    def test_deep_but_loadable_tree_still_loads(self):
        model = model_from_dict(deep_tree_doc(200))
        assert tree_depth(model.root) == 200
        predicted = model.predict(Dataset({"c0": [-1.0, 1.0], "c1": [0.0, 0.0]})).column("y")
        assert predicted.tolist() == [0.0, 1.0]

    def test_load_model_reports_malformed_files(self, tmp_path):
        path = tmp_path / "m.fcm.json"
        path.write_text(json.dumps(edited(tree_doc(), ("params", "root", "left"), DELETE)))
        with pytest.raises(ValueError, match="params.root.left is missing"):
            load_model(path)
        depth = sys.getrecursionlimit() * 3
        path.write_text('{"params": ' * depth + "{}" + "}" * depth)
        with pytest.raises(ValueError, match="nested too deeply"):
            load_model(path)


LEAF = TreeNode(value=1.0, samples=2)


class TestModelConstruction:
    """A model that can be built saves, and its document loads back: each constructor applies
    ``model_from_dict``'s rules."""

    @pytest.mark.parametrize("build, message", [
        (lambda: LinearModel([1.0], math.inf, ["a"], "y"), "intercept must be a number, got inf"),
        (lambda: LinearModel([math.nan], 0.0, ["a"], "y"), "weights must be finite numbers, got [nan]"),
        (lambda: LinearModel([1.0, 1.0], 0.0, ["a", "a"], "y"), "input_columns repeated names: ['a'], got ['a', 'a']"),
        (lambda: LinearModel([1.0, 2.0], 0.0, "ab", "y"), "input_columns must be a list of column names, got 'ab'"),
        (lambda: LinearModel([1.0], 0.0, ["a"], ""), "output_column must be a column name, got ''"),
        (lambda: RegressionTreeModel(LEAF, ["a"], "y", -1, 1), "max_depth must be a non-negative integer, got -1"),
        (lambda: RegressionTreeModel(LEAF, ["a"], "y", 1, 0), "min_samples_leaf must be a positive integer, got 0"),
        (lambda: LinearModel(["1.5"], 0.0, ["a"], "y"), "weights must be finite numbers, got ['1.5']"),
        (lambda: LinearModel([True], 0.0, ["a"], "y"), "weights must be finite numbers, got [True]"),
        (lambda: LinearModel(np.array([1.0, 2.0]) > 1.0, 0.0, ["a", "b"], "y"),
         "weights must be finite numbers, got [False, True]"),
        (lambda: RegressionTreeModel(TreeNode(feature=3, threshold=0.5, left=LEAF, right=LEAF), ["a"], "y", 1, 1),
         "root.feature must be a column index below 1, got 3"),
        (lambda: RegressionTreeModel(TreeNode(feature=0, threshold=math.nan, left=LEAF, right=LEAF), ["a"], "y", 1, 1),
         "root.threshold must be a number, got nan"),
        (lambda: RegressionTreeModel(TreeNode(feature=0, threshold=0.5, left=LEAF, right=TreeNode(value=math.inf)),
                                     ["a"], "y", 1, 1),
         "root.right.value must be a number, got inf"),
        (lambda: RegressionTreeModel(TreeNode(feature=0, threshold=0.5, left=None, right=LEAF), ["a"], "y", 1, 1),
         "root.left must be a tree node, got None"),
    ])
    def test_a_model_that_would_not_load_back_is_refused(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_a_built_model_loads_back(self, tmp_path):
        for model in (LinearModel([1.5], -2.0, ("a",), "y"), LinearModel([], 0.5, [], "y"),
                      RegressionTreeModel(LEAF, ["a", "b"], "y", 0, 1)):
            path = tmp_path / f"{model.kind}.fcm.json"
            save_model(model, path)
            assert load_model(path).to_dict() == model.to_dict()


class TestActiveLearner:
    def _policy(self, **kw):
        defaults = dict(
            action_space=ActionSpace("V", 0.0, 1.0),
            state_columns=("x",),
            target_column="x",
        )
        defaults.update(kw)
        return EpsilonGreedyActiveLearner(**defaults)

    def test_full_exploration_is_seeded_and_reproducible(self):
        obs = Dataset({"t": [0.0], "x": [1.0]})
        a = self._policy(epsilon=1.0, seed=7)
        b = self._policy(epsilon=1.0, seed=7)
        actions_a = [a.propose_action(obs) for _ in range(20)]
        actions_b = [b.propose_action(obs) for _ in range(20)]
        assert actions_a == actions_b
        assert len(set(actions_a)) > 1

    def test_untrained_greedy_returns_first_grid_action(self):
        policy = self._policy(epsilon=0.0)
        assert policy.propose_action(Dataset({"t": [0.0], "x": [1.0]})) == 0.0

    def test_actions_stay_inside_the_space(self):
        policy = self._policy(epsilon=0.5, seed=3)
        obs = Dataset({"t": [0.0], "x": [1.0]})
        for _ in range(50):
            action = policy.propose_action(obs)
            assert 0.0 <= action <= 1.0
            policy.observe_transition(obs, action, Dataset({"t": [0.1], "x": [0.9]}))

    def test_finalize_snapshots_surrogate(self):
        policy = self._policy(epsilon=0.0)
        obs = Dataset({"t": [0.0], "x": [1.0]})
        with pytest.raises(NeverUpdated):
            policy.finalize()
        policy.observe_transition(obs, 0.5, Dataset({"t": [0.1], "x": [0.98]}))
        model = policy.finalize()
        assert model.input_columns == ("x", "V")
        assert model.output_column == "x"

    def test_parameter_validation(self):
        for forgetting_factor in (0.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="forgetting_factor must be in"):
                self._policy(forgetting_factor=forgetting_factor)
        for regularization in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="regularization must be a positive number, got"):
                self._policy(regularization=regularization)
        for epsilon in (-0.1, 1.5):
            with pytest.raises(ValueError, match="epsilon must be in"):
                self._policy(epsilon=epsilon)
        with pytest.raises(ValueError, match="action_grid_size must be a positive integer, got"):
            self._policy(action_grid_size=0)
        with pytest.raises(ValueError, match="the action 'x' must not be a state column"):
            self._policy(action_space=ActionSpace("x", 0.0, 1.0))

    @pytest.mark.parametrize("kwargs, message", [
        ({"state_columns": "level"}, "state_columns must be a list of column names, got 'level'"),
        ({"state_columns": ["x", "x"]}, "state_columns repeated names: ['x'], got ['x', 'x']"),
        ({"state_columns": ["x", ""]}, "state_columns must not hold an empty name, got ['x', '']"),
        ({"target_column": 5}, "target_column must be a column name, got 5"),
        ({"target_column": ["x"]}, "target_column must be a column name, got ['x']"),
    ], ids=str)
    def test_column_names_are_checked_when_built(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            self._policy(**kwargs)
        assert str(info.value) == message

    def test_no_state_column_is_accepted(self):
        """The state may be empty: the surrogate then learns from the action alone."""
        assert self._policy(state_columns=[]).state_columns == ()

    @pytest.mark.parametrize("kwargs, message", [
        ({"action_grid_size": 2.5}, "action_grid_size must be a positive integer, got 2.5"),
        ({"action_grid_size": True}, "action_grid_size must be a positive integer, got True"),
        ({"epsilon": "0.1"}, "epsilon must be in [0, 1], got '0.1'"),
        ({"epsilon": True}, "epsilon must be in [0, 1], got True"),
        ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
        ({"forgetting_factor": True}, "forgetting_factor must be in (0, 1], got True"),
    ], ids=str)
    def test_settings_of_the_wrong_type_are_refused_by_name(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            self._policy(**kwargs)
        assert str(info.value) == message

    def test_numpy_scalar_settings_are_accepted(self):
        policy = self._policy(epsilon=np.float32(0.0), action_grid_size=np.int64(3), seed=np.uint8(7))
        assert policy.action_grid.tolist() == [0.0, 0.5, 1.0]

    def test_tiny_forgetting_factor_keeps_the_newest_target(self):
        """forget^k underflows for the older transitions: the surrogate's estimate is the
        newest target. Per-sample RLS cancels its P to exactly 0 here and stays at 3.0."""
        policy = self._policy(state_columns=(), forgetting_factor=8.1e-49)
        for target in (3.0, -2.0, 5.0, 7.0):
            policy.observe_transition(Dataset([], row_count=1), 0.0, Dataset({"x": [target]}))
        assert policy.finalize().intercept == 7.0

    def test_tiny_forgetting_factor_on_the_tank_is_typed(self):
        """The factor forgets the prior, and the tank's transitions alone do not give R a full
        rank in float64 (per-sample RLS returns NaN weights here)."""
        env = WaterTankActiveEnvironment()
        policy = self._policy(action_space=env.action_space, forgetting_factor=8.1e-49)
        with pytest.raises(SingularDesign):
            learn_active(env, policy, step_budget=50)

    @pytest.mark.parametrize("forget", [1.0, 0.99, 0.9])
    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    def test_matches_recursive_least_squares_reference(self, epsilon, forget):
        """In exact arithmetic per-sample RLS keeps P_n = G_n^-1, so both score every action
        alike: on the tank they choose the same actions and fit the same weights."""
        for seed in range(6):
            env = WaterTankActiveEnvironment()
            policy = self._policy(
                action_space=env.action_space, epsilon=epsilon, seed=seed, forgetting_factor=forget
            )
            reference = ReferenceRlsPolicy(np.linspace(0.0, 1.0, 11), epsilon, seed, forget, 1e-8)
            for _ in range(500):
                observation = env.observe()
                level = float(observation.column("x")[0])
                action = policy.propose_action(observation)
                assert action == reference.propose_action(level)
                env.act(action)
                env.advance()
                outcome = env.observe()
                policy.observe_transition(observation, action, outcome)
                reference.observe(level, action, float(outcome.column("x")[0]))
            model = policy.finalize()
            fitted = np.array([*model.weights, model.intercept])
            assert np.linalg.norm(fitted - reference.weights) <= 1e-9 * np.linalg.norm(reference.weights)


def reference_rls_update(P: np.ndarray, weights: np.ndarray, row: np.ndarray, target: float, forget: float):
    """Oracle: one rank-one update of per-sample recursive least squares, which keeps the
    inverse Gram matrix P in place of G. Returns the new (P, weights)."""
    Pr = P @ row
    gain = Pr / (forget + row @ Pr)
    weights = weights + gain * (target - row @ weights)
    P = (P - np.outer(gain, Pr)) / forget
    return (P + P.T) / 2.0, weights


class ReferenceRlsPolicy:
    """Oracle: the epsilon-greedy tank policy on one level column, with a per-sample RLS
    surrogate (P0 = I / regularization) that scores an action by x' P x, x = (level, action, 1)."""

    def __init__(self, grid: np.ndarray, epsilon: float, seed: int, forget: float, regularization: float):
        self.grid, self.epsilon, self.forget = grid, epsilon, forget
        self.rng = np.random.default_rng(seed)
        self.P = np.eye(3) / regularization
        self.weights = np.zeros(3)
        self.updates = 0

    def propose_action(self, level: float) -> float:
        if self.rng.random() < self.epsilon:
            return float(self.grid[self.rng.integers(len(self.grid))])
        if self.updates == 0:
            return float(self.grid[0])
        rows = [np.array([level, action, 1.0]) for action in self.grid]
        return float(self.grid[int(np.argmax([row @ self.P @ row for row in rows]))])

    def observe(self, level: float, action: float, next_level: float) -> None:
        row = np.array([level, action, 1.0])
        self.P, self.weights = reference_rls_update(self.P, self.weights, row, next_level, self.forget)
        self.updates += 1
