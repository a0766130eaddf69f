import json
import math
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
from cpslearn.dataset import TraceColumn
from cpslearn.learners import (
    NeverUpdated,
    SchemaMismatch,
    ShapeMismatch,
    SingularDesign,
    TargetsOverflow,
    TooFewSamples,
    TreeTooDeep,
)
from conftest import random_dataset


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
            if best is None or score < best[0] - 1e-12:
                best = (score, feature, threshold, float(np.mean(y[mask])), float(np.mean(y[~mask])))
    return best


def reference_best_split(matrix: np.ndarray, y: np.ndarray, min_samples_leaf: int, square=lambda m: m**2):
    """Oracle: the split search as a scalar loop over every candidate cut; ``square``
    squares each child's mean (a float64 scalar's ``** 2`` calls the C library ``pow``)."""
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
            if best is None or score < best[0] - 1e-12:
                best = (score, feature, (xs[i - 1] + xs[i]) / 2.0)
    return best


def candidate_scores(matrix: np.ndarray, y: np.ndarray, min_samples_leaf: int, square):
    """Per feature, the scores of all its candidate cuts, with ``square`` for each child's
    squared mean, and the feature's sum of squared targets."""
    n = len(y)
    for feature in range(matrix.shape[1]):
        order = np.argsort(matrix[:, feature], kind="stable")
        xs, ys = matrix[order, feature], y[order]
        sums, squares = np.cumsum(ys), np.cumsum(ys * ys)
        i = np.arange(min_samples_leaf, n - min_samples_leaf + 1)
        i = i[xs[i - 1] != xs[i]]
        s, s2 = sums[i - 1], squares[i - 1]
        var_left = s2 / i - square(s / i)
        var_right = (squares[-1] - s2) / (n - i) - square((sums[-1] - s) / (n - i))
        scores = (i * np.where(var_left > 0.0, var_left, 0.0) + (n - i) * np.where(var_right > 0.0, var_right, 0.0)) / n
        yield scores, squares[-1]


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

    @settings(deadline=None, max_examples=200)
    @given(split_problems())
    def test_screened_scores_are_within_an_eighth_of_the_margin(self, problem):
        """Squaring by a multiply moves no candidate's score by more than an eighth of the
        screen's margin: 4 times the bound B that ``_best_split`` derives (the margin is 32 B)."""
        matrix, y, min_samples_leaf = problem
        exact = candidate_scores(matrix, y, min_samples_leaf, lambda m: np.float_power(m, 2.0))
        screened = candidate_scores(matrix, y, min_samples_leaf, lambda m: m * m)
        for (scores, total_sq), (screened_scores, _) in zip(exact, screened):
            margin = learners._screen_margin(total_sq, len(y))
            assert np.all(np.abs(screened_scores - scores) <= margin / 8)

    def test_pow_decides_where_a_multiply_would_not(self):
        """At an offset of 1e8 the scores' rounding outweighs the targets' variance: squaring
        by a multiply changes scores and the split a search would take (0.175 becomes 1.075),
        and the search still takes the scalar loop's. A multiply on either side of the exact
        scores, or a screen without its margin, takes another split or score here."""
        matrix = np.array([[0.58], [-0.52], [-0.23], [1.57]])
        y = np.array([99999998.0, 99999998.0, 100000000.0, 100000000.0])
        exact = [scores for scores, _ in candidate_scores(matrix, y, 1, lambda m: np.float_power(m, 2.0))]
        multiplied = [scores for scores, _ in candidate_scores(matrix, y, 1, lambda m: m * m)]
        assert any((a != b).any() for a, b in zip(exact, multiplied))
        expected = reference_best_split(matrix, y, 1)
        assert reference_best_split(matrix, y, 1, square=lambda m: m * m)[1:] != expected[1:]
        assert learners._best_split(matrix, y, 1, learners._presort(matrix)) == expected

    def test_fit_memory_stays_below_the_per_feature_search(self):
        """19 998 x 5 rows whose first feature's scores fall smoothly, so the survivors of the
        screen are many: the per-feature search peaked at 6.0 MB here and this one at 4.98 MB.
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
        # Exponential targets peel one row off per split: a chain 1 499 nodes deep.
        x = np.arange(1500.0)
        y = 1.2 ** x / 1.2 ** x[-1]
        with pytest.raises(TreeTooDeep, match="max_depth=10000"):
            fit_tree(Dataset({"x": x}), Dataset({"y": y}), max_depth=10_000)

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


@st.composite
def rls_streams(draw):
    """(dim, forgetting factor, regularization, rows, targets, batch size)."""
    dim = draw(st.integers(1, 8))
    forget = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
    regularization = draw(st.sampled_from([1e-8, 1e-2, 1.0, 1e3]))
    n = draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 8))
    rows = rng.uniform(-1.0, 1.0, (n, dim)) * scale
    rows[draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0.0
    targets = rng.uniform(-1.0, 1.0, n) * 10.0 ** draw(st.integers(-3, 8))
    return dim, forget, regularization, rows, targets, draw(st.integers(1, 64))


EPS = np.finfo(np.float64).eps


def exact_weighted_ridge(rows, targets, forget: float, regularization: float):
    """Oracle: the Gram matrix G and the exact minimizer w of
    ``sum_i forget^(n-1-i) (y_i - x_i w)^2 + regularization forget^n |w|^2``,
    with x_i = (row_i[:-1], 1).

    Every float is an integer over a power of two, so one power of two S scales
    G and b to integers: with forget = L / 2^a, regularization = D / 2^f and each
    x, y = X / 2^e, S = 2^(a n + f + 2e) gives S forget^(n-1-i) x x' =
    L^(n-1-i) 2^(a (i+1) + f) X X' and S regularization forget^n = D L^n 2^(2e).
    Fraction-free (Bareiss) elimination then solves the integer system exactly.

    Returns G rounded to floats, and the integers N and q with w = N / q.
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
    scale = 1 << (a * n + f + 2 * e)
    gram = np.array([[v / scale for v in row[:dim]] for row in system])
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
    return gram, numerators, determinant


class TestInformationFormOracle:
    @settings(deadline=None, max_examples=60)
    @given(rls_streams())
    def test_learner_matches_exact_weighted_ridge(self, stream):
        """The learner's weights w agree with the exact minimizer w* to within the
        first-order rounding-error bound of forming G and b by sums and solving G w = b:

            |w - w*| <= 8 cond(G) u (|G_abs| / |G| + |b_abs| / (|G| |w*|)) |w*|

        (2-norms; u = eps / 2; G_abs and b_abs are the sums G and b with every
        x and y replaced by its absolute value). Where the sums do not cancel, the
        factor in parentheses is between 1 and 2; where they do, the rounding errors
        of the sums are relative to G_abs and b_abs, not to G and b. Or the learner
        raises SingularDesign, and only where cond(G) is too large for G's computed
        Cholesky factor to be guaranteed: cond(G) u ((2n + 3) |G_abs| / |G| + (d + 1)^2) >= 1.
        A forgetting factor whose powers underflow forgets the old rows and the prior:
        that is no error, only a larger cond(G)."""
        dim, forget, regularization, rows, targets, batch = stream
        n = len(rows)
        inputs = Dataset([(f"c{j}", rows[:, j]) for j in range(dim - 1)], row_count=n)
        outputs = Dataset({"y": targets})
        learner = IncrementalLinearLearner(forget, regularization)
        for start in range(0, n, batch):  # the last batch may be short
            learner.update(inputs.slice_rows(start, start + batch), outputs.slice_rows(start, start + batch))
        gram, numerators, denominator = exact_weighted_ridge(rows, targets, forget, regularization)
        design = np.abs(np.column_stack([rows[:, :-1], np.ones(n)]))
        with np.errstate(all="ignore"):  # a singular G has cond inf; tiny factors underflow
            condition, gram_norm = float(np.linalg.cond(gram)), float(np.linalg.norm(gram, 2))
            weighted = design * forget ** np.arange(n - 1.0, -1.0, -1.0)[:, np.newaxis]
            prior = regularization * forget**n * np.eye(dim)
            abs_gram = float(np.linalg.norm(weighted.T @ design + prior, 2))
            abs_moment = float(np.linalg.norm(weighted.T @ np.abs(targets)))
        try:
            model = learner.finalize()
        except SingularDesign:
            assert condition * EPS / 2 * ((2 * n + 3) * abs_gram / gram_norm + (dim + 1) ** 2) >= 1
            return
        fitted = [*model.weights.tolist(), model.intercept]
        ratios = [w.as_integer_ratio() for w in fitted]  # each w - N / q, rounded once
        error = math.hypot(*((p * denominator - num * q) / (q * denominator) for (p, q), num in zip(ratios, numerators)))
        exact_norm = math.hypot(*(num / denominator for num in numerators))
        assert error <= 8 * condition * EPS / 2 * (abs_gram / gram_norm * exact_norm + abs_moment / gram_norm)

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
        with pytest.raises(SingularDesign, match="pivot 1 is 0.0"):
            learner.finalize()

    def test_overflowing_sums_are_typed(self):
        """Update absorbs an overflow without a warning; finalize is the one signal."""
        learner = IncrementalLinearLearner()
        learner.update(Dataset({"a": [1.0, 2.0]}), Dataset({"y": [1e308, 1e308]}))  # the intercept's moment
        learner.update(Dataset({"a": np.arange(20.0)}), Dataset({"y": [1e308] * 20}))
        with pytest.raises(SingularDesign, match="is not finite"):
            learner.finalize()


def in_order(products: np.ndarray) -> np.ndarray:
    """The sum over the first axis, added strictly in order: ``P[0] + P[1] + ...``."""
    total = products[0].copy() if len(products) else np.zeros(products.shape[1:])
    for product in products[1:]:
        total += product
    return total


def numpy_reduce(products: np.ndarray) -> np.ndarray:
    """The sum over the first axis in the order numpy picks for the layout: in order for
    rows of at least two elements, pairwise for rows of one (a design of the intercept alone)."""
    return np.add.reduce(products, axis=0)


class PerBatchSums:
    """Oracle: G and b accumulated as each batch arrives, by the information form's
    per-batch arithmetic, with each batch's rows summed by ``row_sums``."""

    def __init__(self, forget: float, regularization: float, dim: int, row_sums=in_order):
        self.forget, self.row_sums = forget, row_sums
        self.gram = np.eye(dim) * regularization
        self.moment = np.zeros(dim)

    def update(self, matrix: np.ndarray, y: np.ndarray) -> None:
        m, forget = len(y), self.forget
        design = np.ones((m, matrix.shape[1] + 1))
        design[:, :-1] = matrix
        decays = np.array([forget ** k for k in range(m - 1, -1, -1)])
        decay = forget**m
        with np.errstate(over="ignore", invalid="ignore"):
            weighted = design * decays[:, np.newaxis]
            gram = self.row_sums(weighted[:, :, np.newaxis] * design[:, np.newaxis, :])
            moment = self.row_sums(weighted * y[:, np.newaxis])
            self.gram = self.gram * decay + gram
            self.moment = self.moment * decay + moment


def model_json(model: LinearModel) -> str:
    """The document :func:`save_model` writes for ``model``."""
    return json.dumps(model.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def outcome(solve):
    """The model JSON ``solve()`` gives, or the SingularDesign message it raises."""
    try:
        return model_json(solve())
    except SingularDesign as error:
        return f"SingularDesign: {error}"


@st.composite
def queued_streams(draw):
    """(dim, forgetting factor, queue budget in bytes, rows, targets, batch sizes, batch
    indices after which to finalize). Runs of equal batch sizes (0 to 70 rows) end in
    one more batch of any size; the budget holds 1 to 150 rows of outer products."""
    dim = draw(st.integers(1, 6))
    forget = draw(st.sampled_from([1.0, 0.9, 8.1e-49]))
    unit = 8 * dim * dim
    budget = draw(st.integers(unit, 150 * unit))
    runs = draw(st.lists(st.tuples(st.integers(0, 70), st.integers(1, 8)), min_size=1, max_size=4))
    sizes = [size for size, repeat in runs for _ in range(repeat)] + [draw(st.integers(0, 70))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    rows = rng.uniform(-1.0, 1.0, (n, dim - 1)) * 10.0 ** draw(st.integers(-3, 8))
    rows[rng.random((n, dim - 1)) < 0.1] = -0.0
    targets = rng.uniform(-1.0, 1.0, n) * 10.0 ** draw(st.integers(-3, 8))
    checkpoints = draw(st.sets(st.integers(0, len(sizes) - 1), max_size=3)) | {len(sizes) - 1}
    return dim, forget, budget, rows, targets, sizes, checkpoints


def oracles(forget: float, dim: int) -> list[PerBatchSums]:
    """The per-batch oracles a stream of this width must match byte for byte: rows summed in
    order, and, with at least two design columns, numpy's own per-batch ``np.add.reduce``."""
    sums = [in_order] + ([numpy_reduce] if dim >= 2 else [])
    return [PerBatchSums(forget, 1e-8, dim, row_sums) for row_sums in sums]


def feed(learner: IncrementalLinearLearner, references: list[PerBatchSums], rows, targets, size: int) -> None:
    """Stream ``rows`` and ``targets`` to the learner and to each oracle in batches of ``size`` rows."""
    for start in range(0, len(targets), size):
        stop = start + size
        learner.update(Dataset([(f"c{j}", rows[start:stop, j]) for j in range(rows.shape[1])]),
                       Dataset({"y": targets[start:stop]}))
        for reference in references:
            reference.update(rows[start:stop], targets[start:stop])


def assert_same_sums(learner: IncrementalLinearLearner, references: list[PerBatchSums]) -> None:
    gram, moment = learner._sums()
    for reference in references:
        assert gram.tobytes() == reference.gram.tobytes()
        assert moment.tobytes() == reference.moment.tobytes()


class TestBlockwiseAccumulation:
    """The learner queues batches and accumulates them blockwise; G, b and the model
    hold the same bytes as when each batch is accumulated as it arrives."""

    @settings(deadline=None, max_examples=60)
    @given(queued_streams())
    def test_same_bytes_as_per_batch_accumulation(self, stream):
        dim, forget, budget, rows, targets, sizes, checkpoints = stream
        learner = IncrementalLinearLearner(forget)
        references = oracles(forget, dim)
        start = 0
        with mock.patch.object(learners, "_QUEUE_BYTES", budget):
            for index, size in enumerate(sizes):
                stop = start + size
                inputs = Dataset([(f"c{j}", rows[start:stop, j]) for j in range(dim - 1)], row_count=size)
                learner.update(inputs, Dataset({"y": targets[start:stop]}))
                for reference in references:
                    reference.update(rows[start:stop], targets[start:stop])
                start = stop
                if index not in checkpoints:
                    continue
                if start == 0:
                    with pytest.raises(NeverUpdated):
                        learner.finalize()
                    continue
                fitted = outcome(learner.finalize)
                assert_same_sums(learner, references)
                gram, moment = references[0].gram.tolist(), references[0].moment.tolist()

                def solve():
                    weights = learners._solve_positive_definite(gram, moment)
                    return LinearModel(weights[:-1], weights[-1], inputs.column_names, "y")

                assert fitted == outcome(solve)

    def test_same_bytes_across_the_real_budget(self):
        """12 000 rows of 5 inputs in batches of 32 cross the budget of 3 640 rows
        three times."""
        rng = np.random.default_rng(23)
        rows, targets = rng.normal(size=(12_000, 5)) * 100.0, rng.normal(size=12_000)
        learner, references = IncrementalLinearLearner(0.9999), oracles(0.9999, 6)
        feed(learner, references, rows, targets, 32)
        assert learners._QUEUE_BYTES // (8 * 6 * 6) == 3_640
        assert_same_sums(learner, references)

    @pytest.mark.parametrize("forget", [1.0, 0.9, 8.1e-49])
    @pytest.mark.parametrize("dim", [2, 6])
    @pytest.mark.parametrize("size, count", [(32, 113), (32, 700), (1, 300), (5_000, 1)],
                             ids=["113x32", "700x32", "300x1", "1x5000"])
    def test_same_bytes_for_the_shapes_the_layout_changes(self, size, count, dim, forget):
        """Groups of 113 and 700 batches of 32 (at six design columns the budget holds 113, so
        700 split into groups), 300 one-row batches as the active learner queues them, and one
        batch larger than the budget."""
        rng = np.random.default_rng(size * count + dim)
        rows, targets = rng.normal(size=(size * count, dim - 1)) * 100.0, rng.normal(size=size * count)
        learner, references = IncrementalLinearLearner(forget), oracles(forget, dim)
        feed(learner, references, rows, targets, size)
        assert_same_sums(learner, references)

    def test_empty_batches_do_not_pile_up(self):
        """An empty batch counts as one row toward the queue's budget."""
        learner = IncrementalLinearLearner()
        with mock.patch.object(learners, "_QUEUE_BYTES", 8 * 2 * 2 * 10):  # 10 rows of width 2
            for _ in range(100):
                learner.update(Dataset({"a": np.empty(0)}), Dataset({"y": np.empty(0)}))
                assert len(learner._queue) <= 10

    def test_queue_memory_stays_bounded(self):
        """200 000 rows in batches of 32, each batch in new arrays: the traced peak stays
        near the 1 MiB budget of outer products instead of growing with the stream."""

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

    def test_zero_regressor_is_a_no_op(self):
        """A row x adds x x' to the Gram matrix G and x y to the moment b. A row of
        zero inputs adds nothing to them: only its intercept 1 moves G and b."""
        learner = IncrementalLinearLearner()
        learner.update(Dataset({"a": [1.0, 2.0], "b": [3.0, -1.0]}), Dataset({"y": [1.0, 4.0]}))
        gram, moment = (sums.copy() for sums in learner._sums())
        learner.update(Dataset({"a": [0.0], "b": [0.0]}), Dataset({"y": [123.0]}))
        gram[-1, -1] += 1.0
        moment[-1] += 123.0
        assert learner._sums()[0].tobytes() == gram.tobytes()
        assert learner._sums()[1].tobytes() == moment.tobytes()

    @pytest.mark.parametrize(
        "forgetting_factor, regularization, message",
        [
            (0.0, 1e-8, "forgetting_factor must be in"),
            (1.5, 1e-8, "forgetting_factor must be in"),
            (float("nan"), 1e-8, "forgetting_factor must be in"),
            (1.0, 0.0, "regularization must be positive, got"),
            (1.0, -1.0, "regularization must be positive, got"),
            (1.0, float("nan"), "regularization must be positive, got"),
            (1.0, float("inf"), "regularization must be positive, got"),
            ("0.5", 1e-8, "^forgetting_factor must be in \\(0, 1\\], got '0.5'$"),
            (True, True, "^forgetting_factor must be in \\(0, 1\\], got True$"),
            (1.0, True, "^regularization must be positive, got True$"),
            pytest.param(1.0, 10**400, "^regularization must be positive, got 10{400}$", id="1.0-10**400"),
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
        learner.update(Dataset({"a": [1.0]}), Dataset({"y": [1.0]}))
        with pytest.raises(SchemaMismatch):
            learner.update(Dataset({"b": [1.0]}), Dataset({"y": [1.0]}))

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
    (linear_doc, ("input_schema",), "a", "model.input_schema must be a list of column names"),
    (linear_doc, ("input_schema",), [1, 2], "model.input_schema must be a list of column names"),
    (linear_doc, ("output_schema",), [], "model.output_schema must be a list of one column name"),
    (linear_doc, ("output_schema",), None, "model.output_schema must be a list of one column name"),
    (linear_doc, ("params", "weights"), DELETE, "params.weights is missing"),
    (linear_doc, ("params", "weights"), "1,2", "params.weights must be a list of 2 numbers"),
    (linear_doc, ("params", "weights"), [1.0], "params.weights must be a list of 2 numbers"),
    (linear_doc, ("params", "weights"), [1.0, "2"], "params.weights must be a list of 2 numbers"),
    (linear_doc, ("params", "weights"), [1.0, 10**400], "params.weights must be a list of 2 numbers"),
    (linear_doc, ("params", "intercept"), DELETE, "params.intercept is missing"),
    (linear_doc, ("params", "intercept"), None, "params.intercept must be a number"),
    (linear_doc, ("params", "intercept"), float("nan"), "params.intercept must be a number"),
    (tree_doc, ("params", "root"), DELETE, "params.root is missing"),
    (tree_doc, ("params", "root"), [], "params.root must be an object"),
    (tree_doc, ("params", "max_depth"), DELETE, "params.max_depth is missing"),
    (tree_doc, ("params", "min_samples_leaf"), "1", "params.min_samples_leaf must be a positive integer"),
    (tree_doc, ("params", "root", "left"), DELETE, "params.root.left is missing"),
    (tree_doc, ("params", "root", "right"), 3, "params.root.right must be an object"),
    (tree_doc, ("params", "root", "feature"), 2, "params.root.feature must be a column index below 2"),
    (tree_doc, ("params", "root", "feature"), -1, "params.root.feature must be a column index below 2"),
    (tree_doc, ("params", "root", "feature"), True, "params.root.feature must be a column index below 2"),
    (tree_doc, ("params", "root", "threshold"), "0.5", "params.root.threshold must be a number"),
    (tree_doc, ("params", "root", "left", "left"), {"value": "x", "samples": 1},
     "params.root.left.left.value must be a number"),
    (tree_doc, ("params", "root", "left", "left"), {"value": 1.0}, "params.root.left.left.samples is missing"),
    *[(tree_doc, ("params", "max_depth"), value, "params.max_depth must be a non-negative integer")
      for value in (-3, True, 2.5)],
    *[(tree_doc, ("params", "min_samples_leaf"), value, "params.min_samples_leaf must be a positive integer")
      for value in (-3, 0, True, 2.5)],
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
            with pytest.raises(ValueError, match="regularization must be positive, got"):
                self._policy(regularization=regularization)
        for epsilon in (-0.1, 1.5):
            with pytest.raises(ValueError, match="epsilon must be in"):
                self._policy(epsilon=epsilon)
        with pytest.raises(ValueError, match="action_grid_size must be a positive integer, got"):
            self._policy(action_grid_size=0)
        with pytest.raises(ValueError, match="the action 'x' must not be a state column"):
            self._policy(action_space=ActionSpace("x", 0.0, 1.0))

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
        """The factor forgets the prior, and the tank's transitions alone do not make the
        Gram matrix definite in float64 (per-sample RLS returns NaN weights here)."""
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
