import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslearn import (
    ActionSpace,
    Dataset,
    EpsilonGreedyActiveLearner,
    IncrementalLinearLearner,
    LinearModel,
    RecursiveLeastSquares,
    fit_linear,
    fit_tree,
    load_model,
    model_from_dict,
    save_model,
)
from cpslearn import learners
from cpslearn.learners import (
    DimensionMismatch,
    NeverUpdated,
    SchemaMismatch,
    ShapeMismatch,
    SingularDesign,
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


def reference_best_split(matrix: np.ndarray, y: np.ndarray, min_samples_leaf: int):
    """Oracle: the split search as a scalar loop over every candidate cut."""
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
            var_left = max(0.0, squares[i] / n_left - (sums[i] / n_left) ** 2)
            var_right = max(
                0.0, (total_sq - squares[i]) / n_right - ((total - sums[i]) / n_right) ** 2
            )
            score = (n_left * var_left + n_right * var_right) / n
            if best is None or score < best[0] - 1e-12:
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

    def test_tree_past_the_recursion_limit_is_typed(self):
        # Exponential targets peel one row off per split: a chain 1 499 nodes deep.
        x = np.arange(1500.0)
        y = 1.2 ** x / 1.2 ** x[-1]
        with pytest.raises(TreeTooDeep, match="max_depth=10000"):
            fit_tree(Dataset({"x": x}), Dataset({"y": y}), max_depth=10_000)

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
            assert model.root.depth() <= max_depth
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


def reference_rls_update(rls: RecursiveLeastSquares, row, target: float) -> None:
    """Oracle: one rank-one update as plain array expressions, a new array per step."""
    row = np.asarray(row, dtype=np.float64)
    forget = rls.forgetting_factor
    Pr = rls._P @ row
    gain = Pr / (forget + row @ Pr)
    rls.weights = rls.weights + gain * (target - row @ rls.weights)
    rls._P = (rls._P - np.outer(gain, Pr)) / forget
    rls._P = (rls._P + rls._P.T) / 2.0
    rls.updates += 1


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


def assert_same_state(rls: RecursiveLeastSquares, reference: RecursiveLeastSquares) -> None:
    assert rls.weights.tobytes() == reference.weights.tobytes()
    assert rls._P.tobytes() == reference._P.tobytes()
    assert rls.updates == reference.updates


class TestRecursiveLeastSquaresOracle:
    @settings(deadline=None, max_examples=150)
    @given(rls_streams())
    def test_public_update_matches_reference(self, stream):
        dim, forget, regularization, rows, targets, _ = stream
        rls = RecursiveLeastSquares(dim, forget, regularization)
        reference = RecursiveLeastSquares(dim, forget, regularization)
        with np.errstate(all="ignore"):  # tiny factors overflow P; both sides alike
            for row, target in zip(rows, targets):
                rls.update(row, target)
                reference_rls_update(reference, row, target)
        assert_same_state(rls, reference)


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
        learner = IncrementalLinearLearner()
        with np.errstate(over="ignore"):  # the intercept's moment 1e308 + 1e308
            learner.update(Dataset({"a": [1.0, 2.0]}), Dataset({"y": [1e308, 1e308]}))
        with pytest.raises(SingularDesign, match="is not finite"):
            learner.finalize()


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
        rls = RecursiveLeastSquares(3)
        rls.update([1.0, 2.0, 3.0], 1.0)
        before = rls.weights.copy()
        rls.update([0.0, 0.0, 0.0], 123.0)
        assert np.array_equal(rls.weights, before)

    def test_dimension_mismatch(self):
        rls = RecursiveLeastSquares(2)
        with pytest.raises(DimensionMismatch):
            rls.update([1.0, 2.0, 3.0], 0.0)

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(42)
        rls = RecursiveLeastSquares(4, forgetting_factor=0.99)
        for _ in range(200):
            rls.update(rng.normal(size=4), float(rng.normal()))
        P = rls._P
        assert np.max(np.abs(P - P.T)) < 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RecursiveLeastSquares(2, forgetting_factor=0.0)
        with pytest.raises(ValueError):
            RecursiveLeastSquares(2, forgetting_factor=1.5)
        for regularization in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="regularization must be positive and finite"):
                RecursiveLeastSquares(2, regularization=regularization)
        for dim in (0, -1, 2.0, True):
            with pytest.raises(ValueError, match="dim must be a positive integer"):
                RecursiveLeastSquares(dim)

    @pytest.mark.parametrize(
        "forgetting_factor, regularization, message",
        [
            (0.0, 1e-8, "forgetting_factor must be in"),
            (1.5, 1e-8, "forgetting_factor must be in"),
            (float("nan"), 1e-8, "forgetting_factor must be in"),
            (1.0, 0.0, "regularization must be positive and finite"),
            (1.0, -1.0, "regularization must be positive and finite"),
            (1.0, float("nan"), "regularization must be positive and finite"),
            (1.0, float("inf"), "regularization must be positive and finite"),
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
        with pytest.raises((SchemaMismatch, learners.ShapeMismatch)):
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
    (tree_doc, ("params", "min_samples_leaf"), "1", "params.min_samples_leaf must be an integer"),
    (tree_doc, ("params", "root", "left"), DELETE, "params.root.left is missing"),
    (tree_doc, ("params", "root", "right"), 3, "params.root.right must be an object"),
    (tree_doc, ("params", "root", "feature"), 2, "params.root.feature must be a column index below 2"),
    (tree_doc, ("params", "root", "feature"), -1, "params.root.feature must be a column index below 2"),
    (tree_doc, ("params", "root", "feature"), True, "params.root.feature must be a column index below 2"),
    (tree_doc, ("params", "root", "threshold"), "0.5", "params.root.threshold must be a number"),
    (tree_doc, ("params", "root", "left", "left"), {"value": "x", "samples": 1},
     "params.root.left.left.value must be a number"),
    (tree_doc, ("params", "root", "left", "left"), {"value": 1.0}, "params.root.left.left.samples is missing"),
]


class TestMalformedModelDocuments:
    @pytest.mark.parametrize("make, path, value, message", MALFORMED)
    def test_malformed_entry_is_named(self, make, path, value, message):
        with pytest.raises(ValueError) as info:
            model_from_dict(edited(make(), path, value))
        assert type(info.value) is ValueError
        assert str(info.value) == f"malformed model document: {message}"

    @pytest.mark.parametrize("doc", [None, [], "model"])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ValueError, match="must be an object"):
            model_from_dict(doc)

    def test_tree_nested_past_the_recursion_limit(self):
        with pytest.raises(ValueError, match="tree nested too deeply"):
            model_from_dict(deep_tree_doc(sys.getrecursionlimit() + 100))

    def test_deep_but_loadable_tree_still_loads(self):
        model = model_from_dict(deep_tree_doc(200))
        assert model.root.depth() == 200
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
