import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslearn.metrics import (
    ConstantActuals,
    EmptyInput,
    LengthMismatch,
    MetricWarning,
    NonBinaryValue,
    NonFiniteMetric,
    accuracy,
    f_beta,
    get_metric,
    mae,
    max_error,
    mse,
    precision,
    r2,
    recall,
)
from conftest import pairwise_mean, pairwise_sum


# Reference implementations: loops over Python floats that add pairwise (conftest's
# ``pairwise_sum``), written independently of the package internals, matching the documented
# conventions.

def ref_mae(p, a):
    return pairwise_sum(abs(pi - ai) for pi, ai in zip(p, a)) / len(p)


def ref_mse(p, a):
    return pairwise_sum((pi - ai) * (pi - ai) for pi, ai in zip(p, a)) / len(p)


def ref_max_error(p, a):
    m = 0.0
    for pi, ai in zip(p, a):
        m = max(m, abs(pi - ai))
    return m


def ref_r2(p, a):
    mean = pairwise_mean(a)
    num = pairwise_sum((ai - pi) * (ai - pi) for pi, ai in zip(p, a))
    den = pairwise_sum((ai - mean) * (ai - mean) for ai in a)
    return 1.0 - num / den


def ref_counts(p, a):
    tp = fp = fn = tn = 0
    for pi, ai in zip(p, a):
        if pi == 1 and ai == 1:
            tp += 1
        elif pi == 1 and ai == 0:
            fp += 1
        elif pi == 0 and ai == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def ref_accuracy(p, a):
    tp, fp, fn, tn = ref_counts(p, a)
    return (tp + tn) / len(p)


def ref_precision(p, a):
    tp, fp, _, _ = ref_counts(p, a)
    return tp / (tp + fp) if tp + fp else 0.0


def ref_recall(p, a):
    tp, _, fn, _ = ref_counts(p, a)
    return tp / (tp + fn) if tp + fn else 0.0


def ref_f_beta(p, a, beta):
    prec = ref_precision(p, a)
    rec = ref_recall(p, a)
    if prec == 0.0 and rec == 0.0:
        return 0.0
    return (1.0 + beta * beta) * prec * rec / (beta * beta * prec + rec)


class TestRegressionMetrics:
    def test_documented_values(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0
        assert mae([0, 0], [1, 3]) == 2.0  # (1 + 3) / 2
        assert mse([0, 0], [1, 3]) == 5.0  # (1 + 9) / 2
        assert mse([2], [5]) == 9.0
        assert max_error([0, 0], [1, 3]) == 3.0
        assert max_error([5], [2]) == 3.0

    def test_r2(self):
        assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
        assert r2([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0  # predicting the mean
        assert r2([1.0, 1.0], [1.0, 1.0]) == 1.0
        with pytest.raises(ConstantActuals):
            r2([1.0, 2.0], [1.0, 1.0])

    def test_sums_are_pairwise(self):
        """Left to right, each 1 is lost against 1e16 (2500000000000000.0); pairwise, the second
        and fourth errors add to 2 before they meet 1e16, and 1e16 + 2 is a float."""
        assert mae([1e16, 1.0, 1.0, 1.0], [0.0] * 4) == 2500000000000000.5

    def test_length_and_empty_errors(self):
        with pytest.raises(LengthMismatch):
            mae([1.0], [1.0, 2.0])
        with pytest.raises(EmptyInput):
            mse([], [])


class TestNonFiniteMetrics:
    @pytest.mark.parametrize("metric", [mse, r2])
    def test_square_that_overflows_is_typed(self, metric):
        """The errors are finite, and their squares overflow to inf."""
        with pytest.raises(NonFiniteMetric, match=f"^{metric.__name__}: a squared error overflows"):
            metric([0.0, 0.0], [1e200, -1e200])

    @pytest.mark.parametrize("metric", [mae, mse, max_error, r2])
    def test_infinite_error_is_typed(self, metric):
        with pytest.raises(NonFiniteMetric, match=metric.__name__):
            metric([-1.7e308, 1.7e308], [1.7e308, -1.7e308])

    @pytest.mark.parametrize("metric", [mae, mse, max_error, r2])
    def test_nan_is_typed(self, metric):
        with pytest.raises(NonFiniteMetric, match=f"^{metric.__name__} is nan"):
            metric([float("nan"), 0.0], [0.0, 1.0])

    @pytest.mark.parametrize("metric", [mae, mse, max_error, r2])
    @pytest.mark.parametrize("predicted, actual", [
        ([float("nan"), 0.0], [0.0, 1.0]),
        ([0.0, 1.0], [2.0, float("nan")]),
        ([float("inf"), float("nan")], [0.0, 1.0]),
    ])
    def test_nan_input_is_worded_as_nan(self, metric, predicted, actual):
        with pytest.raises(NonFiniteMetric, match=f"^{metric.__name__} is nan: an input is NaN$"):
            metric(predicted, actual)

    @pytest.mark.parametrize("metric", [mae, mse, max_error])
    def test_infinite_input_is_worded_as_infinite(self, metric):
        with pytest.raises(NonFiniteMetric, match=f"^{metric.__name__} is inf: an input is infinite$"):
            metric([float("inf"), 0.0], [0.0, 1.0])

    @pytest.mark.parametrize("metric", [mae, max_error])
    def test_finite_inputs_that_overflow_are_worded_as_overflow(self, metric):
        with pytest.raises(NonFiniteMetric, match=f"^{metric.__name__} is inf: the errors overflow float64$"):
            metric([-1.7e308, 1.7e308], [1.7e308, -1.7e308])

    @pytest.mark.parametrize("predicted", [[0.0, 0.0], [1e-300, 2e-300], [1.0, -1.0]])
    def test_underflowing_deviations_are_typed(self, predicted):
        """The actuals differ, but each squared deviation from their mean underflows to 0,
        whether the squared residuals sum to 0 or not."""
        with pytest.raises(NonFiniteMetric, match="^r2: the squared deviations of the actuals underflow to 0"):
            r2(predicted, [1e-300, 2e-300])

    def test_nan_after_a_larger_error_is_typed(self):
        with pytest.raises(NonFiniteMetric, match="^max_error is nan"):
            max_error([5.0, float("nan"), 0.0], [0.0, 1.0, 2.0])

    def test_large_finite_errors_are_values(self):
        assert mae([0.0, 0.0], [1e200, -1e200]) == 1e200
        assert max_error([0.0, 0.0], [1e200, -1e200]) == 1e200


class TestClassificationMetrics:
    def test_perfect_prediction(self):
        p = a = [1.0, 0.0, 1.0]
        assert accuracy(p, a) == 1.0
        assert precision(p, a) == 1.0
        assert recall(p, a) == 1.0
        assert f_beta(p, a) == 1.0

    def test_balanced_confusion(self):
        p, a = [1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]  # tp=fp=fn=tn=1
        assert accuracy(p, a) == 0.5
        assert precision(p, a) == 0.5
        assert recall(p, a) == 0.5
        assert f_beta(p, a) == 0.5

    def test_zero_division_conventions(self):
        with pytest.warns(MetricWarning):
            assert precision([0.0, 0.0], [1.0, 1.0]) == 0.0
        with pytest.warns(MetricWarning):
            assert recall([0.0, 0.0], [0.0, 0.0]) == 0.0
        with pytest.warns(MetricWarning):
            assert f_beta([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_non_binary_rejected(self):
        with pytest.raises(NonBinaryValue):
            accuracy([0.5, 1.0], [0.0, 1.0])

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            f_beta([1.0], [1.0], beta=0.0)

    @pytest.mark.parametrize(
        "beta", [float("inf"), float("nan"), 1e200, math.nextafter(math.sqrt(sys.float_info.max), math.inf)]
    )
    def test_beta_must_have_a_finite_square(self, beta):
        with pytest.raises(ValueError, match="^beta must be positive with a finite square"):
            f_beta([1.0], [1.0], beta=beta)

    @pytest.mark.parametrize("beta", ["1", True, np.True_, None, [1.0]])
    def test_beta_must_be_a_number(self, beta):
        with pytest.raises(ValueError, match="^beta must be positive with a finite square"):
            f_beta([1.0], [1.0], beta=beta)

    def test_largest_beta_has_a_value(self):
        beta = math.sqrt(sys.float_info.max)
        assert f_beta([1.0, 0.0], [1.0, 1.0], beta=beta) == ref_f_beta([1.0, 0.0], [1.0, 1.0], beta)


class TestOracleEquivalence:
    def test_regression_metrics_bit_for_bit(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            n = int(rng.integers(1, 21))
            p = rng.uniform(-100.0, 100.0, size=n).tolist()
            a = rng.uniform(-100.0, 100.0, size=n).tolist()
            assert mae(p, a) == ref_mae(p, a)
            assert mse(p, a) == ref_mse(p, a)
            assert max_error(p, a) == ref_max_error(p, a)
            if n >= 2:
                assert r2(p, a) == ref_r2(p, a)

    def test_classification_metrics_bit_for_bit(self):
        rng = np.random.default_rng(72)
        for _ in range(300):
            n = int(rng.integers(1, 21))
            p = rng.integers(0, 2, size=n).astype(float).tolist()
            a = rng.integers(0, 2, size=n).astype(float).tolist()
            beta = float(rng.choice([0.5, 1.0, 2.0]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MetricWarning)
                assert accuracy(p, a) == ref_accuracy(p, a)
                assert precision(p, a) == ref_precision(p, a)
                assert recall(p, a) == ref_recall(p, a)
                assert f_beta(p, a, beta) == ref_f_beta(p, a, beta)


class TestArrayInputs:
    def test_float64_arrays_match_the_loops_bit_for_bit(self):
        """Columns reach the metrics as float64 arrays, longer than the oracle's lists."""
        rng = np.random.default_rng(75)
        for n in (1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 1000, 5000):
            p, a = rng.uniform(-100.0, 100.0, size=n), rng.uniform(-100.0, 100.0, size=n)
            pairs = [(mae, ref_mae), (mse, ref_mse), (max_error, ref_max_error)]
            for metric, ref in pairs + ([(r2, ref_r2)] if n >= 2 else []):
                value = metric(p, a)
                assert type(value) is float
                assert value == ref(p.tolist(), a.tolist()), (metric.__name__, n)


class TestProperties:
    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6),
                st.floats(min_value=-1e6, max_value=1e6),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_metric_inequalities(self, pairs):
        p = [x for x, _ in pairs]
        a = [y for _, y in pairs]
        value_mae = mae(p, a)
        # The metrics sum n terms left to right, so each inequality holds up to
        # a relative rounding error of about n ulps (plus a few of the smallest
        # subnormal when the values underflow). A fixed absolute slack fails
        # once the values are large: three errors of 349525.71970788174 give
        # mae = max_error + 1 ulp.
        n = len(pairs)
        relative = 1.0 + 4 * n * sys.float_info.epsilon
        absolute = 4 * n * math.ulp(0.0)
        assert 0.0 <= value_mae <= max_error(p, a) * relative + absolute
        assert value_mae**2 <= mse(p, a) * relative + absolute  # Jensen

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e3, max_value=1e3),
                st.floats(min_value=-1e3, max_value=1e3),
            ),
            min_size=1,
            max_size=20,
        ),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_shift_invariance(self, pairs, shift):
        p = [x for x, _ in pairs]
        a = [y for _, y in pairs]
        p2 = [x + shift for x in p]
        a2 = [y + shift for y in a]
        assert mae(p2, a2) == pytest.approx(mae(p, a), abs=1e-9)
        assert mse(p2, a2) == pytest.approx(mse(p, a), rel=1e-6, abs=1e-9)
        assert max_error(p2, a2) == pytest.approx(max_error(p, a), abs=1e-9)

    def test_f_beta_between_precision_and_recall(self):
        rng = np.random.default_rng(73)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 25))
            p = rng.integers(0, 2, size=n).astype(float).tolist()
            a = rng.integers(0, 2, size=n).astype(float).tolist()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MetricWarning)
                prec, rec = precision(p, a), recall(p, a)
                if prec > 0.0 and rec > 0.0:
                    value = f_beta(p, a, beta=float(rng.choice([0.5, 1.0, 2.0])))
                    assert min(prec, rec) - 1e-12 <= value <= max(prec, rec) + 1e-12
                    checked += 1
        assert checked > 20

    def test_accuracy_is_one_minus_mae_on_binary(self):
        rng = np.random.default_rng(74)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            p = rng.integers(0, 2, size=n).astype(float).tolist()
            a = rng.integers(0, 2, size=n).astype(float).tolist()
            assert accuracy(p, a) == pytest.approx(1.0 - mae(p, a), abs=1e-12)


def test_registry_lookup():
    assert get_metric("mae") is mae
    with pytest.raises(ValueError):
        get_metric("nope")
