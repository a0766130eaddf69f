import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslearn import Dataset, Explode, Select, SlidingWindow, Standardize, TransformChain
from cpslearn.dataset import NonFiniteValue, UnknownColumn
from cpslearn.transforms import (
    EmptyDataset,
    NotAListColumn,
    NotFitted,
    RaggedListLengths,
    StatisticsOverflow,
    WindowLargerThanData,
)
from conftest import random_dataset


class TestSlidingWindow:
    def test_three_step_pivot(self, toy_series):
        out = SlidingWindow(3).apply(toy_series)
        assert out.column_names == ("V_0", "x_0", "V_1", "x_1", "V_2", "x_2")
        rows = list(zip(*(out.column(n) for n in out.column_names)))
        assert rows == [
            (1.0, 10.0, 2.0, 20.0, 3.0, 30.0),
            (2.0, 20.0, 3.0, 30.0, 4.0, 40.0),
            (3.0, 30.0, 4.0, 40.0, 5.0, 50.0),
        ]

    def test_window_one_renames_only(self, toy_series):
        out = SlidingWindow(1).apply(toy_series)
        assert out.column_names == ("V_0", "x_0")
        assert out.column("V_0").tolist() == toy_series.column("V").tolist()

    def test_window_larger_than_data(self, toy_series):
        with pytest.raises(WindowLargerThanData):
            SlidingWindow(6).apply(toy_series)

    def test_window_size_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)

    @pytest.mark.parametrize("window_size", [True, 2.0, "3", None])
    def test_a_window_size_that_is_not_an_integer_is_refused_when_built(self, window_size):
        """True was once taken as a window of one row, which a config refuses."""
        with pytest.raises(ValueError, match=r"^window_size must be a positive integer, got "):
            SlidingWindow(window_size)

    def test_numpy_integer_window_size_is_stored_as_an_int(self, toy_series):
        window = SlidingWindow(np.int64(2))
        assert type(window.window_size) is int
        assert window.apply(toy_series) == SlidingWindow(2).apply(toy_series)

    def test_250_rows_window_3_gives_248(self, tank_trajectory):
        assert SlidingWindow(3).apply(tank_trajectory).row_count == 248

    @settings(deadline=None, max_examples=60)
    @given(rows=st.integers(min_value=1, max_value=40), window=st.integers(min_value=1, max_value=40))
    def test_row_count_law(self, rows, window):
        d = Dataset({"a": np.arange(rows, dtype=np.float64)})
        if window > rows:
            with pytest.raises(WindowLargerThanData):
                SlidingWindow(window).apply(d)
        else:
            assert SlidingWindow(window).apply(d).row_count == rows - window + 1

    def test_content_law(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rows = int(rng.integers(2, 30))
            window = int(rng.integers(1, rows + 1))
            d = random_dataset(rng, rows, int(rng.integers(1, 4)))
            out = SlidingWindow(window).apply(d)
            for step in range(window):
                for name in d.column_names:
                    expected = d.column(name)[step : step + out.row_count]
                    assert np.array_equal(out.column(f"{name}_{step}"), expected)

    def test_apply_is_pure(self, toy_series):
        t = SlidingWindow(2)
        assert t.apply(toy_series) == t.apply(toy_series)


# Each refused as the config kind's ``names`` check refuses it: a bare string is not a list of names.
@pytest.mark.parametrize("transform, names, problem", [
    (Select, "Vx", "must be a list of column names"),
    (Select, ["V", "x", "V"], "repeated names: ['V']"),
    (Standardize, "x_0", "must be a list of column names"),
    (Standardize, [], "must not be empty"),
    (Explode, "ab", "must be a list of column names"),
    (Explode, [], "must not be empty"),
    (Explode, ["V", 1], "must be a list of column names"),
    (Select, ["V", ""], "must not hold an empty name"),
])
def test_names_are_refused_when_built(transform, names, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(f'names {problem}, got {names!r}')}$"):
        transform(names)


@pytest.mark.parametrize("transform", [Select, Explode, Standardize])
def test_names_may_be_a_tuple(transform):
    assert transform(("V", "x")).names == ["V", "x"]


class TestSelect:
    def test_single_column(self, toy_series):
        out = Select(["V"]).apply(toy_series)
        assert out.column_names == ("V",)

    def test_empty_selection(self, toy_series):
        out = Select([]).apply(toy_series)
        assert out.column_names == ()
        assert out.row_count == 5

    def test_missing_column(self, toy_series):
        with pytest.raises(UnknownColumn):
            Select(["missing"]).apply(toy_series)


class TestExplode:
    def test_expansion(self):
        d = Dataset({"id": [1, 2], "trace": [[10.0, 11.0], [20.0]]})
        out = Explode(["trace"]).apply(d)
        assert out.column("id").tolist() == [1, 1, 2]
        assert out.column("trace").tolist() == [10.0, 11.0, 20.0]

    def test_length_one_lists_unwrap(self):
        d = Dataset({"a": [[1.0], [2.0]], "k": [7, 8]})
        out = Explode(["a"]).apply(d)
        assert out.column("a").tolist() == [1.0, 2.0]
        assert out.column("k").tolist() == [7, 8]

    def test_ragged_lengths(self):
        d = Dataset({"a": [[1.0, 2.0]], "b": [[1.0]]})
        with pytest.raises(RaggedListLengths) as info:
            Explode(["a", "b"]).apply(d)
        assert info.value.row == 0

    def test_not_a_list_column(self):
        d = Dataset({"a": [1.0, 2.0]})
        with pytest.raises(NotAListColumn):
            Explode(["a"]).apply(d)

    def test_empty_lists_drop_rows(self):
        d = Dataset({"id": [1, 2, 3], "t": [[1.0], [], [3.0, 4.0]]})
        out = Explode(["t"]).apply(d)
        assert out.column("id").tolist() == [1, 3, 3]
        assert out.row_count == 3

    def test_a_trace_column_beside_only_empty_traces_stays_a_trace_column(self):
        d = Dataset({"id": [1.0, 2.0], "t": [[], []], "w": [[1.0], [2.0]]})
        out = Explode(["t"]).apply(d)
        assert out.row_count == 0
        assert out.column("w") == ()
        assert repr(out) == "Dataset(0 rows; id: float64, t: float64, w: list[float64])"

    @settings(deadline=None, max_examples=40)
    @given(lengths=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10))
    def test_row_count_law(self, lengths):
        d = Dataset(
            {
                "id": list(range(len(lengths))),
                "t": [[float(i)] * k for i, k in enumerate(lengths)],
            }
        )
        assert Explode(["t"]).apply(d).row_count == sum(lengths)


class TestStandardize:
    def test_moments_on_small_column(self):
        d = Dataset({"a": [1.0, 2.0, 3.0]})
        t = Standardize(["a"]).fit(d)
        mean, std, constant = t.fitted_stats["a"]
        assert mean == 2.0
        assert std == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        assert not constant
        out = t.apply(d).column("a")
        assert abs(np.mean(out)) < 1e-10
        assert abs(np.std(out) - 1.0) < 1e-10

    @pytest.mark.parametrize("values", [[5.0, 5.0], [123456.789] * 10, [1e300] * 10, [0.0, 5e-324]],
                             ids=["small", "std-rounds-to-1.46e-11", "std-overflows", "deviations-underflow"])
    def test_constant_column_maps_to_zero(self, values):
        """np.std reads 1.46e-11 for the second column and overflows for the third, so neither
        is computed; the last column's deviations underflow when squared, and its mean is 0.0."""
        d = Dataset({"a": values})
        t = Standardize(["a"]).fit(d)
        assert t.fitted_stats["a"] == (values[0], 0.0, True)
        assert t.apply(d).column("a").tolist() == [0.0] * len(values)

    @pytest.mark.parametrize("k", [-45, -300, 300])
    def test_a_column_scaled_by_a_power_of_two_standardizes_alike(self, k):
        d = Dataset({"a": [1.0, 2.0, 3.0]})
        scaled = Dataset({"a": np.ldexp([1.0, 2.0, 3.0], k)})
        t = Standardize(["a"]).fit(scaled)
        mean, std, constant = Standardize(["a"]).fit(d).fitted_stats["a"]
        assert t.fitted_stats["a"] == (math.ldexp(mean, k), math.ldexp(std, k), constant)
        assert t.apply(scaled).column("a").tobytes() == Standardize(["a"]).fit(d).apply(d).column("a").tobytes()

    def test_apply_before_fit(self):
        with pytest.raises(NotFitted):
            Standardize(["a"]).apply(Dataset({"a": [1.0]}))

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            Standardize(["a"]).fit(Dataset({"a": []}))

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            Standardize(["z"]).fit(Dataset({"a": [1.0]}))

    def test_zero_rows_keep_a_trace_column_a_trace_column(self):
        e = Dataset({"a": [1.0, 2.0], "t": [[1.0], [2.0, 3.0]]})
        out = Standardize(["a"]).fit(e).apply(e.slice_rows(0, 0))
        assert out == e.slice_rows(0, 0)
        assert repr(out) == "Dataset(0 rows; a: float64, t: list[float64])"

    def test_law_on_random_fit_data(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = random_dataset(rng, int(rng.integers(2, 100)), 3)
            t = Standardize(list(d.column_names)).fit(d)
            out = t.apply(d)
            for name in d.column_names:
                assert abs(np.mean(out.column(name))) < 1e-10
                assert abs(np.std(out.column(name)) - 1.0) < 1e-10

    def test_untouched_columns_pass_through(self):
        d = Dataset({"a": [1.0, 3.0], "b": [5.0, 7.0]})
        out = Standardize(["a"]).fit(d).apply(d)
        assert out.column("b").tolist() == [5.0, 7.0]

    @pytest.mark.parametrize("values", [[1e308, 1e308, -1e308], [1e308, -1e308]], ids=["mean", "std"])
    def test_overflowing_statistics_are_refused(self, values):
        with pytest.raises(StatisticsOverflow, match="^column 'a': its mean or standard deviation overflows float64$"):
            Standardize(["a"]).fit(Dataset({"a": values}))

    def test_overflowing_output_is_refused(self):
        t = Standardize(["a"]).fit(Dataset({"a": [0.0, 1.0]}))
        with pytest.raises(NonFiniteValue, match="^column 'a' holds NaN or an infinity$"):
            t.apply(Dataset({"a": [1e308]}))


class TestChain:
    def test_empty_chain_is_identity(self, toy_series):
        assert TransformChain().apply(toy_series) == toy_series

    def test_window_then_select(self, toy_series):
        chain = TransformChain([SlidingWindow(3), Select(["V_0", "x_0", "V_1", "x_1", "V_2"])])
        out = chain.apply(toy_series)
        assert out.row_count == 3
        assert len(out.column_names) == 5

    def test_unfitted_standardize_inside_chain(self, toy_series):
        chain = TransformChain([Standardize(["V"])])
        with pytest.raises(NotFitted):
            chain.apply(toy_series)

    def test_fit_runs_members_in_sequence(self, toy_series):
        chain = TransformChain([SlidingWindow(2), Standardize(["V_0"])])
        chain.fit(toy_series)
        out = chain.apply(toy_series)
        assert abs(np.mean(out.column("V_0"))) < 1e-10

    def test_order_matters(self, toy_series):
        ab = TransformChain([SlidingWindow(2), Select(["V_0"])]).apply(toy_series)
        assert ab.column_names == ("V_0",)
        with pytest.raises(UnknownColumn):
            TransformChain([Select(["V_0"]), SlidingWindow(2)]).apply(toy_series)


def writable_parts(dataset: Dataset) -> list[str]:
    """Names of the scalar columns and trace cells of ``dataset`` that can be written to."""
    found = []
    for name in dataset.column_names:
        values = dataset.column(name)
        arrays = values if isinstance(values, tuple) else (values,)
        found += [name for array in arrays if array.flags.writeable]
    return found


class TestOutputsAreFrozen:
    @pytest.mark.parametrize(
        "transform",
        [
            Select(["t", "id"]),
            SlidingWindow(2),
            Explode(["t"]),
            Standardize(["id"]),
            TransformChain([Explode(["t"]), Standardize(["id"]), SlidingWindow(2)]),
        ],
        ids=["select", "window", "explode", "standardize", "chain"],
    )
    def test_no_output_column_or_trace_cell_is_writable(self, transform):
        d = Dataset({"id": [1.0, 2.0, 4.0], "t": [[1.0, 2.0], [3.0], [5.0, 6.0]], "w": [[7.0], [8.0], [9.0]]})
        assert writable_parts(transform.fit(d).apply(d)) == []


def checked_copy(dataset: Dataset) -> Dataset:
    """``dataset`` rebuilt through the checked constructor from its own columns."""
    return Dataset([(name, dataset.column(name)) for name in dataset.column_names], row_count=dataset.row_count)


def column_bits(dataset: Dataset) -> list:
    """Each column's name and bytes, a trace column's cell by cell: -0.0 and 0.0 differ here."""
    return [(name, [cell.tobytes() for cell in values] if isinstance(values, tuple) else values.tobytes())
            for name, values in ((name, dataset.column(name)) for name in dataset.column_names)]


@st.composite
def series(draw):
    """1-3 float columns of 1-30 rows, the first holding -0.0, a subnormal and a huge value
    among its draws, and sometimes a trace column."""
    rows = draw(st.integers(1, 30))
    values = st.sampled_from([0.5, -0.0, 5e-324, 1e150, -3.25, 7.0])
    columns = [(f"c{j}", draw(st.lists(values if j == 0 else st.floats(-1e3, 1e3), min_size=rows, max_size=rows)))
               for j in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        columns.append(("t", [[float(i), float(-i)][: i % 3] for i in range(rows)]))
    return Dataset(columns)


class TestOutputsEqualACheckedDataset:
    """A window or a standardization is built from already-checked columns, without the
    checks of the Dataset constructor; it equals the Dataset that constructor builds from
    the same columns, bit for bit, and no column can be written to."""

    @settings(deadline=None, max_examples=60)
    @given(data=series(), window=st.integers(1, 30))
    def test_sliding_window(self, data, window):
        window = min(window, data.row_count)
        out = SlidingWindow(window).apply(data)
        rows = data.row_count - window + 1
        expected = Dataset([(f"{name}_{step}", data.column(name)[step:step + rows])
                            for step in range(window) for name in data.column_names], row_count=rows)
        assert column_bits(out) == column_bits(expected) == column_bits(checked_copy(out))
        assert out == checked_copy(out) and type(out.row_count) is int
        assert writable_parts(out) == []

    @settings(deadline=None, max_examples=60)
    @given(data=series(), names=st.sets(st.sampled_from(["c0", "c1", "c2"]), min_size=1))
    def test_standardize(self, data, names):
        names = [name for name in sorted(names) if name in data.column_names]
        if not names:
            names = ["c0"]
        t = Standardize(names).fit(data)
        out = t.apply(data)
        stats = t.fitted_stats

        def standardized(name):
            if name not in stats:
                return data.column(name)
            mean, std, constant = stats[name]
            return np.zeros(data.row_count) if constant else (data.column(name) - mean) / std

        expected = Dataset([(name, standardized(name)) for name in data.column_names])
        assert column_bits(out) == column_bits(expected) == column_bits(checked_copy(out))
        assert out == checked_copy(out)
        assert writable_parts(out) == []

    @pytest.mark.parametrize("names", [["a", "b"], ["b", "a"]])
    def test_the_first_overflowing_column_in_column_order_is_named(self, names):
        """Both columns overflow; the error names ``b``, the first in the dataset's column order,
        whatever order the transform lists them in."""
        t = Standardize(names).fit(Dataset({"b": [0.0, 1.0], "a": [0.0, 1.0], "c": [0.0, 1.0]}))
        with pytest.raises(NonFiniteValue, match="^column 'b' holds NaN or an infinity$"):
            t.apply(Dataset({"c": [1e308], "b": [1e308], "a": [-1e308]}))
        with pytest.raises(NonFiniteValue, match="^column 'a' holds NaN or an infinity$"):
            t.apply(Dataset({"c": [1e308], "b": [1.0], "a": [-1e308]}))
