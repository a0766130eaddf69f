import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslearn import Dataset, Explode, Select, SlidingWindow, Standardize, TransformChain
from cpslearn.dataset import UnknownColumn
from cpslearn.transforms import (
    EmptyDataset,
    NotAListColumn,
    NotFitted,
    RaggedListLengths,
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

    def test_constant_column_maps_to_zero(self):
        d = Dataset({"a": [5.0, 5.0]})
        t = Standardize(["a"]).fit(d)
        assert t.fitted_stats["a"][2] is True
        assert t.apply(d).column("a").tolist() == [0.0, 0.0]

    def test_apply_before_fit(self):
        with pytest.raises(NotFitted):
            Standardize(["a"]).apply(Dataset({"a": [1.0]}))

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            Standardize(["a"]).fit(Dataset({"a": []}))

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            Standardize(["z"]).fit(Dataset({"a": [1.0]}))

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
