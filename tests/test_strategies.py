import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslearn import (
    ActionSpace,
    Dataset,
    DatasetStream,
    EpsilonGreedyActiveLearner,
    IncrementalLinearLearner,
    IoSpec,
    LinearRegressionLearner,
    OdeEnvironment,
    OfflineEnvironment,
    RegressionTreeLearner,
    SlidingWindow,
    Standardize,
    TransformChain,
    WaterTankActiveEnvironment,
    WaterTankSystem,
    evaluate,
    fit_linear,
    learn_active,
    learn_incremental,
    learn_offline,
)
from cpslearn import strategies
from cpslearn.config import PipelineResult, write_result
from cpslearn.dataset import UnknownColumn
from cpslearn.learners import NeverUpdated, SingularDesign
from cpslearn.metrics import REGISTRY, get_metric, mae
from cpslearn.remote import RemoteModel
from conftest import concat_rows, random_dataset


class CountingOffline(OfflineEnvironment):
    def __init__(self, dataset):
        super().__init__(lambda: dataset)
        self.observations = 0

    def observe(self):
        self.observations += 1
        return super().observe()


class CountingStream(DatasetStream):
    def __init__(self, dataset, batch_size):
        super().__init__(dataset, batch_size)
        self.yielded = []

    def next_batch(self):
        batch = super().next_batch()
        if batch is not None:
            self.yielded.append(batch)
        return batch


class CountingActiveTank(WaterTankActiveEnvironment):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.acts = 0
        self.advances = 0
        self.observes = 0

    def act(self, action):
        self.acts += 1
        super().act(action)

    def advance(self):
        self.advances += 1
        super().advance()

    def observe(self):
        self.observes += 1
        return super().observe()


class MeanLearner:
    """Stub offline learner: predicts the training-target mean everywhere."""

    def fit(self, inputs, outputs):
        from cpslearn import LinearModel

        target = outputs.column(outputs.column_names[0])
        return LinearModel(
            np.zeros(len(inputs.column_names)),
            float(np.mean(target)),
            inputs.column_names,
            outputs.column_names[0],
        )


class CopyModel:
    """Stub model: echoes one input column as its prediction."""

    def __init__(self, source, output):
        self.input_columns = (source,)
        self.output_column = output
        self.model_id = "copy-stub"

    def predict(self, inputs):
        return Dataset({self.output_column: inputs.column(self.input_columns[0])})


class TestLearnOffline:
    def test_mean_stub(self):
        env = OfflineEnvironment.from_dataset(Dataset({"x": [0.0, 1.0], "y": [2.0, 4.0]}))
        model = learn_offline(env, None, IoSpec(["x"], ["y"]), MeanLearner())
        assert model.predict(Dataset({"x": [9.0]})).column("y")[0] == 3.0

    def test_observes_exactly_once(self):
        env = CountingOffline(Dataset({"x": [0.0, 1.0, 2.0], "y": [1.0, 3.0, 5.0]}))
        learn_offline(env, None, IoSpec(["x"], ["y"]), LinearRegressionLearner())
        assert env.observations == 1

    def test_io_after_transforms(self, toy_series):
        env = OfflineEnvironment.from_dataset(toy_series)
        io = IoSpec(["V_0", "x_0", "V_1"], ["x_1"])
        model = learn_offline(env, SlidingWindow(2), io, MeanLearner())
        assert model.input_columns == ("V_0", "x_0", "V_1")

    def test_missing_io_column(self, toy_series):
        env = OfflineEnvironment.from_dataset(toy_series)
        with pytest.raises(UnknownColumn):
            learn_offline(env, None, IoSpec(["V"], ["gone"]), LinearRegressionLearner())


class TestLearnIncremental:
    def test_matches_offline_ols(self):
        rng = np.random.default_rng(81)
        data = Dataset(
            {
                "a": rng.normal(size=60),
                "b": rng.normal(size=60),
                "y": rng.normal(size=60),
            }
        )
        io = IoSpec(["a", "b"], ["y"])
        offline = learn_offline(
            OfflineEnvironment.from_dataset(data), None, io, LinearRegressionLearner()
        )
        online = learn_incremental(DatasetStream(data, 7), None, io, IncrementalLinearLearner())
        assert np.max(np.abs(online.weights - offline.weights)) < 1e-6
        assert abs(online.intercept - offline.intercept) < 1e-6

    def test_empty_stream(self):
        stream = DatasetStream(Dataset({"x": [1.0], "y": [1.0]}), 1)
        list(iter(stream.next_batch, None))  # drain it first
        with pytest.raises(NeverUpdated):
            learn_incremental(stream, None, IoSpec(["x"], ["y"]), IncrementalLinearLearner())

    def test_every_batch_consumed_once_in_order(self):
        d = Dataset({"x": np.arange(10, dtype=np.float64), "y": np.arange(10, dtype=np.float64)})
        stream = CountingStream(d, 3)
        learn_incremental(stream, None, IoSpec(["x"], ["y"]), IncrementalLinearLearner())
        assert [b.row_count for b in stream.yielded] == [3, 3, 3, 1]
        assert concat_rows(stream.yielded) == d

    def test_whole_dataset_batch_is_one_update(self):
        d = Dataset({"x": np.arange(6, dtype=np.float64), "y": np.arange(6, dtype=np.float64)})
        calls = []

        class Recorder(IncrementalLinearLearner):
            def update(self, inputs, outputs):
                calls.append(inputs.row_count)
                super().update(inputs, outputs)

        learn_incremental(DatasetStream(d, 6), None, IoSpec(["x"], ["y"]), Recorder())
        assert calls == [6]


def model_bytes(fit) -> str:
    """The JSON document of the model ``fit()`` returns, or the type and message of what it raises."""
    try:
        return json.dumps(fit().to_dict(), sort_keys=True)
    except (NeverUpdated, SingularDesign) as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def streamed_rows(draw):
    """0-100 rows of inputs ``a``, ``b`` and target ``y``, a batch size of 1 to rows + 2, and an io
    whose inputs and output may name the absent columns ``p``, ``q`` and ``r``."""
    rows = draw(st.integers(0, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = Dataset({"a": rng.normal(size=rows), "b": rng.normal(size=rows) * 1e3, "y": rng.normal(size=rows)})
    names, outputs = (["a", "b", "p", "q"], ["y", "r"]) if draw(st.booleans()) else (["a", "b"], ["y"])
    inputs = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
    output = draw(st.sampled_from(outputs))
    return data, draw(st.integers(1, rows + 2)), IoSpec(inputs, [output])


class TestStreamAndIoPicks:
    """Stream batches and io picks are built from a checked Dataset's own columns, unchecked;
    they equal what the checked ``slice_rows`` and ``select`` return."""

    @settings(deadline=None, max_examples=80)
    @given(streamed_rows())
    def test_batches_picks_and_model_equal_the_checked_operations(self, drawn):
        data, size, io = drawn
        stream = DatasetStream(data, size)
        for start in range(0, data.row_count, size):
            batch = stream.next_batch()
            assert batch == data.slice_rows(start, start + size)
            assert type(batch.row_count) is int
        assert [stream.next_batch(), stream.next_batch()] == [None, None]

        absent = [name for name in (*io.inputs, *io.outputs) if name not in data.column_names]
        if absent:
            if data.row_count:  # a stream of no rows picks nothing
                with pytest.raises(UnknownColumn) as info:
                    learn_incremental(DatasetStream(data, size), None, io, IncrementalLinearLearner())
                assert (info.value.name, str(info.value)) == (absent[0], f"unknown column: {absent[0]!r}")
            return

        def by_hand():
            learner = IncrementalLinearLearner()
            for start in range(0, data.row_count, size):
                part = data.slice_rows(start, start + size)
                learner.update(part.select(io.inputs), part.select(io.outputs))
            return learner.finalize()

        streamed = model_bytes(lambda: learn_incremental(DatasetStream(data, size), None, io,
                                                         IncrementalLinearLearner()))
        assert streamed == model_bytes(by_hand)


class TestLearnActive:
    def _policy(self, env, **kw):
        defaults = dict(
            action_space=env.action_space,
            state_columns=("x",),
            target_column="x",
            epsilon=0.3,
            seed=42,
        )
        defaults.update(kw)
        return EpsilonGreedyActiveLearner(**defaults)

    def test_budget_of_one_advances_once(self):
        env = CountingActiveTank()
        learn_active(env, self._policy(env), step_budget=1)
        assert env.acts == 1
        assert env.advances == 1
        assert env.time == pytest.approx(0.1)

    def test_exact_step_budget(self):
        env = CountingActiveTank()
        learn_active(env, self._policy(env), step_budget=17)
        assert env.acts == 17
        assert env.advances == 17

    def test_budget_must_be_positive(self):
        env = WaterTankActiveEnvironment()
        with pytest.raises(ValueError):
            learn_active(env, self._policy(env), step_budget=0)

    @pytest.mark.parametrize("budget", [2.5, "3", True, None])
    def test_budget_that_is_not_an_integer_is_refused_before_any_step(self, budget):
        env = CountingActiveTank()
        with pytest.raises(ValueError, match=r"^step_budget must be a positive integer, got "):
            learn_active(env, self._policy(env), step_budget=budget)
        assert env.acts == 0

    def test_numpy_integer_budget_is_accepted(self):
        env = CountingActiveTank()
        learn_active(env, self._policy(env), step_budget=np.int64(3))
        assert env.acts == 3

    def test_learning_beats_untrained_surrogate(self):
        env = WaterTankActiveEnvironment()
        model = learn_active(env, self._policy(env), step_budget=500)

        # Held-out passive trajectory as one-step-prediction ground truth.
        trajectory = OdeEnvironment(WaterTankSystem()).sample_trajectory(200)
        levels = trajectory.column("x")
        inflows = trajectory.column("V")
        probe = Dataset({"x": levels[:-1], "V": inflows[:-1]})
        actual_next = levels[1:]
        trained_mae = mae(model.predict(probe).column("x"), actual_next)
        untrained_mae = mae(np.zeros(len(actual_next)), actual_next)
        assert trained_mae < untrained_mae
        assert trained_mae < 0.05  # linear surrogate tracks the slow dynamics well


class TestEvaluate:
    def test_perfect_model(self):
        d = Dataset({"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]})
        env = OfflineEnvironment.from_dataset(d)
        report = evaluate(env, CopyModel("x", "y"), IoSpec(["x"], ["y"]), ["mae", "mse", "r2"])
        assert report.to_dict()["metrics"] == {"mae": 0.0, "mse": 0.0, "r2": 1.0}
        assert report.row_count == 3

    @pytest.mark.parametrize("metric_names, problem", [
        ([], "must be a non-empty list of metric names"),
        ("mae", "must be a non-empty list of metric names"),
        (["mae", "nope"], f"unknown metric 'nope' (known: {sorted(REGISTRY)})"),
        (["mae", "mse", "mae"], "repeated names: ['mae']"),
    ])
    def test_a_refused_metric_list_computes_no_metric(self, monkeypatch, metric_names, problem):
        looked_up = []
        monkeypatch.setattr(strategies, "get_metric", lambda name: looked_up.append(name) or get_metric(name))
        env = CountingOffline(Dataset({"x": [1.0, 2.0], "y": [1.0, 2.0]}))
        with pytest.raises(ValueError, match=f"^{re.escape(f'metric_names: {problem}')}$"):
            evaluate(env, CopyModel("x", "y"), IoSpec(["x"], ["y"]), metric_names)
        assert (looked_up, env.observations) == ([], 0)

    def test_a_model_of_another_output_is_refused_before_observing(self):
        """Local and remote models alike: predictions of ``y`` are never scored against ``z``."""
        d = Dataset({"a": [1.0, 2.0, 3.0], "y": [1.0, 3.0, 5.0], "z": [9.0, 0.0, 4.0]})
        for model in (fit_linear(d.select(["a"]), d.select(["y"])), RemoteModel(None, "m", ["a"], "y")):
            env = CountingOffline(d)
            with pytest.raises(ValueError) as info:
                evaluate(env, model, IoSpec(["a"], ["z"]), ["mae"])
            assert str(info.value) == "io: the model predicts 'y', not the output column 'z'"
            assert env.observations == 0

    def test_does_not_mutate_model(self):
        rng = np.random.default_rng(82)
        data = random_dataset(rng, 30, 2)
        y = Dataset({"y": rng.normal(size=30)})
        full = Dataset(list(zip(data.column_names, (data.column(c) for c in data.column_names)))
                       + [("y", y.column("y"))])
        io = IoSpec(list(data.column_names), ["y"])
        model = learn_offline(
            OfflineEnvironment.from_dataset(full), None, io, RegressionTreeLearner(3)
        )
        probe = data
        before = model.predict(probe).column("y").copy()
        evaluate(OfflineEnvironment.from_dataset(full), model, io, ["mae", "mse"])
        after = model.predict(probe).column("y")
        assert np.array_equal(before, after)

    def test_a_report_on_rows_sliced_by_numpy_integers_is_written(self, tmp_path):
        data = Dataset({"x": np.arange(10.0), "y": 2.0 * np.arange(10.0)}).slice_rows(np.int64(2), np.int64(6))
        model = fit_linear(data.select(["x"]), data.select(["y"]))
        report = evaluate(OfflineEnvironment.from_dataset(data), model, IoSpec(["x"], ["y"]), ["mae"])
        assert type(report.row_count) is int
        report_path, _ = write_result(PipelineResult(report, model, 0), tmp_path)
        assert json.loads(report_path.read_text(encoding="utf-8"))["rows"] == 4

    def test_report_serialization_shape(self):
        d = Dataset({"x": [1.0, 2.0], "y": [1.0, 2.0]})
        report = evaluate(
            OfflineEnvironment.from_dataset(d), CopyModel("x", "y"), IoSpec(["x"], ["y"]), ["mae"]
        )
        doc = report.to_dict()
        assert set(doc) == {"model", "rows", "metrics"}
        assert doc["metrics"] == {"mae": 0.0}


class TestIoSpec:
    @pytest.mark.parametrize("inputs, outputs, message", [
        ([], ["y"], "inputs: must not be empty"),
        (["x"], [], "outputs: must not be empty"),
        (["x"], ["x"], "inputs and outputs overlap: ['x']"),
        ("abc", "d", "inputs: must be a list of column names"),
        (["a", "a"], ["b"], "inputs: repeated names: ['a']"),
        ([1], ["b"], "inputs: must be a list of column names"),
        (["a"], ["b", "c"], "outputs: exactly one output column is supported"),
        (["a"], "b", "outputs: must be a list of column names"),
        (["a", ""], ["b"], "inputs: must not hold an empty name"),
    ])
    def test_validation(self, inputs, outputs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IoSpec(inputs, outputs)

    def test_tuples_and_lists_give_equal_specs(self):
        assert IoSpec(("a", "b"), ("c",)) == IoSpec(["a", "b"], ["c"])


class TestPipelineEquivalence:
    def test_attached_equals_passed(self):
        rng = np.random.default_rng(83)
        for trial in range(8):
            rows = int(rng.integers(12, 30))
            source = random_dataset(rng, rows, 3)
            window = int(rng.integers(1, 4))
            chain = TransformChain([SlidingWindow(window)])
            if trial % 2 == 0:
                chain.transforms.append(Standardize([f"{source.column_names[0]}_0"]))
            chain.fit(source)

            transformed = chain.apply(source)
            names = list(transformed.column_names)
            io = IoSpec(names[:-1], [names[-1]])
            learner = LinearRegressionLearner() if trial % 2 else RegressionTreeLearner(3)

            attached_env = OfflineEnvironment.from_dataset(source).with_transform(chain)
            model_a = learn_offline(attached_env, None, io, learner)
            model_b = learn_offline(
                OfflineEnvironment.from_dataset(source), chain, io, learner
            )
            probe = transformed.select(io.inputs)
            assert np.array_equal(
                model_a.predict(probe).column(model_a.output_column),
                model_b.predict(probe).column(model_b.output_column),
            )
