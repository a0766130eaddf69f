"""Acceptance suite: one test per release criterion.

Each criterion prints a single [PASS]/[FAIL] line (run with ``pytest -s`` or
``-v`` to see them) and enforces its own runtime limit.
"""

import json
import math
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from cpslearn import (
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
    fit_linear,
    fit_tree,
    learn_active,
    learn_incremental,
    learn_offline,
)
from cpslearn import metrics as M
from cpslearn.config import run_config, watertank_config
from cpslearn.environments import zero_inflow
from cpslearn.remote import ConnectionClosed, LearnerServer, connect
from conftest import concat_rows, random_dataset


@contextmanager
def criterion(number: int, description: str, time_limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < time_limit
    status = "PASS" if within else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.2f}s < {time_limit:.0f}s)")
    assert within, f"criterion {number} took {elapsed:.2f}s, limit {time_limit}s"


def test_criterion_01_sliding_window_bit_exact(toy_series):
    with criterion(1, "three-step window pivot reproduces the documented table bit-exactly", 1.0):
        out = SlidingWindow(3).apply(toy_series)
        assert out.column_names == ("V_0", "x_0", "V_1", "x_1", "V_2", "x_2")
        expected = [
            (1.0, 10.0, 2.0, 20.0, 3.0, 30.0),
            (2.0, 20.0, 3.0, 30.0, 4.0, 40.0),
            (3.0, 30.0, 4.0, 40.0, 5.0, 50.0),
        ]
        rows = list(zip(*(out.column(name) for name in out.column_names)))
        assert rows == expected


def test_criterion_02_case_study_shape():
    with criterion(2, "tank scenario yields 250 raw, 248 windowed, 198/50 split rows", 5.0):
        cfg = watertank_config()
        spec = cfg["environment"]
        tank = WaterTankSystem(level=spec["initial_level"], area=spec["area"],
                               outflow_coeff=spec["outflow_coeff"], inflow_gain=spec["inflow_gain"])
        ode = OdeEnvironment(tank, sample_period=spec["dt"], substep=spec["substep"])
        raw = ode.sample_trajectory(spec["samples"])
        assert raw.row_count == 250
        windowed = SlidingWindow(3).apply(raw)
        assert windowed.row_count == 248
        train, held_out = windowed.split(cfg["split_fraction"])
        assert train.row_count == 198  # floor(0.8 * 248)
        assert held_out.row_count == 50
        report = run_config(cfg).report
        assert report.row_count == 50


def test_criterion_03_case_study_quality():
    with criterion(3, "depth-5 tree on the tank scenario: MAE <= 0.06 and MSE <= 0.005", 10.0):
        metrics = run_config(watertank_config("tree")).report.to_dict()["metrics"]
        value_mae = metrics["mae"]
        value_mse = metrics["mse"]
        print(f"    measured MAE={value_mae:.5f} MSE={value_mse:.6f}")
        assert value_mae <= 0.06
        assert value_mse <= 0.005


def test_criterion_04_ode_matches_closed_form():
    with criterion(4, "zero-inflow tank matches the analytic level within 1e-4 on [0, 9]", 5.0):
        env = OdeEnvironment(WaterTankSystem(inflow=zero_inflow), sample_period=0.1, substep=1e-3)
        trajectory = env.sample_trajectory(91)
        worst = 0.0
        for t, level in zip(trajectory.column("t"), trajectory.column("x")):
            analytic = (math.sqrt(1.0) - 0.5 * t / (2.0 * 5.0)) ** 2
            worst = max(worst, abs(level - analytic))
        print(f"    max |numeric - analytic| = {worst:.2e}")
        assert worst < 1e-4


def _reference_loops():
    def ref_mae(p, a):
        s = 0.0
        for pi, ai in zip(p, a):
            s += abs(pi - ai)
        return s / len(p)

    def ref_mse(p, a):
        s = 0.0
        for pi, ai in zip(p, a):
            s += (pi - ai) ** 2
        return s / len(p)

    def ref_max_error(p, a):
        m = 0.0
        for pi, ai in zip(p, a):
            m = max(m, abs(pi - ai))
        return m

    def ref_r2(p, a):
        s = 0.0
        for ai in a:
            s += ai
        mean = s / len(a)
        num = den = 0.0
        for pi, ai in zip(p, a):
            num += (ai - pi) ** 2
            den += (ai - mean) ** 2
        return 1.0 - num / den

    def counts(p, a):
        tp = fp = fn = tn = 0
        for pi, ai in zip(p, a):
            if pi == 1 and ai == 1:
                tp += 1
            elif pi == 1:
                fp += 1
            elif ai == 1:
                fn += 1
            else:
                tn += 1
        return tp, fp, fn, tn

    def ref_accuracy(p, a):
        tp, fp, fn, tn = counts(p, a)
        return (tp + tn) / len(p)

    def ref_precision(p, a):
        tp, fp, _, _ = counts(p, a)
        return tp / (tp + fp) if tp + fp else 0.0

    def ref_recall(p, a):
        tp, _, fn, _ = counts(p, a)
        return tp / (tp + fn) if tp + fn else 0.0

    def ref_f1(p, a):
        prec, rec = ref_precision(p, a), ref_recall(p, a)
        if prec == 0.0 and rec == 0.0:
            return 0.0
        return 2.0 * prec * rec / (prec + rec)

    return ref_mae, ref_mse, ref_max_error, ref_r2, ref_accuracy, ref_precision, ref_recall, ref_f1


def test_criterion_05_metric_oracles():
    with criterion(5, "all 8 metrics equal naive reference loops bit-for-bit on 1000 inputs", 5.0):
        ref_mae, ref_mse, ref_max, ref_r2, ref_acc, ref_prec, ref_rec, ref_f1 = _reference_loops()
        rng = np.random.default_rng(1234)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", M.MetricWarning)
            for _ in range(1000):
                n = int(rng.integers(2, 21))
                p = rng.uniform(-50.0, 50.0, size=n).tolist()
                a = rng.uniform(-50.0, 50.0, size=n).tolist()
                assert M.mae(p, a) == ref_mae(p, a)
                assert M.mse(p, a) == ref_mse(p, a)
                assert M.max_error(p, a) == ref_max(p, a)
                assert M.r2(p, a) == ref_r2(p, a)
                bp = rng.integers(0, 2, size=n).astype(float).tolist()
                ba = rng.integers(0, 2, size=n).astype(float).tolist()
                assert M.accuracy(bp, ba) == ref_acc(bp, ba)
                assert M.precision(bp, ba) == ref_prec(bp, ba)
                assert M.recall(bp, ba) == ref_rec(bp, ba)
                assert M.f_beta(bp, ba, 1.0) == ref_f1(bp, ba)


def _brute_force_stump(matrix, y, min_leaf=1):
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


def test_criterion_06_learner_oracles():
    with criterion(6, "stump vs brute force (200x), OLS recovery 1e-8, RLS vs OLS 1e-6", 30.0):
        rng = np.random.default_rng(4321)

        for _ in range(200):  # (a) depth-1 tree equals exhaustive best-stump search
            n = int(rng.integers(4, 51))
            p = int(rng.integers(1, 5))
            inputs = random_dataset(rng, n, p)
            y = rng.uniform(0.0, 10.0, size=n)
            model = fit_tree(inputs, Dataset({"y": y}), max_depth=1)
            matrix = np.column_stack([inputs.column(c) for c in inputs.column_names])
            score, feature, threshold, left, right = _brute_force_stump(matrix, y)
            assert model.root.feature == feature
            assert model.root.threshold == threshold
            assert model.root.left.value == left
            assert model.root.right.value == right

        worst_ols = 0.0
        for _ in range(50):  # (b) OLS recovers noiseless generators
            n, p = int(rng.integers(10, 80)), int(rng.integers(1, 6))
            inputs = random_dataset(rng, n, p)
            weights = rng.normal(size=p)
            intercept = float(rng.normal())
            matrix = np.column_stack([inputs.column(c) for c in inputs.column_names])
            model = fit_linear(inputs, Dataset({"y": matrix @ weights + intercept}))
            worst_ols = max(
                worst_ols,
                float(np.max(np.abs(model.weights - weights))),
                abs(model.intercept - intercept),
            )
        print(f"    OLS worst recovery error = {worst_ols:.2e}")
        assert worst_ols < 1e-8

        worst_rls = 0.0
        for _ in range(30):  # (c) one full RLS pass matches batch OLS
            n, p = int(rng.integers(30, 120)), int(rng.integers(1, 5))
            inputs = random_dataset(rng, n, p)
            outputs = Dataset({"y": rng.normal(size=n)})
            batch = fit_linear(inputs, outputs)
            learner = IncrementalLinearLearner(forgetting_factor=1.0, regularization=1e-8)
            learner.update(inputs, outputs)
            online = learner.finalize()
            worst_rls = max(
                worst_rls,
                float(np.max(np.abs(online.weights - batch.weights))),
                abs(online.intercept - batch.intercept),
            )
        print(f"    RLS-vs-OLS worst weight gap = {worst_rls:.2e}")
        assert worst_rls < 1e-6


def test_criterion_07_pipeline_equivalence():
    with criterion(7, "environment-attached vs strategy-passed transforms agree on 50 pipelines", 30.0):
        rng = np.random.default_rng(999)
        for trial in range(50):
            columns = int(rng.integers(2, 5))
            window = int(rng.integers(1, 4))
            # enough rows that the windowed design stays overdetermined
            min_rows = columns * window + window + 4
            rows = int(rng.integers(min_rows, min_rows + 24))
            source = random_dataset(rng, rows, columns)
            members = [SlidingWindow(window)]
            if trial % 3 == 0:
                members.append(Standardize([f"{source.column_names[0]}_0"]))
            chain = TransformChain(members)
            chain.fit(source)

            transformed = chain.apply(source)
            names = list(transformed.column_names)
            io = IoSpec(names[:-1], [names[-1]])
            learner = (
                RegressionTreeLearner(max_depth=3)
                if trial % 2
                else LinearRegressionLearner()
            )
            attached = OfflineEnvironment.from_dataset(source).with_transform(chain)
            model_a = learn_offline(attached, None, io, learner)
            model_b = learn_offline(OfflineEnvironment.from_dataset(source), chain, io, learner)
            probe = transformed.select(io.inputs)
            assert np.array_equal(
                model_a.predict(probe).column(model_a.output_column),
                model_b.predict(probe).column(model_b.output_column),
            )


def test_criterion_08_strategy_loop_counts():
    with criterion(8, "offline observes once, incremental consumes each batch once, active honors its budget", 5.0):
        observations = []

        class CountingOffline(OfflineEnvironment):
            def observe(self):
                observations.append(1)
                return super().observe()

        data = Dataset({"x": np.arange(12, dtype=np.float64), "y": np.arange(12, dtype=np.float64)})
        io = IoSpec(["x"], ["y"])
        learn_offline(CountingOffline(lambda: data), None, io, LinearRegressionLearner())
        assert len(observations) == 1

        yielded = []

        class CountingStream(DatasetStream):
            def next_batch(self):
                batch = super().next_batch()
                if batch is not None:
                    yielded.append(batch)
                return batch

        learn_incremental(CountingStream(data, 5), None, io, IncrementalLinearLearner())
        assert [b.row_count for b in yielded] == [5, 5, 2]
        assert concat_rows(yielded) == data

        class CountingTank(WaterTankActiveEnvironment):
            acts = 0
            advances = 0

            def act(self, action):
                type(self).acts += 1
                super().act(action)

            def advance(self):
                type(self).advances += 1
                super().advance()

        env = CountingTank()
        policy = EpsilonGreedyActiveLearner(
            env.action_space, state_columns=("x",), target_column="x", epsilon=0.3, seed=1
        )
        learn_active(env, policy, step_budget=25)
        assert CountingTank.acts == 25
        assert CountingTank.advances == 25


def test_criterion_09_remote_transparency_and_faults():
    with criterion(9, "loopback learner is bit-identical; fault injections surface typed errors", 30.0):
        rng = np.random.default_rng(777)
        with LearnerServer() as server:
            with connect(server.address, timeout=5.0) as session:
                for _ in range(20):
                    n, p = int(rng.integers(8, 40)), int(rng.integers(1, 4))
                    inputs = random_dataset(rng, n, p)
                    outputs = Dataset({"y": rng.normal(size=n)})
                    probe = random_dataset(rng, 6, p)
                    remote_pred = session.fit(inputs, outputs).predict(probe).column("y")
                    local_pred = fit_linear(inputs, outputs).predict(probe).column("y")
                    assert np.array_equal(remote_pred, local_pred)

            # Malformed message: typed error response, connection stays usable.
            import socket as socketlib

            sock = socketlib.create_connection(server.address, timeout=5.0)
            try:
                reader = sock.makefile("rb")
                sock.sendall(b"not json at all\n")
                assert json.loads(reader.readline())["kind"] == "error"
                sock.sendall(b'{"kind":"hello","version":3}\n')
                assert json.loads(reader.readline())["kind"] == "hello_ack"
            finally:
                sock.close()

        # Mid-fit disconnect: a stub server dies after hello; the client
        # surfaces a typed error well inside its timeout.
        import socket as socketlib
        import threading

        listener = socketlib.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def die_after_hello():
            conn, _ = listener.accept()
            reader = conn.makefile("rb")
            reader.readline()
            conn.sendall(b'{"kind":"hello_ack","version":3,"max_frame":1000000}\n')
            reader.readline()  # the fit request; die silently
            conn.close()
            listener.close()

        threading.Thread(target=die_after_hello, daemon=True).start()
        with connect(listener.getsockname(), timeout=3.0) as session:
            start = time.perf_counter()
            with pytest.raises(ConnectionClosed):
                session.fit(Dataset({"x": [1.0, 2.0]}), Dataset({"y": [1.0, 2.0]}))
            assert time.perf_counter() - start < 3.0


def test_criterion_10_reproducible_reports(tmp_path):
    with criterion(10, "identical config gives byte-identical reports and models across processes", 10.0):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({**watertank_config(), "seed": 7}))
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            result = subprocess.run(
                [sys.executable, "-m", "cpslearn.cli", "run", str(config_path), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(((out / "report.json").read_bytes(), (out / "model.fcm.json").read_bytes()))
        assert outputs[0] == outputs[1]
