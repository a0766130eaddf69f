import math
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslearn import (
    Dataset,
    DatasetStream,
    OdeEnvironment,
    OfflineEnvironment,
    SlidingWindow,
    WaterTankActiveEnvironment,
    WaterTankSystem,
)
from cpslearn.environments import ActionOutOfRange, NonFiniteState, clipped_sine_inflow, zero_inflow
from conftest import concat_rows


def rk4_step(f, t: float, y: float, h: float) -> float:
    """One classical 4th-order Runge-Kutta step for a scalar ODE y' = f(t, y)."""
    k1 = f(t, y)
    k2 = f(t + h / 2.0, y + h * k1 / 2.0)
    k3 = f(t + h / 2.0, y + h * k2 / 2.0)
    k4 = f(t + h, y + h * k3)
    return y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def reference_clipped_sine_inflow(t: float) -> float:
    """The default inflow as ``WaterTankSystem`` documents it, in one expression."""
    return max(0.0, math.sin(2.0 * math.pi * t / 10.0))


def reference_inflow(system: WaterTankSystem):
    """``system.inflow``, with the default inflow replaced by its reference body."""
    return reference_clipped_sine_inflow if system.inflow is clipped_sine_inflow else system.inflow


def tank_rate(system: WaterTankSystem, t: float, level: float) -> float:
    """Time derivative of the fill level at (t, level), as ``WaterTankSystem`` describes it."""
    outflow = system.outflow_coeff * math.sqrt(max(level, 0.0))
    return (system.inflow_gain * reference_inflow(system)(t) - outflow) / system.area


def reference_step(system: WaterTankSystem, dt: float) -> WaterTankSystem:
    """Reference step: RK4 over ``tank_rate``, returning a new system."""
    level = rk4_step(lambda t, y: tank_rate(system, t, y), system.time, system.level, dt)
    if not math.isfinite(level):
        raise NonFiniteState(f"level became non-finite at t={system.time + dt}")
    return replace(system, level=max(level, 0.0), time=system.time + dt)


def reference_sample_trajectory(system: WaterTankSystem, sample_period: float, substep: float,
                                n: int) -> Dataset:
    """Reference ``OdeEnvironment.sample_trajectory``: one ``reference_step`` per substep."""
    substeps = max(1, round(sample_period / substep))
    h = sample_period / substeps
    times, inflows, levels = np.empty(n), np.empty(n), np.empty(n)
    t0 = system.time
    for i in range(n):
        t_i = t0 + i * sample_period
        system = replace(system, time=t_i)
        times[i], inflows[i], levels[i] = t_i, reference_inflow(system)(t_i), system.level
        if i + 1 < n:
            for _ in range(substeps):
                system = reference_step(system, h)
    return Dataset([("t", times), ("V", inflows), ("x", levels)])


def closed_form_level(t: float, x0: float = 1.0, outflow: float = 0.5, area: float = 5.0) -> float:
    """Analytic solution of the zero-inflow tank, valid until the level hits 0."""
    return (math.sqrt(x0) - outflow * t / (2.0 * area)) ** 2


class TestOfflineEnvironment:
    def test_identity_observation(self, toy_series):
        env = OfflineEnvironment.from_dataset(toy_series)
        assert env.observe() == toy_series

    def test_observation_is_idempotent(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\n1\n2\n")
        env = OfflineEnvironment.from_csv(path)
        first = env.observe()
        path.write_text("a\n9\n")  # later file changes must not leak in
        assert env.observe() == first

    def test_attached_window_transform(self, toy_series):
        env = OfflineEnvironment.from_dataset(toy_series).with_transform(SlidingWindow(3))
        out = env.observe()
        assert out.column_names == ("V_0", "x_0", "V_1", "x_1", "V_2", "x_2")
        assert out.row_count == 3
        first_row = tuple(out.column(n)[0] for n in out.column_names)
        assert first_row == (1.0, 10.0, 2.0, 20.0, 3.0, 30.0)

    def test_missing_file(self, tmp_path):
        env = OfflineEnvironment.from_csv(tmp_path / "absent.csv")
        with pytest.raises(FileNotFoundError):
            env.observe()


class TestDatasetStream:
    def test_batch_sizes(self):
        d = Dataset({"v": np.arange(10, dtype=np.float64)})
        stream = DatasetStream(d, batch_size=4)
        sizes = [b.row_count for b in iter(stream.next_batch, None)]
        assert sizes == [4, 4, 2]
        assert stream.next_batch() is None
        assert stream.next_batch() is None  # exhaustion is stable

    def test_single_row_batches(self):
        d = Dataset({"v": [1.0, 2.0, 3.0]})
        assert [b.row_count for b in iter(DatasetStream(d, 1).next_batch, None)] == [1, 1, 1]

    def test_replay_reproduces_source(self):
        rng = np.random.default_rng(5)
        d = Dataset({"a": rng.normal(size=23), "b": rng.normal(size=23)})
        batches = list(iter(DatasetStream(d, 7).next_batch, None))
        assert concat_rows(batches) == d

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            DatasetStream(Dataset({"v": [1.0]}), 0)

    @pytest.mark.parametrize("batch_size", [1.5, 2.0, True, "2", None])
    def test_batch_size_that_is_not_an_integer_is_refused_when_built(self, batch_size):
        with pytest.raises(ValueError, match=r"^batch_size must be a positive integer, got "):
            DatasetStream(Dataset({"v": [1.0]}), batch_size)

    def test_numpy_integer_batch_size_is_accepted(self):
        d = Dataset({"v": np.arange(5, dtype=np.float64)})
        assert [b.row_count for b in iter(DatasetStream(d, np.int64(2)).next_batch, None)] == [2, 2, 1]


def one_step(system: WaterTankSystem, dt: float) -> tuple[float, float]:
    """(level, time) after one RK4 step of size ``dt``, sampled through ``OdeEnvironment``."""
    trajectory = OdeEnvironment(system, sample_period=dt, substep=dt).sample_trajectory(2)
    return trajectory.column("x")[1], trajectory.column("t")[1]


# Values a positive setting of the simulator refuses: zero, negatives, NaN, infinities,
# bools and values that are not numbers.
NOT_POSITIVE_NUMBERS = [0.0, -1, math.nan, math.inf, -math.inf, True, np.True_, "5", None, 10**400]


def value_id(value) -> str:
    return "10**400" if type(value) is int and value > 2**64 else repr(value)


class TestWaterTankSystem:
    def test_rate_at_initial_state(self):
        tank = WaterTankSystem()
        # (inflow_gain * 0 - outflow_coeff * sqrt(1)) / area = -0.5 / 5
        assert tank_rate(tank, 0.0, 1.0) == pytest.approx(-0.1, abs=1e-15)
        level, time = one_step(tank, 1e-6)
        assert (level - 1.0) / time == pytest.approx(-0.1, abs=1e-6)

    def test_inflow_signal_values(self):
        assert clipped_sine_inflow(0.0) == 0.0
        assert clipped_sine_inflow(2.5) == pytest.approx(1.0, abs=1e-15)
        assert clipped_sine_inflow(7.5) == 0.0  # negative half-wave clips to 0

    def test_step_decreases_level_without_inflow(self):
        tank = WaterTankSystem(level=1.0, inflow=zero_inflow)
        level, time = one_step(tank, 0.1)
        assert level < 1.0
        assert time == pytest.approx(0.1)

    def test_non_finite_state_detected(self):
        tank = WaterTankSystem(inflow=lambda t: float("inf"))
        with pytest.raises(NonFiniteState):
            one_step(tank, 0.1)

    def test_area_must_be_positive(self):
        with pytest.raises(ValueError):
            WaterTankSystem(area=0.0)

    @pytest.mark.parametrize("area", NOT_POSITIVE_NUMBERS, ids=value_id)
    def test_area_that_is_not_a_positive_number_is_refused(self, area):
        with pytest.raises(ValueError, match=r"^tank area must be positive, got "):
            WaterTankSystem(area=area)

    def test_numpy_area_is_accepted(self):
        assert WaterTankSystem(area=np.float64(5.0)).area == 5.0


def inflow_outcome(inflow, t: float):
    """The bits of ``inflow(t)``, or the type and message of the ValueError it raises."""
    try:
        return struct.pack("<d", inflow(t))
    except ValueError as exc:
        return type(exc), str(exc)


class TestClippedSineInflow:
    """The default inflow returns the reference body's double for every ``t``."""

    @settings(max_examples=2000, deadline=None)
    @given(t=st.floats())
    def test_same_bits_as_reference(self, t):
        assert inflow_outcome(clipped_sine_inflow, t) == inflow_outcome(reference_clipped_sine_inflow, t)

    @pytest.mark.parametrize("t", [
        0.0, -0.0, 5e-324, -5e-324, sys.float_info.min / 2.0, -sys.float_info.min / 3.0,
        math.nan, -math.nan, 2.5, 5.0, 7.5, 10.0, 1e22, -1e22, 1e300, 1e307, -1e307,
        sys.float_info.max, -sys.float_info.max,
    ])
    def test_edge_values_match_reference(self, t):
        assert inflow_outcome(clipped_sine_inflow, t) == inflow_outcome(reference_clipped_sine_inflow, t)

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_infinite_time_raises_like_reference(self, t):
        with pytest.raises(ValueError) as want:
            reference_clipped_sine_inflow(t)
        with pytest.raises(ValueError) as got:
            clipped_sine_inflow(t)
        assert str(got.value) == str(want.value)


class TestOdeEnvironment:
    def test_trajectory_shape_and_initial_row(self, tank_trajectory):
        assert tank_trajectory.row_count == 250
        assert tank_trajectory.column_names == ("t", "V", "x")
        assert tank_trajectory.column("t")[0] == 0.0
        assert tank_trajectory.column("V")[0] == 0.0
        assert tank_trajectory.column("x")[0] == 1.0

    def test_single_sample(self):
        env = OdeEnvironment(WaterTankSystem(level=0.7))
        d = env.sample_trajectory(1)
        assert d.row_count == 1
        assert d.column("x")[0] == 0.7

    def test_sample_times_are_exact_multiples(self, tank_trajectory):
        times = tank_trajectory.column("t")
        expected = np.array([i * 0.1 for i in range(250)])
        assert np.array_equal(times, expected)

    def test_zero_inflow_matches_closed_form(self):
        env = OdeEnvironment(WaterTankSystem(inflow=zero_inflow), sample_period=0.1)
        traj = env.sample_trajectory(101)  # t in [0, 10]
        assert traj.column("x")[-1] == pytest.approx(0.25, abs=1e-10)
        for t, x in zip(traj.column("t"), traj.column("x")):
            assert abs(x - closed_form_level(t)) < 1e-6

    def test_level_never_negative_past_empty_point(self):
        # Analytic zero crossing is at t = 20; keep sampling beyond it.
        env = OdeEnvironment(WaterTankSystem(inflow=zero_inflow), sample_period=0.5, substep=1e-3)
        traj = env.sample_trajectory(60)  # t in [0, 29.5]
        levels = traj.column("x")
        assert np.all(levels >= 0.0)
        assert levels[-1] == pytest.approx(0.0, abs=1e-6)

    def test_error_shrinks_at_fourth_order_as_substep_halves(self):
        errors = []
        for substep in (0.4, 0.2, 0.1, 0.05):
            env = OdeEnvironment(
                WaterTankSystem(inflow=zero_inflow), sample_period=4.0, substep=substep
            )
            level = env.sample_trajectory(2).column("x")[-1]
            errors.append(abs(level - closed_form_level(4.0)))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        for a, b in zip(errors, errors[1:]):
            if b > 1e-13:  # above the roundoff floor the order shows cleanly
                assert a / b > 8.0

    def test_validation(self):
        env = OdeEnvironment(WaterTankSystem())
        with pytest.raises(ValueError):
            env.sample_trajectory(0)
        with pytest.raises(ValueError):
            OdeEnvironment(WaterTankSystem(), sample_period=0.0)

    @pytest.mark.parametrize("value", NOT_POSITIVE_NUMBERS, ids=value_id)
    @pytest.mark.parametrize("name", ["sample_period", "substep"])
    def test_step_that_is_not_a_positive_number_is_refused(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be positive, got "):
            OdeEnvironment(WaterTankSystem(), **{name: value})

    @pytest.mark.parametrize("sample_period, substep", [(0.1, 1e-320), (1e306, 1e-3)])
    def test_step_count_must_be_finite(self, sample_period, substep):
        with pytest.raises(ValueError, match="sample_period / substep is not finite"):
            OdeEnvironment(WaterTankSystem(), sample_period=sample_period, substep=substep)

    @pytest.mark.parametrize("substep, n", [(1e-300, 2), (1e-3, 1_000_002), (1e-3, 10**12)])
    def test_rk4_steps_are_bounded_before_any_work(self, substep, n):
        """(n - 1) * 100 steps at the default period: 1_000_001 samples take exactly 10**8."""
        env = OdeEnvironment(WaterTankSystem(), substep=substep)
        with pytest.raises(ValueError, match=r"^\(n - 1\) \* round\(sample_period / substep\) is above the limit "
                                             r"of 100000000 RK4 steps$"):
            env.sample_trajectory(n)


class TestWaterTankActiveEnvironment:
    def test_initial_observation(self):
        env = WaterTankActiveEnvironment()
        obs = env.observe()
        assert obs.row_count == 1
        assert obs.column("t")[0] == 0.0
        assert obs.column("x")[0] == 1.0

    def test_observe_is_side_effect_free(self):
        env = WaterTankActiveEnvironment()
        observations = [env.observe() for _ in range(3)]
        assert observations[0] == observations[1] == observations[2]

    def test_zero_action_drains_the_tank(self):
        env = WaterTankActiveEnvironment()
        env.act(0.0)
        env.advance()
        assert env.observe().column("x")[0] < 1.0
        assert env.time == pytest.approx(0.1)

    def test_action_out_of_range(self):
        env = WaterTankActiveEnvironment()
        with pytest.raises(ActionOutOfRange):
            env.act(1.5)
        with pytest.raises(ActionOutOfRange):
            env.act(-0.1)

    def test_pending_action_persists_until_replaced(self):
        env = WaterTankActiveEnvironment()
        env.act(1.0)
        env.advance()
        level_after_first = env.observe().column("x")[0]
        env.advance()  # same inflow held; level keeps rising
        assert env.observe().column("x")[0] > level_after_first

    def test_advance_strictly_increases_time(self):
        env = WaterTankActiveEnvironment()
        times = []
        for _ in range(3):
            env.advance()
            times.append(env.time)
        assert times == sorted(times)
        assert len(set(times)) == 3

    @pytest.mark.parametrize("step_period", [0.0, -0.1])
    def test_step_period_must_be_positive(self, step_period):
        with pytest.raises(ValueError, match="step_period must be positive"):
            WaterTankActiveEnvironment(step_period=step_period)

    @pytest.mark.parametrize("substep", [0.0, -1e-3])
    def test_substep_must_be_positive(self, substep):
        with pytest.raises(ValueError, match="substep must be positive"):
            WaterTankActiveEnvironment(substep=substep)

    @pytest.mark.parametrize("value", NOT_POSITIVE_NUMBERS, ids=value_id)
    @pytest.mark.parametrize("name", ["step_period", "substep"])
    def test_step_that_is_not_a_positive_number_is_refused(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be positive, got "):
            WaterTankActiveEnvironment(**{name: value})

    @pytest.mark.parametrize("step_period, substep", [(0.1, 1e-320), (1e306, 1e-3)])
    def test_step_count_must_be_finite(self, step_period, substep):
        with pytest.raises(ValueError, match="step_period / substep is not finite"):
            WaterTankActiveEnvironment(step_period=step_period, substep=substep)

    @pytest.mark.parametrize("step_period, substep", [(0.1, 1e-300), (100_000.001, 1e-3)])
    def test_step_count_is_bounded(self, step_period, substep):
        with pytest.raises(ValueError, match="^round\\(step_period / substep\\) is above the limit of 100000000 RK4 steps$"):
            WaterTankActiveEnvironment(step_period=step_period, substep=substep)
        WaterTankActiveEnvironment(step_period=100_000.0, substep=1e-3)  # exactly 10**8 steps per advance


PAPER_TANK = {"level": 1.0, "area": 5.0, "outflow_coeff": 0.5, "inflow_gain": 2.0}
finite = st.floats(-3.0, 3.0, allow_nan=False)
tank_params = st.one_of(
    st.sampled_from([
        PAPER_TANK,
        {key: value * 0.8 for key, value in PAPER_TANK.items()},
        {key: value * 1.2 for key, value in PAPER_TANK.items()},
    ]),
    st.fixed_dictionaries({
        "level": st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 4.0)),
        "time": st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
        "area": st.floats(0.2, 10.0),
        "outflow_coeff": finite,
        "inflow_gain": finite,
        "inflow": st.sampled_from([clipped_sine_inflow, zero_inflow]),
    }),
)
# (sample_period, substep); the last pair has a non-integer ratio.
grids = st.sampled_from([(0.1, 1e-3), (0.5, 0.05), (1.0, 0.25), (0.37, 0.013)])


class TestSimulatorOracle:
    """The plain-float integrator reproduces the per-step dataclass path bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(params=tank_params, grid=grids, n=st.integers(1, 300))
    def test_trajectory_columns_are_byte_equal(self, params, grid, n):
        sample_period, substep = grid
        if n * sample_period / substep > 40_000:  # keep each example well under a second
            n = max(1, int(40_000 * substep / sample_period))
        system = WaterTankSystem(**params)
        got = OdeEnvironment(system, sample_period, substep).sample_trajectory(n)
        want = reference_sample_trajectory(system, sample_period, substep, n)
        for name in ("t", "V", "x"):
            assert got.column(name).tobytes() == want.column(name).tobytes(), name

    @settings(max_examples=40, deadline=None)
    @given(params=tank_params, dt=st.floats(1e-4, 2.0))
    def test_step_is_byte_equal(self, params, dt):
        system = WaterTankSystem(**params)
        for _ in range(5):
            (level, time), system = one_step(system, dt), reference_step(system, dt)
            assert (level, time) == (system.level, system.time)
            assert math.copysign(1.0, level) == math.copysign(1.0, system.level)

    def test_negative_zero_level_is_kept(self):
        # With zero inflow and negative coefficients every stage is -0.0, and
        # max(-0.0, 0.0) keeps the sign of the zero.
        system = WaterTankSystem(level=-0.0, outflow_coeff=-0.5, inflow_gain=-2.0, inflow=zero_inflow)
        got = OdeEnvironment(system, 0.1, 0.05).sample_trajectory(3).column("x")
        want = reference_sample_trajectory(system, 0.1, 0.05, 3).column("x")
        assert got.tobytes() == want.tobytes()
        assert math.copysign(1.0, got[-1]) == -1.0

    def test_active_environment_matches_reference(self):
        env = WaterTankActiveEnvironment(step_period=0.1, substep=1e-3)
        system = WaterTankSystem()
        actions = [None, 1.0, None, 0.25, 0.0, None, 0.7, 1.0, None, None, 0.0, 0.5]
        held = 0.0
        for action in actions * 3:
            if action is not None:
                env.act(action)
                held = action
            env.advance()
            stepped = replace(system, inflow=lambda t, u=held: u)
            for _ in range(100):
                stepped = reference_step(stepped, 0.1 / 100)
            system = replace(stepped, inflow=system.inflow)
            obs = env.observe()
            assert obs.column("t")[0] == system.time == env.time
            assert obs.column("x")[0] == system.level

    def test_non_finite_message_matches_reference(self):
        tank = WaterTankSystem(inflow=lambda t: math.inf)
        with pytest.raises(NonFiniteState) as want:
            reference_step(tank, 0.1)
        with pytest.raises(NonFiniteState) as got:
            one_step(tank, 0.1)
        assert str(got.value) == str(want.value) == "level became non-finite at t=0.1"
        with pytest.raises(NonFiniteState, match=r"^level became non-finite at t=0\.001$"):
            OdeEnvironment(tank).sample_trajectory(2)

    def test_inflow_is_called_once_per_time_point(self):
        calls = []
        tank = WaterTankSystem(inflow=lambda t: calls.append(t) or clipped_sine_inflow(t))
        OdeEnvironment(tank, sample_period=0.1, substep=0.01).sample_trajectory(5)
        # One call per sample row, two per RK4 step (midpoint and end point).
        assert len(calls) == 5 + 2 * 4 * 10
