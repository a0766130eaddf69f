"""Data-source abstractions: batch, streaming, and interactive environments.

Three environment kinds cover the ways a system can provide data: an
:class:`OfflineEnvironment` is observed once and yields a whole dataset, an
:class:`IncrementalEnvironment` yields batches until exhausted, and an
:class:`ActiveEnvironment` is driven step by step through actions. A
fixed-step simulation of a nonlinear water tank serves as the built-in
benchmark system.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable

from ._numpy import np
from .dataset import Dataset, load_csv, load_json
from .errors import PipelineError
from .transforms import Transform, TransformChain, _column_name, _number, _positive, _positive_int, _setting


class ActionOutOfRange(PipelineError):
    """An action was submitted outside the environment's action space."""


class NonFiniteState(PipelineError):
    """Numerical integration produced a non-finite state."""


class InflowUndefined(PipelineError, ValueError):
    """The tank's inflow raised ValueError at a time point that the integration needs."""


class OfflineEnvironment:
    """A data source observed once, as a single batch.

    Observation is idempotent: the underlying source is loaded once and
    cached, so repeated observations yield equal datasets even if a backing
    file changes in between. Transforms attached via :meth:`with_transform`
    are applied, in attachment order, to every observation.
    """

    def __init__(self, loader: Callable[[], Dataset]):
        self._loader = loader
        self._chain = TransformChain()
        self._raw: Dataset | None = None

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "OfflineEnvironment":
        return cls(lambda: dataset)

    @classmethod
    def from_csv(cls, path) -> "OfflineEnvironment":
        return cls(lambda: load_csv(path))

    @classmethod
    def from_json(cls, path) -> "OfflineEnvironment":
        return cls(lambda: load_json(path))

    def with_transform(self, transform: Transform) -> "OfflineEnvironment":
        """Return a new environment with one more transform attached."""
        env = OfflineEnvironment(self._loader)
        env._chain = TransformChain([self._chain, transform])
        env._raw = self._raw
        return env

    def observe(self) -> Dataset:
        if self._raw is None:
            self._raw = self._loader()
        return self._chain.apply(self._raw)


class IncrementalEnvironment(abc.ABC):
    """A source that yields datasets batch by batch until exhausted."""

    @abc.abstractmethod
    def next_batch(self) -> Dataset | None:
        """Return the next batch, or None once the stream is exhausted.

        Exhaustion is stable: after the first None, every further call
        returns None as well.
        """


class DatasetStream(IncrementalEnvironment):
    """Replay a dataset as a stream of consecutive row batches.

    Every batch holds at most ``batch_size`` rows; the final batch may be
    shorter. Concatenating all batches reproduces the source dataset: each
    batch equals ``dataset.slice_rows(start, start + batch_size)``. The
    cursor bounds are non-negative ints by construction, so a batch is taken
    by ``Dataset._row_range``, without ``slice_rows``' bound checks.

    Raises:
        ValueError: ``batch_size must be a positive integer, got ...``.
    """

    def __init__(self, dataset: Dataset, batch_size: int):
        self._batch_size = _setting("batch_size", batch_size, _positive_int)
        self._dataset = dataset
        self._cursor = 0

    def next_batch(self) -> Dataset | None:
        if self._cursor >= self._dataset.row_count:
            return None
        batch = self._dataset._row_range(self._cursor, self._cursor + self._batch_size)
        self._cursor += batch.row_count
        return batch


@dataclass(frozen=True)
class ActionSpace:
    """A single continuous action dimension with inclusive bounds.

    Raises:
        ValueError: ``name must be a column name, got ...``, ``low must be a number, got ...``
            (or ``high``), or ``high must be at least low ..., got ...``.
    """

    name: str
    low: float
    high: float

    def __post_init__(self):
        _setting("name", self.name, _column_name)
        _setting("low", self.low, _number)
        _setting("high", self.high, _number)
        if self.high < self.low:
            raise ValueError(f"high must be at least low {self.low!r}, got {self.high!r}")

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


class ActiveEnvironment(abc.ABC):
    """A system driven through an act / advance / observe cycle.

    ``observe`` is side-effect free: without an intervening ``act`` or
    ``advance`` it keeps returning the same single-row dataset.
    """

    @property
    @abc.abstractmethod
    def action_space(self) -> ActionSpace: ...

    @abc.abstractmethod
    def act(self, action: float) -> None:
        """Record an action; it takes effect at the next advance."""

    @abc.abstractmethod
    def advance(self) -> None:
        """Move internal time forward one step under the pending action."""

    @abc.abstractmethod
    def observe(self) -> Dataset:
        """Return the current observation as a single-row dataset."""


_TWO_PI = 2.0 * math.pi


def clipped_sine_inflow(t):
    """Default benchmark inflow: a sine wave of period 10 s, clipped at 0, at each time in ``t``.

    Returns ``max(0.0, sin(2.0 * pi * t / 10.0))`` elementwise, the same double for every time, and
    a float for a float ``t``: ``_TWO_PI`` is the double ``2.0 * math.pi``, the product and quotient
    are taken left to right as written, float64 ``np.sin`` gives ``math.sin``'s double, and
    ``s if s > 0.0 else 0.0`` is ``max(0.0, s)``, giving 0.0 for -0.0 and NaN too. Where
    ``2.0 * pi * t / 10.0`` is infinite, as for ``t`` = +-inf, raises ValueError as ``math.sin`` does.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or NaN from a signalling NaN, as in Python floats
        x = _TWO_PI * np.asarray(t, dtype=np.float64) / 10.0
        if np.isinf(x).any():
            raise ValueError("math domain error")
        s = np.sin(x)
    return np.where(s > 0.0, s, 0.0)[()]


def zero_inflow(t):
    """No inflow: 0.0 at every time, one constant that the simulator broadcasts over ``t``."""
    return 0.0


# The check of the tank's level, beside the shared checks in ``transforms``.
def _non_negative(value):
    return _number(value) or (None if value >= 0 else "must be non-negative")


@dataclass(frozen=True)
class WaterTankSystem:
    """A tank with level-proportional-root outflow and a gated inflow.

    The fill level changes at rate
    ``(inflow_gain * inflow(t) - outflow_coeff * sqrt(level)) / area``.
    The level is physically non-negative: it is clamped at zero both inside
    the rate evaluation and after every integration step.

    Attributes:
        level: current fill level (dimensionless length units).
        time: current simulation time in seconds.
        area: tank cross-section, a positive finite number.
        outflow_coeff: scaling of the square-root outflow term.
        inflow_gain: scaling of the inflow term.
        inflow: inflow signal, a pure elementwise function of a float64 array of times, whose
            result is broadcast to the array's shape, so one constant will do; it raises
            ValueError at a time outside its domain. The simulator passes it the time points of a
            block of RK4 steps at once. The default, :func:`clipped_sine_inflow`, is
            ``max(0.0, sin(2.0 * pi * t / 10.0))`` bit for bit.

    Raises:
        ValueError: ``<field> must be ..., got ...`` for a ``level`` that is not a
            non-negative number, an ``area`` that is not a positive number, or a ``time``,
            ``outflow_coeff`` or ``inflow_gain`` that is not a number. NaN, infinities,
            bools and strings are not numbers.
    """

    level: float = 1.0
    time: float = 0.0
    area: float = 5.0
    outflow_coeff: float = 0.5
    inflow_gain: float = 2.0
    inflow: Callable[[np.ndarray], np.ndarray | float] = clipped_sine_inflow

    def __post_init__(self):
        _setting("level", self.level, _non_negative)
        _setting("time", self.time, _number)
        _setting("area", self.area, _positive)
        _setting("outflow_coeff", self.outflow_coeff, _number)
        _setting("inflow_gain", self.inflow_gain, _number)


# The most RK4 steps one sample_trajectory or advance call may take: about 36 s at the
# ~360 ns per step of one 10^6-step interval, measured on a 2-vCPU Xeon with Python 3.11
# and numpy 2.4. The paper's run takes 24 900.
_MAX_RK4_STEPS = 100_000_000


def _rk4_steps(period: float, substep: float, name: str, samples: int = 2) -> tuple[int, float]:
    """The number and size of the RK4 steps that cover one ``period`` in steps of about ``substep``.

    A trajectory of ``samples`` samples, ``period`` apart, covers ``samples - 1`` periods;
    one advance of an active environment covers one (two samples).

    Raises:
        ValueError: ``<name> must be a positive number, got ...`` or ``substep must be a
            positive number, got ...``; ``substep ... is too small`` if ``period / substep``
            is not finite; or ``<samples - 1> * round(<name> / substep) is above the limit
            of ... RK4 steps`` if the trajectory takes more than ``_MAX_RK4_STEPS`` steps.
    """
    _setting(name, period, _positive)
    _setting("substep", substep, _positive)
    if not math.isfinite(period / substep):
        raise ValueError(f"substep {substep!r} is too small: {name} / substep is not finite")
    steps = max(1, round(period / substep))
    if (samples - 1) * steps > _MAX_RK4_STEPS:
        raise ValueError(f"{samples - 1} * round({name} / substep) is above the limit of {_MAX_RK4_STEPS} RK4 steps")
    return steps, period / steps


# The most RK4 steps in one block, whose time points, two per step, go to the inflow in one call. A
# block's arrays and lists peak at about 1 MB; blocks of 2^12 to 2^15 steps took 9.0 to 9.4 ms for the
# paper's trajectory (2-vCPU Xeon), 2^13 the least.
_BLOCK_STEPS = 1 << 13


def _inflow(inflow, points: np.ndarray):
    """``inflow(points)`` as float64 of the points' shape, and None.

    If ``inflow`` raises ValueError, the values instead hold the inflow at the points before the first
    one, in C order, at which it raises, and NaN from there on; the None becomes that point's flat
    index and the :class:`InflowUndefined` that names its time.
    """
    try:
        values = inflow(points)
    except ValueError as exc:
        flat, ok, bad = points.ravel(), 0, points.size  # inflow takes flat[:ok] and raises on flat[:bad]
        while bad - ok > 1:
            mid = (ok + bad) // 2
            try:
                inflow(flat[:mid])
                ok = mid
            except ValueError:
                bad = mid
        values = np.full(points.size, np.nan)
        values[:ok] = inflow(flat[:ok])
        return values.reshape(points.shape), (ok, InflowUndefined(f"inflow is undefined at t={flat[ok]}: {exc}"))
    return np.broadcast_to(np.asarray(values, dtype=np.float64), points.shape), None


def _rk4(tank: WaterTankSystem, inflow, y: float, starts: np.ndarray, h: float, steps: int, inflows, levels):
    """From each time in ``starts`` in turn, take ``steps`` RK4 steps of size ``h``; return (y, t) at the end.

    The level starts at ``y`` and carries over from one run of steps to the next. ``inflows[i]`` is set
    to ``inflow`` at ``starts[i]``, and ``levels[i]`` to the level after the run from it.

    Blocks of at most ``_BLOCK_STEPS`` steps, whole runs or a part of one long run, are taken in turn.
    For a block, numpy computes the time points (``t = t + h`` in order from the run's start, and each
    midpoint ``t + h / 2``), the inflow there and ``inflow_gain`` times it; a Python loop then does only
    the level's arithmetic. The float operations and their order are those of an RK4 step over the rate
    given by :class:`WaterTankSystem`: ``x * 0.5`` rounds as ``x / 2.0`` does, ``0.0 if v < 0.0 else v``
    is ``max(v, 0.0)``, for -0.0 and NaN too, and the level at the top of a step, 0.0 or more or -0.0,
    needs no clamp.

    Raises:
        NonFiniteState: ``level became non-finite at t=...``, at the end time of the step.
        InflowUndefined: ``inflow is undefined at t=...: <its message>`` if ``inflow`` raises
            ValueError there. Either error comes in time order, as if the points were taken one by
            one: the inflow at a run's start, then at each step's midpoint and end, then the step.
    """
    area, coeff, gain, h = float(tank.area), float(tank.outflow_coeff), tank.inflow_gain, float(h)
    half, sqrt, isfinite = h * 0.5, math.sqrt, math.isfinite
    y, rows, width = float(y), max(1, _BLOCK_STEPS // steps), min(steps, _BLOCK_STEPS)
    for first in range(0, len(starts), rows):
        run_starts = starts[first:first + rows]
        for done in range(0, steps, width):
            ends = np.full((len(run_starts), min(width, steps - done) + 1), h)
            ends[:, 0] = run_starts
            points = np.empty((len(ends), 2 * ends.shape[1] - 1))
            with np.errstate(over="ignore"):  # t + h overflows to inf, as it does in Python floats
                points[:, 0::2] = np.add.accumulate(ends, axis=1, out=ends)
                np.add(ends[:, :-1], half, out=points[:, 1::2])
            values, failure = _inflow(inflow, points)
            if done == 0:
                inflows[first:first + len(values)] = values[:, 0]
            with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, as in Python floats
                gained = (gain * values).tolist()
            if failure:  # take only the steps whose points all come before the failing one
                last_row, stop = divmod(failure[0], points.shape[1])
                gained = gained[:last_row] + [gained[last_row][:stop]]  # a run of no steps if stop < 3
            block = []
            for row, g in enumerate(gained):
                row_steps = zip(g[0::2], g[1::2], g[2::2])
                for u, u_mid, u_end in row_steps:
                    k1 = (u - coeff * sqrt(y)) / area
                    v = y + h * k1 * 0.5
                    k2 = (u_mid - coeff * sqrt(0.0 if v < 0.0 else v)) / area
                    v = y + h * k2 * 0.5
                    k3 = (u_mid - coeff * sqrt(0.0 if v < 0.0 else v)) / area
                    v = y + h * k3
                    k4 = (u_end - coeff * sqrt(0.0 if v < 0.0 else v)) / area
                    y = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                    if not isfinite(y):  # the step's end time, counted back from the steps not taken
                        t = ends[row, (len(g) - 1) // 2 - sum(1 for _ in row_steps)]
                        raise NonFiniteState(f"level became non-finite at t={t}")
                    y = 0.0 if y < 0.0 else y
                block.append(y)
            if failure:
                raise failure[1]
            if done + width >= steps:
                levels[first:first + len(block)] = block
            run_starts = ends[:, -1]
    return y, float(run_starts[-1])


class OdeEnvironment:
    """Samples a simulated ODE system at a fixed period.

    Between output samples the system is integrated with a fixed internal
    substep (default 1 ms) so the sampling period does not limit accuracy.
    Sample ``i`` is taken at ``t0 + i * sample_period``, starting at the
    system's initial time.

    Raises:
        ValueError: ``sample_period must be a positive number, got ...`` or ``substep must
            be a positive number, got ...``, or if ``sample_period / substep`` is not finite.
    """

    def __init__(self, system: WaterTankSystem, sample_period: float = 0.1, substep: float = 1e-3):
        _rk4_steps(sample_period, substep, "sample_period", samples=1)  # sample_trajectory checks the step limit
        self._initial = system
        self.sample_period = sample_period
        self.substep = substep

    def sample_trajectory(self, n: int) -> Dataset:
        """Simulate and return n samples as a Dataset {t, V, x}.

        Columns: sample time ``t``, inflow value ``V`` at that time, and the
        fill level ``x``. Consecutive rows are ``sample_period`` apart.

        Raises:
            ValueError: ``n must be a positive integer, got ...``, or if the trajectory
                takes more than ``_MAX_RK4_STEPS`` RK4 steps.
            NonFiniteState: ``level became non-finite at t=...``, the end time of the step.
            InflowUndefined: ``inflow is undefined at t=...: <message>`` where the inflow raises
                ValueError, as the default one does where ``2.0 * pi * t / 10.0`` overflows
                (t beyond about 2.86e307). If a trajectory meets both errors, the one at the
                earlier point wins, as if the points were taken one by one: the inflow at a sample
                time, then at each step's midpoint and end, then the step's level.
        """
        n = _setting("n", n, _positive_int)
        steps, h = _rk4_steps(self.sample_period, self.substep, "sample_period", n)
        tank, period = self._initial, self.sample_period
        times = np.fromiter((tank.time + i * period for i in range(n)), np.float64, n)  # re-anchored: no drift
        inflows, levels = np.empty((2, n), dtype=np.float64)
        levels[0] = tank.level
        if n > 1:
            _rk4(tank, tank.inflow, tank.level, times[:-1], h, steps, inflows[:-1], levels[1:])
        last, failure = _inflow(tank.inflow, times[-1:])
        if failure:
            raise failure[1]
        inflows[-1] = last[0]
        return Dataset([("t", times), ("V", inflows), ("x", levels)])


class WaterTankActiveEnvironment(ActiveEnvironment):
    """Interactive water tank: the action is the inflow level for a step, in [0, 1].

    The tank starts as ``WaterTankSystem()``. The pending action persists
    across advances (zero-order hold) until a new one is submitted; before any
    action the default inflow 0 is used.

    Raises:
        ValueError: ``step_period must be a positive number, got ...`` or ``substep must
            be a positive number, got ...``, or if a step needs no finite or too many RK4 steps.
    """

    def __init__(self, step_period: float = 0.1, substep: float = 1e-3):
        self._substeps, self._h = _rk4_steps(step_period, substep, "step_period")
        self._system = WaterTankSystem()
        self._level, self._time = self._system.level, self._system.time  # what advance steps; _system keeps the constants
        self._space = ActionSpace("V", 0.0, 1.0)
        self._pending = 0.0

    @property
    def action_space(self) -> ActionSpace:
        return self._space

    @property
    def time(self) -> float:
        return self._time

    def act(self, action: float) -> None:
        """Hold ``action`` from the next advance on.

        Raises:
            ValueError: ``action must be a number, got ...``.
            ActionOutOfRange: for a number outside the action space.
        """
        action = _setting("action", action, _number)
        space = self._space
        if not space.contains(action):
            raise ActionOutOfRange(f"action {action} outside [{space.low}, {space.high}]")
        self._pending = float(action)

    def advance(self) -> None:
        held = self._pending
        inflows, levels = np.empty((2, 1))
        self._level, self._time = _rk4(self._system, lambda t: held, self._level, np.array([self._time]), self._h,
                                       self._substeps, inflows, levels)

    def observe(self) -> Dataset:
        return Dataset([("t", [self._time]), ("x", [self._level])])


def _watertank(samples, dt, substep, initial_level, area, outflow_coeff, inflow_gain) -> OfflineEnvironment:
    system = WaterTankSystem(level=initial_level, area=area, outflow_coeff=outflow_coeff, inflow_gain=inflow_gain)
    return OfflineEnvironment.from_dataset(OdeEnvironment(system, dt, substep).sample_trajectory(samples))


def _step_limit(samples, dt, substep, **_) -> str | None:
    """Why sampling the trajectory of these ``ode_watertank`` settings would be refused for its RK4
    steps, or None. A ``dt`` or ``substep`` that its own check refuses is left to that check, and a
    ``samples`` that its check refuses counts as one sample."""
    if _positive(dt) is None and _positive(substep) is None:
        try:
            _rk4_steps(dt, substep, "dt", samples if _positive_int(samples) is None else 1)
        except ValueError as exc:
            return str(exc)
    return None


# The ``ode_watertank`` kind a config builds: (factory, {setting -> (check, default)}), each check the
# one that the object taking the setting applies: ``samples`` is sample_trajectory's ``n``, ``dt``
# OdeEnvironment's ``sample_period`` and ``initial_level`` the tank's ``level``.
WATERTANK_KIND = (_watertank, {
    "samples": (_positive_int, 250),
    "dt": (_positive, 0.1),
    "substep": (_positive, 1e-3),
    "initial_level": (_non_negative, 1.0),
    "area": (_positive, 5.0),
    "outflow_coeff": (_number, 0.5),
    "inflow_gain": (_number, 2.0),
})
