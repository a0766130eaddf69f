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

import numpy as np

from .dataset import Dataset, load_csv, load_json
from .errors import PipelineError
from .transforms import Transform, TransformChain, _positive_int, _positive_real, _setting


class ActionOutOfRange(PipelineError):
    """An action was submitted outside the environment's action space."""


class NonFiniteState(PipelineError):
    """Numerical integration produced a non-finite state."""


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
    shorter. Concatenating all batches reproduces the source dataset.

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
        batch = self._dataset.slice_rows(self._cursor, self._cursor + self._batch_size)
        self._cursor += batch.row_count
        return batch


@dataclass(frozen=True)
class ActionSpace:
    """A single continuous action dimension with inclusive bounds."""

    name: str
    low: float
    high: float

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
_sin = math.sin


def clipped_sine_inflow(t: float) -> float:
    """Default benchmark inflow: a sine wave of period 10 s, clipped at 0.

    Returns ``max(0.0, sin(2.0 * pi * t / 10.0))``, the same double for every ``t``:
    ``_TWO_PI`` is the double ``2.0 * math.pi``, the product and quotient are taken
    left to right as written, and ``s if s > 0.0 else 0.0`` is ``max(0.0, s)``, giving
    0.0 for -0.0 and NaN too. For ``t`` = +-inf, ``sin`` raises ValueError.
    """
    s = _sin(_TWO_PI * t / 10.0)
    return s if s > 0.0 else 0.0


def zero_inflow(t: float) -> float:
    return 0.0


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
        inflow: inflow signal, a pure function of time; called once per distinct time point.
            The default, :func:`clipped_sine_inflow`, is ``max(0.0, sin(2.0 * pi * t / 10.0))``
            bit for bit.

    Raises:
        ValueError: ``tank area must be positive, got ...`` for an area that is not a
            positive finite number (NaN, an infinity, a bool or a string included).
    """

    level: float = 1.0
    time: float = 0.0
    area: float = 5.0
    outflow_coeff: float = 0.5
    inflow_gain: float = 2.0
    inflow: Callable[[float], float] = clipped_sine_inflow

    def __post_init__(self):
        _setting("tank area", self.area, _positive_real)


# The most RK4 steps one sample_trajectory or advance call may take: about two
# minutes at the ~1.2 us per step measured on a 2-vCPU Xeon. The paper's run takes 24 900.
_MAX_RK4_STEPS = 10**8


def _substeps(period: float, substep: float, name: str) -> tuple[int, float]:
    """The number and size of the RK4 steps that cover one ``period`` in steps of about ``substep``."""
    _setting(name, period, _positive_real)
    _setting("substep", substep, _positive_real)
    if not math.isfinite(period / substep):
        raise ValueError(f"substep {substep!r} is too small: {name} / substep is not finite")
    steps = max(1, round(period / substep))
    return steps, period / steps


def _rk4(tank: WaterTankSystem, inflow, y: float, t: float, u: float, h: float, steps: int):
    """Run ``steps`` RK4 steps of size ``h`` from level ``y`` at time ``t``; return (y, t).

    ``u`` is ``inflow(t)``; ``inflow`` is called once per distinct time point. The float
    operations and their order are those of an RK4 step over the rate given by
    :class:`WaterTankSystem`; ``0.0 if v < 0.0 else v`` is ``max(v, 0.0)``, for -0.0 and NaN too.
    """
    area, coeff, gain = tank.area, tank.outflow_coeff, tank.inflow_gain
    half, sqrt = h / 2.0, math.sqrt
    for _ in range(steps):
        u_mid, u_end = inflow(t + half), inflow(t + h)
        k1 = (gain * u - coeff * sqrt(0.0 if y < 0.0 else y)) / area
        v = y + h * k1 / 2.0
        k2 = (gain * u_mid - coeff * sqrt(0.0 if v < 0.0 else v)) / area
        v = y + h * k2 / 2.0
        k3 = (gain * u_mid - coeff * sqrt(0.0 if v < 0.0 else v)) / area
        v = y + h * k3
        k4 = (gain * u_end - coeff * sqrt(0.0 if v < 0.0 else v)) / area
        y = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        t, u = t + h, u_end
        if not math.isfinite(y):
            raise NonFiniteState(f"level became non-finite at t={t}")
        y = 0.0 if y < 0.0 else y
    return y, t


class OdeEnvironment:
    """Samples a simulated ODE system at a fixed period.

    Between output samples the system is integrated with a fixed internal
    substep (default 1 ms) so the sampling period does not limit accuracy.
    Sample ``i`` is taken at ``t0 + i * sample_period``, starting at the
    system's initial time.

    Raises:
        ValueError: ``sample_period must be positive, got ...`` or ``substep must be
            positive, got ...`` for a value that is not a positive finite number, or
            if ``sample_period / substep`` is not finite.
    """

    def __init__(self, system: WaterTankSystem, sample_period: float = 0.1, substep: float = 1e-3):
        self._substeps, self._h = _substeps(sample_period, substep, "sample_period")
        self._initial = system
        self.sample_period = sample_period
        self.substep = substep

    def sample_trajectory(self, n: int) -> Dataset:
        """Simulate and return n samples as a Dataset {t, V, x}.

        Columns: sample time ``t``, inflow value ``V`` at that time, and the
        fill level ``x``. Consecutive rows are ``sample_period`` apart.
        """
        if n < 1:
            raise ValueError(f"need at least one sample, got {n}")
        if (n - 1) * self._substeps > _MAX_RK4_STEPS:
            raise ValueError(f"(n - 1) * round(sample_period / substep) is above the limit of "
                             f"{_MAX_RK4_STEPS} RK4 steps")
        tank, substeps, h = self._initial, self._substeps, self._h
        times, inflows, levels = np.empty((3, n), dtype=np.float64)
        level, t0 = tank.level, tank.time
        for i in range(n):
            t_i = t0 + i * self.sample_period  # re-anchored: times carry no drift
            u = tank.inflow(t_i)
            times[i], inflows[i], levels[i] = t_i, u, level
            if i + 1 < n:
                level, _ = _rk4(tank, tank.inflow, level, t_i, u, h, substeps)
        return Dataset([("t", times), ("V", inflows), ("x", levels)])


class WaterTankActiveEnvironment(ActiveEnvironment):
    """Interactive water tank: the action is the inflow level for a step, in [0, 1].

    The tank starts as ``WaterTankSystem()``. The pending action persists
    across advances (zero-order hold) until a new one is submitted; before any
    action the default inflow 0 is used.

    Raises:
        ValueError: ``step_period must be positive, got ...`` or ``substep must be
            positive, got ...`` for a value that is not a positive finite number, or
            if a step needs no finite or too many RK4 steps.
    """

    def __init__(self, step_period: float = 0.1, substep: float = 1e-3):
        self._substeps, self._h = _substeps(step_period, substep, "step_period")
        if self._substeps > _MAX_RK4_STEPS:
            raise ValueError(f"round(step_period / substep) is above the limit of {_MAX_RK4_STEPS} RK4 steps")
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
        space = self._space
        if not space.contains(action):
            raise ActionOutOfRange(f"action {action} outside [{space.low}, {space.high}]")
        self._pending = float(action)

    def advance(self) -> None:
        held = self._pending
        self._level, self._time = _rk4(self._system, lambda t: held, self._level, self._time, held, self._h,
                                       self._substeps)

    def observe(self) -> Dataset:
        return Dataset([("t", [self._time]), ("x", [self._level])])
