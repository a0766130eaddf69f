"""Learning-strategy drivers and the evaluation strategy.

Each strategy composes an environment, optional transforms, an input/output
selection, and a learner into a single driver loop that produces a model.
Evaluation retrieves held-out data, predicts, and scores the predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dataset import Dataset, _names
from .environments import ActiveEnvironment, IncrementalEnvironment, OfflineEnvironment
from .metrics import _metric_problems, get_metric
from .transforms import Transform, _positive_int, _setting


def _io_problems(inputs, outputs) -> list[tuple[str | None, str]]:
    """(``"inputs"``, ``"outputs"`` or None for both, message) for each problem of io column names, in order."""
    problems = [(key, p) for key, p in (("inputs", _names(inputs, unique=True)), ("outputs", _names(outputs))) if p]
    overlap = set() if problems else set(inputs) & set(outputs)  # both are lists of strings if neither is refused
    if isinstance(outputs, (list, tuple)) and len(outputs) != 1:
        problems.append(("outputs", "exactly one output column is supported"))
    if overlap:
        problems.append((None, f"inputs and outputs overlap: {sorted(overlap)}"))
    return problems


@dataclass(frozen=True)
class IoSpec:
    """Names of the model's input columns and its one output column. ``ValueError`` says the first
    problem that ``_io_problems``, the check of a config's ``io``, finds: ``inputs: <message>`` and so on."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    def __init__(self, inputs: Sequence[str], outputs: Sequence[str]):
        if problems := _io_problems(inputs, outputs):
            key, problem = problems[0]
            raise ValueError(f"{key}: {problem}" if key else problem)
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "outputs", tuple(outputs))


@dataclass(frozen=True)
class EvaluationReport:
    """Metric values of one model on one evaluation dataset."""

    model_id: str
    row_count: int
    entries: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "rows": self.row_count,
            "metrics": {name: value for name, value in self.entries},
        }


def _split_io(dataset: Dataset, io: IoSpec) -> tuple[Dataset, Dataset]:
    """``(dataset.select(io.inputs), dataset.select(io.outputs))``. ``IoSpec`` checked its names when it
    was built, so they are picked without ``select``'s name rule; ``UnknownColumn`` names the first absent
    name, inputs before outputs."""
    return dataset._pick(io.inputs), dataset._pick(io.outputs)


def learn_offline(environment: OfflineEnvironment, transforms: Transform | None, io: IoSpec, learner):
    """Offline driver: observe once, transform, select io, fit.

    The environment is observed exactly once; ``transforms`` (a transform,
    such as a chain, or None) run after any transforms already attached to
    the environment, and the io selection runs last.
    """
    data = environment.observe()
    if transforms is not None:
        data = transforms.apply(data)
    inputs, outputs = _split_io(data, io)
    return learner.fit(inputs, outputs)


def learn_incremental(environment: IncrementalEnvironment, transforms: Transform | None, io: IoSpec, learner):
    """Incremental driver: update on every batch until the stream is exhausted.

    Each batch passes through ``transforms`` (a transform, such as a chain,
    or None) and the io selection before the learner update; exhaustion of
    the environment ends the loop, after which the learner is finalized.

    Raises:
        NeverUpdated: (from the learner) if the stream yields no batches.
    """
    while (batch := environment.next_batch()) is not None:
        if transforms is not None:
            batch = transforms.apply(batch)
        inputs, outputs = _split_io(batch, io)
        learner.update(inputs, outputs)
    return learner.finalize()


def learn_active(environment: ActiveEnvironment, learner, step_budget: int):
    """Active driver: run the interaction loop for exactly ``step_budget`` steps.

    One step is: observe, request an action, act, advance, observe the
    outcome, learn from the transition. The budget exhausting is the loop's
    continue-predicate, after which the learner is finalized into a model.

    Raises:
        ValueError: ``step_budget must be a positive integer, got ...``.
    """
    for _ in range(_setting("step_budget", step_budget, _positive_int)):
        observation = environment.observe()
        action = learner.propose_action(observation)
        environment.act(action)
        environment.advance()
        outcome = environment.observe()
        learner.observe_transition(observation, action, outcome)
    return learner.finalize()


def evaluate(
    environment: OfflineEnvironment,
    model,
    io: IoSpec,
    metric_names: Sequence[str],
) -> EvaluationReport:
    """Evaluation strategy: retrieve data, predict, compare with metrics.

    Predictions are compared row-aligned against the actual output column.

    Raises:
        ValueError: ``metric_names: <message>``, before any metric is computed, for the first
            problem ``metrics._metric_problems``, the check of a config's ``metrics``, finds; or,
            before the environment is observed, ``io: the model predicts ..., not the output
            column ...`` if the model's output column is not ``io``'s.
    """
    if problems := _metric_problems(metric_names):
        raise ValueError(f"metric_names: {problems[0]}")
    if model.output_column != io.outputs[0]:
        raise ValueError(f"io: the model predicts {model.output_column!r}, not the output column {io.outputs[0]!r}")
    data = environment.observe()
    inputs, outputs = _split_io(data, io)
    predictions = model.predict(inputs)
    predicted = predictions.column(model.output_column)
    actual = outputs.column(io.outputs[0])
    entries = tuple((name, get_metric(name)(predicted, actual)) for name in metric_names)
    return EvaluationReport(model.model_id, data.row_count, entries)
