"""Declarative pipeline configuration: validation and execution.

A pipeline config is a JSON document with these fields::

    {
      "schema_version": 1,
      "seed": 0,
      "environment": {"kind": "ode_watertank" | "csv" | "json", ...},
      "transforms": [{"kind": "sliding_window" | "select" | "explode"
                               | "standardize", ...}, ...],
      "io": {"inputs": [...], "outputs": [...]},
      "split_fraction": 0.8,
      "learner": {"kind": "regression_tree" | "linear"
                          | "incremental_linear" | "remote", ...},
      "metrics": ["mae", "mse", ...]
    }

Every environment, transform and learner kind is one entry of
``ENVIRONMENT_KINDS``, ``TRANSFORM_KINDS`` or ``LEARNER_KINDS``: a factory
plus, for each parameter, a check and a default. These tables are the single
source of truth: validation diagnostics, default filling, construction and
``watertank_config()`` all read them. The ``ode_watertank`` kind is read from
``environments.WATERTANK_KIND`` and the local learner kinds from ``learners.LOCAL_KINDS``.
All checks but ``path``, ``address`` and the top-level ones are those of the objects taking
the values: the tank's step limit, ``io``, ``split_fraction`` and ``metrics`` are checked as
``sample_trajectory``, ``IoSpec``, ``Dataset.split`` and ``evaluate`` check them. A parameter that
its kind's table does not name is reported as unknown, for every kind. The
``csv`` and ``json`` kinds take only a ``path``; a CSV file is a header row,
then comma-separated rows, as ``load_csv`` reads it.

Execution order: observe the environment, fit and apply the transforms,
split rows chronologically, learn on the leading part, evaluate on the rest.
Adaptive transforms are fitted on the full observed dataset, before the
split. Reports are written with sorted keys, so a config maps to
byte-identical report files.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

from . import remote
from .dataset import _fraction, _is_int, _names
from .environments import WATERTANK_KIND, OfflineEnvironment, _step_limit
from .errors import PipelineError
from .learners import LOCAL_KINDS, MODEL_FILE_SUFFIX, Model, save_model
from .metrics import _metric_problems
from .strategies import EvaluationReport, IoSpec, _io_problems, evaluate, learn_offline
from .transforms import (Explode, Select, SlidingWindow, Standardize, TransformChain, _check, _distinct_names,
                         _positive_int)

CONFIG_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 1

_REQUIRED_FIELDS = ("environment", "io", "learner", "metrics", "split_fraction")
_TOP_LEVEL_KEYS = {*_REQUIRED_FIELDS, "schema_version", "seed", "transforms", "output_dir"}


class ConfigError(PipelineError):
    """A configuration field is missing, unknown, or invalid."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def load_config(path) -> dict:
    """Read a JSON config file.

    Raises:
        ConfigError: if the file is not valid JSON or not an object.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, bad UTF-8, too many digits, too deep
            raise ConfigError("<file>", f"invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("<file>", "config root must be an object")
    return cfg


# Checks only configs use, of the form ``dataset._check`` gives: None if valid, else the message.
_path = _check(lambda v: isinstance(v, str), "must be a file path string")


def _address(value):
    if not isinstance(value, str):
        return "must be a 'host:port' string"
    try:
        remote.parse_address(value)
    except ValueError as exc:
        if value.rpartition(":")[2].isdigit():  # in host:port form, so say what is wrong with it
            return f"not a 'host:port' string: {value!r}: {exc}"
        return f"not a 'host:port' string: {value!r}"
    return None


# The kind tables: kind -> (factory, {parameter -> (check, default)}).
# A parameter whose default is _REQUIRED must be given. Environment and
# transform factories take the parameters; learner factories also take the
# training rows, the IoSpec and an ExitStack that owns what must stay open
# until the model is evaluated and fetched, and return the model.

_REQUIRED = object()


ENVIRONMENT_KINDS = {
    "ode_watertank": WATERTANK_KIND,
    "csv": (OfflineEnvironment.from_csv, {"path": (_path, _REQUIRED)}),
    "json": (OfflineEnvironment.from_json, {"path": (_path, _REQUIRED)}),
}

TRANSFORM_KINDS = {
    "sliding_window": (SlidingWindow, {"window_size": (_positive_int, _REQUIRED)}),
    "select": (Select, {"names": (_distinct_names, _REQUIRED)}),
    "explode": (Explode, {"names": (_names, _REQUIRED)}),
    "standardize": (Standardize, {"names": (_names, _REQUIRED)}),
}


def _local(learner_class, drive):
    """The factory of a local learner kind, from its ``learners.LOCAL_KINDS`` entry."""
    return lambda train, io, resources, **settings: drive(learner_class, train, io, **settings)


def _remote(train, io, resources, address, timeout):
    session = resources.enter_context(remote.connect(address, timeout=timeout))
    return learn_offline(OfflineEnvironment.from_dataset(train), None, io, session)


LEARNER_KINDS = {
    **{kind: (_local(cls, drive), settings) for kind, (cls, drive, settings) in LOCAL_KINDS.items()},
    "remote": (_remote, {
        "address": (_address, _REQUIRED),
        "timeout": (remote._timeout, remote.DEFAULT_TIMEOUT),
    }),
}


def _check_spec(diags: list[str], field: str, spec, table: dict) -> None:
    """Append the diagnostics of one kind spec, as ``table`` describes its kind."""
    if not isinstance(spec, dict):
        diags.append(f"{field}: must be an object")
        return
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in table:
        diags.append(f"{field}.kind: unknown kind {kind!r} (known: {list(table)})")
        return
    params = table[kind][1]
    diags.extend(
        f"{field}.{key}: unknown parameter" for key in spec if key != "kind" and key not in params
    )
    for key, (check, default) in params.items():
        problem = check(spec.get(key)) if key in spec or default is _REQUIRED else None
        if problem:
            diags.append(f"{field}.{key}: {problem}")


def _check_step_count(diags: list[str], spec) -> None:
    """Append the diagnostic of an ``ode_watertank`` spec whose trajectory takes no finite
    number of RK4 steps, as ``substep=1e-320`` does, or too many: ``environments._step_limit``
    refuses it as sampling the trajectory would."""
    if isinstance(spec, dict) and spec.get("kind") == "ode_watertank":
        problem = _step_limit(**{key: spec.get(key, default) for key, (_, default) in WATERTANK_KIND[1].items()})
        if problem:
            diags.append(f"environment.substep: {problem}")


def _build(spec: dict, table: dict, *args):
    """Construct a validated spec's kind from ``table``, filling in the defaults."""
    factory, params = table[spec["kind"]]
    return factory(*args, **{key: spec.get(key, default) for key, (_, default) in params.items()})


def _defaults(table: dict, kind: str) -> dict:
    """The spec of ``kind`` with every parameter written out at its default."""
    return {"kind": kind, **{key: default for key, (_, default) in table[kind][1].items()}}


def _raise_first(diagnostics: list[str]) -> None:
    if diagnostics:
        field, _, message = diagnostics[0].partition(": ")
        raise ConfigError(field, message or diagnostics[0])


def validate_config(cfg: dict) -> list[str]:
    """Schema plus cross-field validation, without executing anything.

    Returns a list of diagnostics; an empty list means the config is valid.
    Never raises for a config parsed from JSON.
    """
    diags = [f"{key}: unknown top-level field" for key in cfg if key not in _TOP_LEVEL_KEYS]
    version = cfg.get("schema_version")
    if "schema_version" in cfg and not (_is_int(version) and version == CONFIG_SCHEMA_VERSION):
        diags.append(f"schema_version: expected {CONFIG_SCHEMA_VERSION}, got {version}")
    if "seed" in cfg and not _is_int(cfg["seed"]):
        diags.append("seed: must be an integer")
    if "output_dir" in cfg and not isinstance(cfg["output_dir"], str):
        diags.append("output_dir: must be a directory path string")
    diags.extend(f"{field}: required field is missing" for field in _REQUIRED_FIELDS if field not in cfg)

    if "environment" in cfg:
        _check_spec(diags, "environment", cfg["environment"], ENVIRONMENT_KINDS)
        _check_step_count(diags, cfg["environment"])
    transforms = cfg.get("transforms", [])
    if not isinstance(transforms, list):
        diags.append("transforms: must be a list")
    else:
        for index, spec in enumerate(transforms):
            _check_spec(diags, f"transforms[{index}]", spec, TRANSFORM_KINDS)

    io = cfg.get("io", {})
    if not isinstance(io, dict):
        diags.append("io: must be an object")
    elif "io" in cfg:
        diags.extend(f"io.{key}: unknown parameter" for key in io if key not in ("inputs", "outputs"))
        problems = _io_problems(io.get("inputs"), io.get("outputs"))
        diags.extend(f"io.{key}: {problem}" if key else f"io: {problem}" for key, problem in problems)

    if "split_fraction" in cfg and (problem := _fraction(cfg["split_fraction"])):
        diags.append(f"split_fraction: {problem}")

    if "learner" in cfg:
        _check_spec(diags, "learner", cfg["learner"], LEARNER_KINDS)

    if "metrics" in cfg:
        diags.extend(f"metrics: {problem}" for problem in _metric_problems(cfg["metrics"]))
    return diags


class PipelineResult:
    """Everything a pipeline run produced."""

    def __init__(self, report: EvaluationReport, model: Model, seed: int):
        self.report = report
        self.model = model
        self.seed = seed

    def report_dict(self) -> dict:
        return {"schema_version": REPORT_SCHEMA_VERSION, **self.report.to_dict()}


def run_config(cfg: dict) -> PipelineResult:
    """Execute a validated config: observe, transform, split, learn, evaluate.

    Raises:
        ConfigError: naming the offending field, if validation fails.
    """
    _raise_first(validate_config(cfg))

    environment = _build(cfg["environment"], ENVIRONMENT_KINDS)
    chain = TransformChain([_build(spec, TRANSFORM_KINDS) for spec in cfg.get("transforms", [])])
    observed = environment.observe()
    chain.fit(observed)
    transformed = chain.apply(observed)
    train, held_out = transformed.split(cfg["split_fraction"])

    io = IoSpec(cfg["io"]["inputs"], cfg["io"]["outputs"])
    with contextlib.ExitStack() as resources:
        model = _build(cfg["learner"], LEARNER_KINDS, train, io, resources)
        report = evaluate(OfflineEnvironment.from_dataset(held_out), model, io, cfg["metrics"])
        if isinstance(model, remote.RemoteModel):
            model = model.fetch()  # persistable local copy of the remote artifact
    return PipelineResult(report, model, cfg.get("seed", 0))


def write_result(result: PipelineResult, out_dir) -> tuple[Path, Path]:
    """Write report.json and model.fcm.json into ``out_dir``; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    model_path = out / f"model{MODEL_FILE_SUFFIX}"
    body = json.dumps(result.report_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    report_path.write_text(body, encoding="utf-8")
    save_model(result.model, model_path)
    return report_path, model_path


# The built-in scenario's learner names, each with its ``LEARNER_KINDS`` kind.
WATERTANK_LEARNERS = {"tree": "regression_tree", "linear": "linear", "incremental_linear": "incremental_linear"}


def watertank_config(learner: str = "tree") -> dict:
    """The built-in benchmark scenario as an explicit config.

    Simulates the water tank with every ``ode_watertank`` parameter at its
    default, windows three time steps, predicts the newest level from the
    five preceding window columns, trains on the leading 80% of rows, and
    reports MAE and MSE. The learner's parameters are written out at their
    defaults too, so the tree has depth 5.
    """
    if learner not in WATERTANK_LEARNERS:
        raise ConfigError("learner", f"unknown learner {learner!r} (known: {sorted(WATERTANK_LEARNERS)})")
    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "seed": 0,
        "environment": _defaults(ENVIRONMENT_KINDS, "ode_watertank"),
        "transforms": [{"kind": "sliding_window", "window_size": 3}],
        "io": {"inputs": ["V_0", "x_0", "V_1", "x_1", "V_2"], "outputs": ["x_2"]},
        "split_fraction": 0.8,
        "learner": _defaults(LEARNER_KINDS, WATERTANK_LEARNERS[learner]),
        "metrics": ["mae", "mse"],
    }
