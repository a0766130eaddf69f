import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslearn import Dataset, DatasetStream, OdeEnvironment, OfflineEnvironment, WaterTankSystem
from cpslearn.config import (
    run_config,
    validate_config,
    watertank_config,
)
from cpslearn.learners import LOCAL_KINDS

DELETE = object()
CSV = {"kind": "csv", "path": "data.csv"}
RLS = {"kind": "incremental_linear"}
REMOTE = {"kind": "remote", "address": "127.0.0.1:5000"}
METRIC_NAMES = "['accuracy', 'f_beta', 'mae', 'max_error', 'mse', 'precision', 'r2', 'recall']"
TRANSFORM_NAMES = "['sliding_window', 'select', 'explode', 'standardize']"
ENVIRONMENT_NAMES = "['ode_watertank', 'csv', 'json']"
LEARNER_NAMES = "['regression_tree', 'linear', 'incremental_linear', 'remote']"


def mutated(path, value):
    """The benchmark config with the field at ``path`` set to ``value`` (or deleted)."""
    cfg = copy.deepcopy(watertank_config())
    *parents, last = path
    target = cfg
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return cfg


# One fault per config: (id, path, value, the exact diagnostics).
GOLDEN = [
    ("top-unknown-field", ("extra",), 1, ["extra: unknown top-level field"]),
    ("top-schema-version", ("schema_version",), 2, ["schema_version: expected 1, got 2"]),
    ("top-seed-string", ("seed",), "x", ["seed: must be an integer"]),
    ("top-seed-float", ("seed",), 1.5, ["seed: must be an integer"]),
    ("top-output-dir", ("output_dir",), 3, ["output_dir: must be a directory path string"]),
    ("top-missing-environment", ("environment",), DELETE, ["environment: required field is missing"]),
    ("top-missing-io", ("io",), DELETE, ["io: required field is missing"]),
    ("top-missing-learner", ("learner",), DELETE, ["learner: required field is missing"]),
    ("top-missing-metrics", ("metrics",), DELETE, ["metrics: required field is missing"]),
    ("top-missing-split", ("split_fraction",), DELETE, ["split_fraction: required field is missing"]),
    ("split-zero", ("split_fraction",), 0, ["split_fraction: must be a number in (0, 1)"]),
    ("split-one", ("split_fraction",), 1, ["split_fraction: must be a number in (0, 1)"]),
    ("split-string", ("split_fraction",), "0.5", ["split_fraction: must be a number in (0, 1)"]),
    ("split-bool", ("split_fraction",), True, ["split_fraction: must be a number in (0, 1)"]),
    ("io-not-object", ("io",), [], ["io: must be an object"]),
    ("io-inputs-string", ("io", "inputs"), "V_0", ["io.inputs: must be a list of column names"]),
    ("io-inputs-empty", ("io", "inputs"), [], ["io.inputs: must not be empty"]),
    ("io-inputs-number", ("io", "inputs"), ["V_0", 3], ["io.inputs: must be a list of column names"]),
    ("io-inputs-empty-name", ("io", "inputs"), ["V_0", ""], ["io.inputs: must not hold an empty name"]),
    ("io-outputs-empty-name", ("io", "outputs"), [""], ["io.outputs: must not hold an empty name"]),
    ("io-outputs-missing", ("io", "outputs"), DELETE, ["io.outputs: must be a list of column names"]),
    ("io-outputs-empty", ("io", "outputs"), [],
     ["io.outputs: must not be empty", "io.outputs: exactly one output column is supported"]),
    ("io-outputs-two", ("io", "outputs"), ["x_2", "y"],
     ["io.outputs: exactly one output column is supported"]),
    ("io-overlap", ("io", "inputs"), ["V_0", "x_2"], ["io: inputs and outputs overlap: ['x_2']"]),
    ("io-unknown-key", ("io", "extra"), 1, ["io.extra: unknown parameter"]),
    ("io-inputs-repeated", ("io", "inputs"), ["V_0", "x_0", "V_0", "x_0", "V_1"],
     ["io.inputs: repeated names: ['V_0', 'x_0']"]),
    ("metrics-empty", ("metrics",), [], ["metrics: must be a non-empty list of metric names"]),
    ("metrics-string", ("metrics",), "mae", ["metrics: must be a non-empty list of metric names"]),
    ("metrics-unknown", ("metrics",), ["mae", "nope"],
     [f"metrics: unknown metric 'nope' (known: {METRIC_NAMES})"]),
    ("metrics-repeated", ("metrics",), ["mae", "mse", "mae"], ["metrics: repeated names: ['mae']"]),
    ("transforms-null", ("transforms",), None, ["transforms: must be a list"]),
    ("transform-not-object", ("transforms",), [3], ["transforms[0]: must be an object"]),
    ("transform-unknown-kind", ("transforms",), [{"kind": "wavelet"}],
     [f"transforms[0].kind: unknown kind 'wavelet' (known: {TRANSFORM_NAMES})"]),
    ("transform-missing-kind", ("transforms",), [{"window_size": 3}],
     [f"transforms[0].kind: unknown kind None (known: {TRANSFORM_NAMES})"]),
    ("window-zero", ("transforms",), [{"kind": "sliding_window", "window_size": 0}],
     ["transforms[0].window_size: must be a positive integer"]),
    ("window-missing", ("transforms",), [{"kind": "sliding_window"}],
     ["transforms[0].window_size: must be a positive integer"]),
    ("window-float", ("transforms",), [{"kind": "sliding_window", "window_size": 2.5}],
     ["transforms[0].window_size: must be a positive integer"]),
    ("select-string", ("transforms",), [{"kind": "select", "names": "a"}],
     ["transforms[0].names: must be a list of column names"]),
    ("select-empty-ok", ("transforms",), [{"kind": "select", "names": []}], []),
    ("select-empty-name", ("transforms",), [{"kind": "select", "names": ["V", ""]}],
     ["transforms[0].names: must not hold an empty name"]),
    ("select-repeated", ("transforms",), [{"kind": "select", "names": ["V", "x", "V"]}],
     ["transforms[0].names: repeated names: ['V']"]),
    ("standardize-repeated-ok", ("transforms",), [{"kind": "standardize", "names": ["V", "V"]}], []),
    ("explode-repeated-ok", ("transforms",), [{"kind": "explode", "names": ["V", "V"]}], []),
    ("explode-empty", ("transforms",), [{"kind": "explode", "names": []}],
     ["transforms[0].names: must not be empty"]),
    ("explode-missing", ("transforms",), [{"kind": "explode"}],
     ["transforms[0].names: must be a list of column names"]),
    ("standardize-number", ("transforms",), [{"kind": "standardize", "names": [1]}],
     ["transforms[0].names: must be a list of column names"]),
    ("standardize-empty", ("transforms",), [{"kind": "standardize", "names": []}],
     ["transforms[0].names: must not be empty"]),
    ("second-transform", ("transforms",), [{"kind": "sliding_window", "window_size": 3}, {"kind": "select"}],
     ["transforms[1].names: must be a list of column names"]),
    ("env-not-object", ("environment",), "tank", ["environment: must be an object"]),
    ("env-unknown-kind", ("environment",), {"kind": "teapot"},
     [f"environment.kind: unknown kind 'teapot' (known: {ENVIRONMENT_NAMES})"]),
    ("env-missing-kind", ("environment",), {"path": "data.csv"},
     [f"environment.kind: unknown kind None (known: {ENVIRONMENT_NAMES})"]),
    ("tank-samples-zero", ("environment", "samples"), 0, ["environment.samples: must be a positive integer"]),
    ("tank-samples-float", ("environment", "samples"), 2.5, ["environment.samples: must be a positive integer"]),
    ("tank-dt-zero", ("environment", "dt"), 0, ["environment.dt: must be a positive number"]),
    ("tank-substep-negative", ("environment", "substep"), -1e-3,
     ["environment.substep: must be a positive number"]),
    ("tank-substep-tiny", ("environment", "substep"), 1e-320,
     ["environment.substep: substep 1e-320 is too small: dt / substep is not finite"]),
    ("tank-dt-huge", ("environment", "dt"), 1e306,
     ["environment.substep: substep 0.001 is too small: dt / substep is not finite"]),
    ("tank-substep-too-many-steps", ("environment", "substep"), 1e-300,
     ["environment.substep: 249 * round(dt / substep) is above the limit of 100000000 RK4 steps"]),
    ("tank-area-string", ("environment", "area"), "5", ["environment.area: must be a positive number"]),
    ("tank-initial-level-string", ("environment", "initial_level"), "1",
     ["environment.initial_level: must be a number"]),
    ("tank-initial-level-negative", ("environment", "initial_level"), -0.5,
     ["environment.initial_level: must be non-negative"]),
    ("tank-outflow-null", ("environment", "outflow_coeff"), None,
     ["environment.outflow_coeff: must be a number"]),
    ("tank-inflow-string", ("environment", "inflow_gain"), "2", ["environment.inflow_gain: must be a number"]),
    ("tank-unknown-parameter", ("environment", "volume"), 3.0, ["environment.volume: unknown parameter"]),
    ("csv-path-missing", ("environment",), {"kind": "csv"}, ["environment.path: must be a file path string"]),
    ("csv-path-number", ("environment",), {"kind": "csv", "path": 3},
     ["environment.path: must be a file path string"]),
    ("csv-header-string", ("environment",), {**CSV, "has_header": "yes"},
     ["environment.has_header: unknown parameter"]),
    ("json-path-missing", ("environment",), {"kind": "json"}, ["environment.path: must be a file path string"]),
    ("learner-not-object", ("learner",), [], ["learner: must be an object"]),
    ("learner-unknown-kind", ("learner",), {"kind": "svm"},
     [f"learner.kind: unknown kind 'svm' (known: {LEARNER_NAMES})"]),
    ("tree-depth-negative", ("learner", "max_depth"), -1, ["learner.max_depth: must be a non-negative integer"]),
    ("tree-depth-float", ("learner", "max_depth"), 2.0, ["learner.max_depth: must be a non-negative integer"]),
    ("tree-leaf-zero", ("learner", "min_samples_leaf"), 0, ["learner.min_samples_leaf: must be a positive integer"]),
    ("rls-forgetting-zero", ("learner",), {**RLS, "forgetting_factor": 0},
     ["learner.forgetting_factor: must be in (0, 1]"]),
    ("rls-forgetting-above-one", ("learner",), {**RLS, "forgetting_factor": 1.5},
     ["learner.forgetting_factor: must be in (0, 1]"]),
    ("rls-regularization-zero", ("learner",), {**RLS, "regularization": 0},
     ["learner.regularization: must be a positive number"]),
    ("rls-regularization-string", ("learner",), {**RLS, "regularization": "1e-8"},
     ["learner.regularization: must be a positive number"]),
    ("rls-batch-zero", ("learner",), {**RLS, "batch_size": 0}, ["learner.batch_size: must be a positive integer"]),
    ("remote-address-missing", ("learner",), {"kind": "remote"}, ["learner.address: must be a 'host:port' string"]),
    ("remote-address-number", ("learner",), {"kind": "remote", "address": 8080},
     ["learner.address: must be a 'host:port' string"]),
    ("remote-address-no-port", ("learner",), {"kind": "remote", "address": "nohost"},
     ["learner.address: not a 'host:port' string: 'nohost'"]),
    ("remote-address-bad-port", ("learner",), {"kind": "remote", "address": "host:abc"},
     ["learner.address: not a 'host:port' string: 'host:abc'"]),
    ("remote-timeout-zero", ("learner",), {**REMOTE, "timeout": 0}, ["learner.timeout: must be a positive number"]),
    ("remote-timeout-string", ("learner",), {**REMOTE, "timeout": "5"},
     ["learner.timeout: must be a positive number"]),
    ("remote-address-port-above-65535", ("learner",), {"kind": "remote", "address": "127.0.0.1:70000"},
     ["learner.address: not a 'host:port' string: '127.0.0.1:70000': port must be an integer from 0 to 65535, got 70000"]),
    ("remote-address-signed-port", ("learner",), {"kind": "remote", "address": "127.0.0.1:+80"},
     ["learner.address: not a 'host:port' string: '127.0.0.1:+80'"]),
    ("remote-timeout-above-ceiling", ("learner",), {**REMOTE, "timeout": 1e10},
     ["learner.timeout: must be at most 1000000.0 seconds"]),
]


@pytest.mark.parametrize("path, value, expected", [c[1:] for c in GOLDEN], ids=[c[0] for c in GOLDEN])
def test_golden_diagnostics(path, value, expected):
    assert validate_config(mutated(path, value)) == expected


@pytest.mark.parametrize("samples, valid", [(1_000_001, True), (1_000_002, False)])
def test_rk4_step_ceiling_is_inclusive(samples, valid):
    """The default dt and substep take 100 RK4 steps per sample; 10**8 steps in all still validate."""
    assert (validate_config(mutated(("environment", "samples"), samples)) == []) is valid


@pytest.mark.parametrize("timeout, valid", [(1e6, True), (math.nextafter(1e6, math.inf), False)])
def test_remote_timeout_ceiling_is_inclusive(timeout, valid):
    assert (validate_config(mutated(("learner",), {**REMOTE, "timeout": timeout})) == []) is valid


def test_benchmark_configs_are_valid():
    for learner in ("tree", "linear", "incremental_linear"):
        assert validate_config(watertank_config(learner)) == []


@pytest.mark.parametrize(
    "path, message",
    [
        (("learner", "max_depth"), "learner.max_depth: must be a non-negative integer"),
        (("learner", "min_samples_leaf"), "learner.min_samples_leaf: must be a positive integer"),
        (("environment", "samples"), "environment.samples: must be a positive integer"),
        (("transforms", 0, "window_size"), "transforms[0].window_size: must be a positive integer"),
        (("seed",), "seed: must be an integer"),
        (("schema_version",), "schema_version: expected 1, got {flag}"),
    ],
)
@pytest.mark.parametrize("flag", [True, False])
def test_booleans_are_not_integers(path, message, flag):
    diags = validate_config(mutated(path, flag))
    assert len(diags) == 1
    assert diags[0] == message.format(flag=flag)


@pytest.mark.parametrize("flag", [True, False])
def test_boolean_batch_size_is_not_an_integer(flag):
    cfg = mutated(("learner",), {**RLS, "batch_size": flag})
    assert validate_config(cfg) == ["learner.batch_size: must be a positive integer"]


# Every setting of every local learner kind, and values at the edges of its check.
LOCAL_SETTINGS = [(kind, name) for kind, (_, _, settings) in LOCAL_KINDS.items() for name in settings]
EDGE_VALUES = [True, np.True_, None, "3", 2.0, 2.5, -1, 0, 1, np.int64(2), math.nan, math.inf, 1e-320, 10**400]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=lambda v: "10**400" if type(v) is int and v > 2**64 else repr(v))
@pytest.mark.parametrize("kind, name", LOCAL_SETTINGS, ids=[f"{kind}.{name}" for kind, name in LOCAL_SETTINGS])
def test_config_refuses_a_setting_exactly_when_the_library_does(kind, name, value):
    """validate_config and the object a setting builds apply one check: the learner for its own
    settings, the DatasetStream for ``batch_size``."""
    learner_class = LOCAL_KINDS[kind][0]
    diagnostics = validate_config(mutated(("learner",), {"kind": kind, name: value}))
    reported = any(diagnostic.startswith(f"learner.{name}: ") for diagnostic in diagnostics)
    try:
        if name == "batch_size":
            DatasetStream(Dataset({"x": [1.0, 2.0, 3.0]}), value)
        else:
            learner_class(**{name: value})
    except ValueError as exc:
        assert str(exc).startswith(f"{name} must be ")
        refused = True
    else:
        refused = False
    assert reported == refused


# The water tank's settings and the library objects that check them.
TANK_SETTINGS = {
    "samples": lambda value: OdeEnvironment(WaterTankSystem()).sample_trajectory(value),
    "dt": lambda value: OdeEnvironment(WaterTankSystem(), sample_period=value),
    "substep": lambda value: OdeEnvironment(WaterTankSystem(), substep=value),
    "initial_level": lambda value: WaterTankSystem(level=value),
    "area": lambda value: WaterTankSystem(area=value),
    "outflow_coeff": lambda value: WaterTankSystem(outflow_coeff=value),
    "inflow_gain": lambda value: WaterTankSystem(inflow_gain=value),
}


@pytest.mark.parametrize("value", EDGE_VALUES, ids=lambda v: "10**400" if type(v) is int and v > 2**64 else repr(v))
@pytest.mark.parametrize("name", list(TANK_SETTINGS))
def test_config_refuses_a_tank_setting_exactly_when_the_library_does(name, value):
    """validate_config and the water-tank objects refuse the same values, each with a ValueError.
    A ``samples`` whose trajectory takes too many RK4 steps is reported on ``environment.substep``."""
    diagnostics = validate_config(mutated(("environment",), {"kind": "ode_watertank", name: value}))
    reported = any(
        diagnostic.startswith(f"environment.{name}: ")
        or name == "samples" and diagnostic.startswith("environment.substep: ") and "RK4 steps" in diagnostic
        for diagnostic in diagnostics
    )
    try:
        TANK_SETTINGS[name](value)
    except ValueError:
        refused = True
    else:
        refused = False
    assert reported == refused


class Started(Exception):
    """Raised by the inflow at the first sample: every check of the trajectory has passed."""


def starting_inflow(t: float) -> float:
    raise Started


# (samples, dt, substep) on each side of 10**8 RK4 steps as each of the three moves, and a single
# sample, which takes no step whatever its period.
STEP_LIMIT_CASES = [
    (1_001, 0.1, 1e-6, False), (1_002, 0.1, 1e-6, True),
    (2, 100_000.0, 1e-3, False), (2, 100_000.001, 1e-3, True),
    (2, 0.1, 1e-9, False), (2, 0.1, 9.9e-10, True),
    (1, 1e6, 1e-3, False), (2, 1e6, 1e-3, True),
]


@pytest.mark.parametrize("samples, dt, substep, refused", STEP_LIMIT_CASES)
def test_config_and_sampler_share_one_step_limit(samples, dt, substep, refused):
    """Both sides refuse a trajectory above 10**8 RK4 steps, or neither does; the sampler refuses
    before its first inflow call, so an accepted trajectory is never run."""
    spec = {"kind": "ode_watertank", "samples": samples, "dt": dt, "substep": substep}
    assert (validate_config(mutated(("environment",), spec)) != []) is refused
    with pytest.raises(ValueError if refused else Started):
        OdeEnvironment(WaterTankSystem(inflow=starting_inflow), sample_period=dt, substep=substep).sample_trajectory(samples)


@pytest.mark.parametrize(
    "path, spec, field",
    [
        (("environment",), {**CSV, "foo": 1}, "environment.foo"),
        (("environment",), {"kind": "json", "path": "p", "foo": 1}, "environment.foo"),
        (("transforms",), [{"kind": "sliding_window", "window_size": 3, "foo": 1}], "transforms[0].foo"),
        (("transforms",), [{"kind": "select", "names": [], "foo": 1}], "transforms[0].foo"),
        (("transforms",), [{"kind": "explode", "names": ["a"], "foo": 1}], "transforms[0].foo"),
        (("transforms",), [{"kind": "standardize", "names": ["a"], "foo": 1}], "transforms[0].foo"),
        (("learner",), {"kind": "regression_tree", "foo": 1}, "learner.foo"),
        (("learner",), {"kind": "linear", "foo": 1}, "learner.foo"),
        (("learner",), {**RLS, "foo": 1}, "learner.foo"),
        (("learner",), {**REMOTE, "foo": 1}, "learner.foo"),
    ],
)
def test_unknown_parameter_reported_for_every_kind(path, spec, field):
    assert validate_config(mutated(path, spec)) == [f"{field}: unknown parameter"]


@pytest.mark.parametrize(
    "field, expected",
    [
        ("io", "io: must be an object"),
        ("split_fraction", "split_fraction: must be a number in (0, 1)"),
        ("metrics", "metrics: must be a non-empty list of metric names"),
        ("transforms", "transforms: must be a list"),
    ],
)
def test_null_fields_are_diagnosed(field, expected):
    assert validate_config(mutated((field,), None)) == [expected]


@pytest.mark.parametrize(
    "path, value, expected",
    [
        (("environment", "dt"), float("inf"), "environment.dt: must be a positive number"),
        (("environment", "area"), float("inf"), "environment.area: must be a positive number"),
        (("environment", "initial_level"), float("inf"), "environment.initial_level: must be a number"),
        (("environment", "inflow_gain"), float("-inf"), "environment.inflow_gain: must be a number"),
        (("learner",), {**REMOTE, "timeout": float("inf")}, "learner.timeout: must be a positive number"),
        (("learner",), {**RLS, "regularization": float("nan")}, "learner.regularization: must be a positive number"),
        (("environment", "area"), 10**400, "environment.area: must be a positive number"),
    ],
)
def test_non_finite_numbers_are_diagnosed(path, value, expected):
    cfg = json.loads(json.dumps(mutated(path, value)))  # as read from a file
    assert validate_config(cfg) == [expected]


def test_csv_environment_skips_a_utf8_byte_order_mark(tmp_path):
    data = tmp_path / "export.csv"  # as spreadsheet programs write it
    data.write_text("\ufeffu,y\n" + "".join(f"{i},{2 * i + 1}\n" for i in range(40)), encoding="utf-8")
    cfg = {
        "environment": {"kind": "csv", "path": str(data)},
        "io": {"inputs": ["u"], "outputs": ["y"]},
        "split_fraction": 0.8,
        "learner": {"kind": "linear"},
        "metrics": ["mae"],
    }
    assert OfflineEnvironment.from_csv(data).observe().column_names == ("u", "y")
    assert run_config(cfg).report.to_dict()["metrics"]["mae"] < 1e-8


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
config_paths = st.sampled_from(
    [
        ("schema_version",), ("seed",), ("output_dir",), ("environment",), ("transforms",),
        ("io",), ("split_fraction",), ("learner",), ("metrics",), ("environment", "kind"),
        ("environment", "samples"), ("environment", "dt"), ("environment", "substep"), ("transforms", 0), ("transforms", 0, "kind"),
        ("transforms", 0, "window_size"), ("io", "inputs"), ("io", "outputs"),
        ("learner", "kind"), ("learner", "max_depth"), ("metrics", 0),
    ]
)


@settings(max_examples=300, deadline=None)
@given(path=config_paths, value=json_values)
def test_validation_never_raises_on_json(path, value):
    cfg = json.loads(json.dumps(mutated(path, value)))
    diags = validate_config(cfg)
    assert isinstance(diags, list) and all(isinstance(d, str) for d in diags)
