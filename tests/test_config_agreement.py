"""``validate_config`` reports a diagnostic on ``io``, ``metrics``, ``split_fraction`` or a transform's
``names`` exactly when the library object that takes the value refuses it: both apply one check. And
every site that takes column names, from a Dataset to the wire, applies the one rule ``dataset._names``
states."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from cpslearn import Dataset, Explode, IoSpec, OfflineEnvironment, Select, Standardize, evaluate, remote
from cpslearn.config import validate_config, watertank_config
from cpslearn.dataset import InvalidFraction, _names
from cpslearn.learners import MODEL_FORMAT_VERSION, LinearModel, model_from_dict

NAMED = {"select": Select, "explode": Explode, "standardize": Standardize}
ODD = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(), st.just(math.nan), st.just(10**400))


def settings_of(names: list[str], size: int = 0):
    """Values for a setting that takes a list of ``names``: about half are distinct names, ``size`` of
    them if given; the rest are lists with repeats, empty lists and tuples, lists holding non-strings,
    bare strings, and values that are no list at all."""
    name = st.sampled_from(names)
    distinct = st.lists(name, min_size=size or 1, max_size=size or len(names), unique=True)
    odd = st.one_of(
        st.lists(name, max_size=3),
        st.lists(name, max_size=3).map(tuple),
        st.lists(st.one_of(name, ODD), min_size=1, max_size=3),
        name,
        ODD,
    )
    return st.booleans().flatmap(lambda valid: distinct if valid else odd)  # one_of would weigh odd's 5 parts


class CopyModel:
    """Predicts ``y`` as the input ``x``, so every metric is defined on binary, varying rows."""

    model_id = "copy"
    output_column = "y"

    def predict(self, inputs):
        return Dataset({"y": inputs.column("x")})


def refuses(build, error) -> bool:
    try:
        build()
    except error:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(
    inputs=settings_of(["a", "b"]),
    outputs=settings_of(["b", "x_2"], size=1),
    metrics=settings_of(["mae", "r2", "accuracy", "nope"]),
    fraction=st.one_of(st.floats(0.01, 0.99), st.floats(-0.5, 1.5), st.sampled_from([0, 1, 0.5, "0.5"]), ODD),
    kind=st.sampled_from(sorted(NAMED)),
    names=settings_of(["V", "x"]),
)
def test_validate_config_refuses_exactly_what_the_library_refuses(inputs, outputs, metrics, fraction, kind, names):
    cfg = {**watertank_config(), "io": {"inputs": inputs, "outputs": outputs}, "metrics": metrics,
           "split_fraction": fraction, "transforms": [{"kind": kind, "names": names}]}
    fields = {diagnostic.partition(":")[0].partition(".")[0] for diagnostic in validate_config(cfg)}
    rows = OfflineEnvironment.from_dataset(Dataset({"x": [0.0, 1.0, 1.0], "y": [0.0, 1.0, 1.0]}))
    assert fields == {
        field for field, refused in (
            ("io", refuses(lambda: IoSpec(inputs, outputs), ValueError)),
            ("metrics", refuses(lambda: evaluate(rows, CopyModel(), IoSpec(["x"], ["y"]), metrics), ValueError)),
            ("split_fraction", refuses(lambda: Dataset({"v": [1.0, 2.0]}).split(fraction), InvalidFraction)),
            ("transforms[0]", refuses(lambda: NAMED[kind](names), ValueError)),
        ) if refused
    }


# Name lists: distinct valid names, lists and tuples that may hold ``""`` or a repeat or be empty,
# lists holding non-strings, bare strings, and values that are no list at all.
NAME = st.sampled_from(["a", "b", "c", ""])
NAME_LISTS = st.one_of(
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, unique=True),
    st.lists(NAME, max_size=4),
    st.lists(NAME, max_size=4).map(tuple),
    st.lists(st.one_of(NAME, ODD, st.just(b"a")), min_size=1, max_size=3),
    NAME,
    st.sampled_from(["ab", {"a": 1.0}]),
    ODD,
)


def name_count(names) -> int:
    return len(names) if isinstance(names, (list, tuple)) else 0


def linear_document(input_schema) -> dict:
    return {"format_version": MODEL_FORMAT_VERSION, "kind": "linear", "input_schema": input_schema,
            "output_schema": ["y"], "params": {"weights": [0.0] * name_count(input_schema), "intercept": 0.0}}


def wire_message(names) -> tuple[dict, bytes]:
    """A ``predict`` header naming ``names`` and a body of one row."""
    width = len(names) if isinstance(names, (list, tuple)) else 1
    return {"kind": "predict", "inputs": names, "body": 8 * width}, bytes(8 * width)


@settings(max_examples=300, deadline=None)
@given(names=NAME_LISTS)
def test_every_site_applies_the_one_name_rule(names):
    """Each site refuses exactly what ``_names`` refuses with that site's two parameters: whether the
    list may be empty, and whether a repeat is refused. A Dataset is built from pairs, so only a list
    or tuple can be its names."""
    source = Dataset({"a": [1.0], "b": [2.0], "c": [3.0]})
    sites = [
        ("Dataset.select", lambda: source.select(names), (True, True)),
        ("IoSpec.inputs", lambda: IoSpec(names, ["y"]), (False, True)),
        ("Select", lambda: Select(names), (True, True)),
        ("Standardize", lambda: Standardize(names), (False, False)),
        ("model_from_dict", lambda: model_from_dict(linear_document(names)), (True, True)),
        ("LinearModel", lambda: LinearModel([0.0] * name_count(names), 0.0, names, "y"), (True, True)),
        ("remote._decode", lambda: remote._decode(*wire_message(names)), (False, True)),
    ]
    if isinstance(names, (list, tuple)):
        sites.append(("Dataset", lambda: Dataset([(name, [1.0]) for name in names]), (True, True)))
    assert {site: refuses(build, ValueError) for site, build, _ in sites} == {
        site: _names(names, *rule) is not None for site, _, rule in sites
    }
