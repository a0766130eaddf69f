import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslearn import ColumnKind, Dataset, load_csv, load_json, write_csv
from cpslearn import dataset as dataset_module
from cpslearn.dataset import (
    EmptyFile,
    InconsistentKeys,
    InvalidFraction,
    ParseError,
    RaggedRows,
    TooFewRows,
    UnknownColumn,
)
from cpslearn.errors import PipelineError
from conftest import DBL_MAX_INT


def test_load_csv_two_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("V,x\n1,10\n2,20\n")
    d = load_csv(path)
    assert d.row_count == 2
    assert d.column_names == ("V", "x")
    assert d.column("V").tolist() == [1.0, 2.0]
    assert d.column("x").tolist() == [10.0, 20.0]


def test_load_csv_five_row_series(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("V,x\n" + "".join(f"{i},{10 * i}\n" for i in range(1, 6)))
    d = load_csv(path)
    assert d.column("V").tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert d.column("x").tolist() == [10.0, 20.0, 30.0, 40.0, 50.0]


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    with pytest.raises(EmptyFile):
        load_csv(path)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv")


def test_load_csv_ragged_rows(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(RaggedRows):
        load_csv(path)


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert info.value.row == 2
    assert info.value.column == "b"


def test_load_csv_without_header(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("1;2\n3;4\n")
    d = load_csv(path, has_header=False, delimiter=";")
    assert d.column_names == ("column_0", "column_1")
    assert d.row_count == 2


def test_load_csv_rejects_nan_unless_allowed(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("a\nnan\n")
    with pytest.raises(ParseError):
        load_csv(path)
    d = load_csv(path, allow_nan=True)
    assert np.isnan(d.column("a")[0])


def test_load_csv_deterministic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n0.1,2\n3,4.5\n")
    assert load_csv(path) == load_csv(path)


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    awkward = [0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -0.0, 2.0**-52]
    d = Dataset(
        {
            "a": np.concatenate([rng.uniform(-1e6, 1e6, 20), awkward]),
            "b": rng.standard_normal(26),
        }
    )
    path = tmp_path / "rt.csv"
    write_csv(d, path)
    reloaded = load_csv(path)
    assert reloaded == d
    for name in d.column_names:
        assert np.array_equal(reloaded.column(name), d.column(name))


@st.composite
def scalar_columns(draw) -> list:
    """1-3 columns of one length, each all ints, all booleans or all non-NaN floats."""
    rows = draw(st.integers(0, 5))
    values = st.sampled_from([st.integers(-(10**300), 10**300), st.booleans(), st.floats(allow_nan=False)])
    return [draw(st.lists(draw(values), min_size=rows, max_size=rows)) for _ in range(draw(st.integers(1, 3)))]


@settings(deadline=None, max_examples=200)
@given(scalar_columns())
def test_csv_round_trip_of_ints_bools_and_floats(tmp_path_factory, columns):
    d = Dataset([(f"c{j}", values) for j, values in enumerate(columns)])
    path = tmp_path_factory.mktemp("csv") / "rt.csv"
    write_csv(d, path)
    reloaded = load_csv(path)
    assert reloaded == d
    for name in d.column_names:
        assert reloaded.column(name).tobytes() == d.column(name).tobytes()


def reference_load_csv(path, has_header=True, delimiter=",", allow_nan=False) -> Dataset:
    """Oracle: the parser every CSV once went through, csv.reader + float() per cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    if not rows:
        raise EmptyFile(f"no rows in {path}")

    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(f"row {i} has {len(row)} cells, expected {width}")

    if has_header:
        names = rows[0]
        data_rows = rows[1:]
        first_data_row = 1
    else:
        names = [f"column_{i}" for i in range(width)]
        data_rows = rows
        first_data_row = 0

    parsed = [np.empty(len(data_rows), dtype=np.float64) for _ in range(width)]
    for i, row in enumerate(data_rows):
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"non-numeric cell {cell!r} at row {i + first_data_row}, column {names[j]!r}",
                    row=i + first_data_row,
                    column=names[j],
                ) from None
            if math.isnan(value) and not allow_nan:
                raise ParseError(
                    f"NaN at row {i + first_data_row}, column {names[j]!r} (allow_nan=False)",
                    row=i + first_data_row,
                    column=names[j],
                )
            parsed[j][i] = value
    return Dataset(list(zip(names, parsed)), allow_nan=allow_nan)


def csv_outcome(load, path, **options):
    """Names and column bytes, or the exception's type, message, row and column."""
    try:
        d = load(path, **options)
    except Exception as exc:  # the oracle compares whatever either parser raises
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return d.column_names, [d.column(name).tobytes() for name in d.column_names]


# Cells numpy's C parser and float() might read differently, or not at all.
ODD_CELLS = ["", "_", "1_000", "nan", "-inf", "1e400", '"1"', '"', " 1", "1 ", "\t",
             "1.5\x1c", "\xa0", "\u0661", "e", "1e", "+-1", ".", "1.2.3"]


@st.composite
def csv_files(draw):
    """(text, has_header, delimiter): numeric cells, line feeds and a rectangle in about
    half the files, odd cells, other line ends, blank lines and ragged rows in the rest."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    has_header = draw(st.booleans())
    width = draw(st.integers(1, 4))
    plain = draw(st.booleans())
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    numeric = st.text("0123456789+-.eE", max_size=6)  # often no number at all
    if plain:
        cell = draw(st.sampled_from([finite, st.one_of(finite, numeric)]))
    else:
        cell = st.one_of(st.floats().map(repr), numeric, st.sampled_from(ODD_CELLS))
    lines = [delimiter.join(draw(st.sampled_from(["t", "V", '"x"', "a b"])) + str(j)
                            for j in range(width))] if has_header else []
    for _ in range(draw(st.integers(0, 6))):
        cells = width if plain else width + draw(st.sampled_from([0, 0, 0, 1, -1]))
        lines.append(delimiter.join(draw(st.lists(cell, min_size=cells, max_size=cells))))
    if lines and not plain and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")  # a blank line
    endings = st.just("\n") if plain else st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(endings) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    return text, has_header, delimiter


@settings(deadline=None, max_examples=400)
@given(csv_files(), st.booleans())
def test_load_csv_matches_reference(tmp_path_factory, file, allow_nan):
    text, has_header, delimiter = file
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    options = dict(has_header=has_header, delimiter=delimiter, allow_nan=allow_nan)
    assert csv_outcome(load_csv, path, **options) == csv_outcome(reference_load_csv, path, **options)


@pytest.mark.parametrize(
    "text",
    [
        "a\n1.5\x1c\n",  # np.loadtxt alone reads 1.5 here; float() refuses the cell
        '"a\n1\n',  # a header quote left open swallows the rest of the file
        "a\rb\n1\n",  # a lone carriage return ends the header row early
        "t,x\n1,2\n3,4,\n",  # a trailing delimiter adds an empty cell
        "t,x\n1,2\n3,4\n\n",  # a blank last line is a ragged row
        "t,x\n1,2\n3,1e400\n",
    ],
)
def test_load_csv_edge_cases_match_reference(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    assert csv_outcome(load_csv, path) == csv_outcome(reference_load_csv, path)


def test_write_csv_files_take_the_fast_path(tmp_path):
    rng = np.random.default_rng(3)
    d = Dataset({"t": rng.uniform(-1e6, 1e6, 50), "V": rng.standard_normal(50), "x": [-0.0, 5e-324] * 25})
    path = tmp_path / "w.csv"
    write_csv(d, path)
    assert b"\r\n" in path.read_bytes()  # csv.writer's default line terminator
    names, values = dataset_module._load_numeric_csv(path.read_bytes(), True, ",")
    assert tuple(names) == d.column_names
    assert [values[:, j].tobytes() for j in range(3)] == [d.column(n).tobytes() for n in d.column_names]
    assert csv_outcome(load_csv, path) == csv_outcome(reference_load_csv, path)


@pytest.mark.parametrize(
    "text, fast",
    [
        ("t,x\r\n1,2\r\n3,4\r\n", True),
        ("t,x\r\n1,2\r\n3,4", True),  # no final line end
        ("t,x\n1,2\r\n3,4\n", True),  # mixed \n and \r\n ends
        ("t,x\r\n1,2\r\n\r\n3,4\r\n", False),  # a blank line
        ("t,x\r\n1,2\r\r\n3,4\r\n", False),  # a carriage return inside a row
        ("t,x\r\n1,2\r3,4\r\n", False),  # a lone carriage return ends a row
        ('"t\r\nu",x\r\n1,2\r\n', False),  # a quoted line end in the header
    ],
)
def test_crlf_line_ends_match_reference(tmp_path, text, fast):
    data = text.encode()
    assert (dataset_module._load_numeric_csv(data, True, ",") is not None) == fast
    path = tmp_path / "f.csv"
    path.write_bytes(data)
    assert csv_outcome(load_csv, path) == csv_outcome(reference_load_csv, path)


@pytest.mark.parametrize("body", ["0,1\n2,3\n", '"0",1\r\n2,3\r\n'])
def test_load_csv_skips_utf8_byte_order_mark(tmp_path, body):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbft,x\n" + body.encode())
    d = load_csv(path)
    assert d.column_names == ("t", "x")
    assert d.column("x").tolist() == [1.0, 3.0]


def test_load_json_array_of_objects(tmp_path):
    path = tmp_path / "a.json"
    path.write_text('[{"a":1},{"a":2}]')
    d = load_json(path)
    assert d.column("a").tolist() == [1, 2]
    assert d.row_count == 2


def test_load_json_object_of_arrays(tmp_path):
    path = tmp_path / "o.json"
    path.write_text('{"a":[1,2],"b":[3,4]}')
    d = load_json(path)
    assert d.column_names == ("a", "b")
    assert d.column("b").tolist() == [3, 4]


def test_load_json_inconsistent_keys(tmp_path):
    path = tmp_path / "i.json"
    path.write_text('[{"a":1},{"b":2}]')
    with pytest.raises(InconsistentKeys):
        load_json(path)


def test_load_json_trace_columns(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('[{"id":1,"trace":[10,11]},{"id":2,"trace":[20]}]')
    d = load_json(path)
    assert d.column_kind("trace") is ColumnKind.LIST_FLOAT64
    assert [cell.tolist() for cell in d.column("trace")] == [[10.0, 11.0], [20.0]]


def test_load_json_empty_array(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    d = load_json(path)
    assert d.row_count == 0
    assert d.column_names == ()


def test_load_json_records_without_keys_keep_their_row_count(tmp_path):
    path = tmp_path / "keyless.json"
    path.write_text("[{}, {}, {}]")
    d = load_json(path)
    assert d.row_count == 3
    assert d.column_names == ()


def test_load_json_numbers_and_booleans_become_floats(tmp_path):
    path = tmp_path / "n.json"
    path.write_text('{"i": [1, -2], "b": [true, false], "big": [9223372036854775808, 1]}')
    d = load_json(path)
    assert d.schema == (("i", ColumnKind.FLOAT64), ("b", ColumnKind.FLOAT64), ("big", ColumnKind.FLOAT64))
    assert d.column("i").tolist() == [1.0, -2.0]
    assert d.column("b").tolist() == [1.0, 0.0]
    assert d.column("big").tolist() == [float(2**63), 1.0]


def test_load_json_rejects_strings(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('[{"a":"x"}]')
    with pytest.raises(ParseError):
        load_json(path)


# Placeholders for literals json.dumps cannot write: nesting past the recursion
# limit, and an integer past the digit limit of int().
DEEP, HUGE = "\x00deep", "\x00huge"
LITERALS = {json.dumps(DEEP): "[" * 100_000 + "]" * 100_000, json.dumps(HUGE): "9" * 5_000}
json_cells = st.recursive(
    st.one_of(
        st.integers(),
        st.integers(2**63 - 2, 2**64 + 2),
        st.integers(-(2**64) - 2, -(2**63) + 2),
        st.just(10**400),
        st.floats(),  # NaN and the infinities become NaN / Infinity / -Infinity literals
        st.booleans(),
        st.none(),
        st.text(max_size=2),
        st.sampled_from([DEEP, HUGE]),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def json_documents(draw) -> str:
    """An object of columns or an array of records, as JSON text."""
    names = draw(st.lists(st.text(max_size=3), max_size=3, unique=True))
    rows = draw(st.integers(0, 4))
    columns = {name: draw(st.lists(json_cells, min_size=rows, max_size=rows)) for name in names}
    doc = columns if draw(st.booleans()) else [{name: columns[name][i] for name in names} for i in range(rows)]
    text = json.dumps(doc)
    for placeholder, literal in LITERALS.items():
        text = text.replace(placeholder, literal)
    return text


@settings(deadline=None, max_examples=300)
@given(json_documents(), st.booleans())
def test_load_json_returns_a_dataset_or_a_pipeline_error(tmp_path_factory, text, allow_nan):
    path = tmp_path_factory.mktemp("json") / "f.json"
    path.write_text(text)
    try:
        result = load_json(path, allow_nan=allow_nan)
    except PipelineError:
        return
    assert isinstance(result, Dataset)


def test_select_order_and_unknown():
    d = Dataset({"a": [1.0], "b": [2.0], "c": [3.0]})
    picked = d.select(["c", "a"])
    assert picked.column_names == ("c", "a")
    assert picked.row_count == 1
    with pytest.raises(UnknownColumn):
        d.select(["z"])


def test_select_empty_keeps_row_count():
    d = Dataset({"a": [1.0, 2.0, 3.0]})
    empty = d.select([])
    assert empty.column_names == ()
    assert empty.row_count == 3


def test_split_sizes():
    d248 = Dataset({"v": np.arange(248, dtype=np.float64)})
    head, tail = d248.split(0.8)
    assert (head.row_count, tail.row_count) == (198, 50)  # floor(0.8 * 248)

    d10 = Dataset({"v": np.arange(10, dtype=np.float64)})
    assert tuple(p.row_count for p in d10.split(0.5)) == (5, 5)

    d2 = Dataset({"v": [1.0, 2.0]})
    assert tuple(p.row_count for p in d2.split(0.9)) == (1, 1)  # floor(1.8)


def test_split_validation():
    d = Dataset({"v": [1.0, 2.0, 3.0]})
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(InvalidFraction):
            d.split(bad)
    with pytest.raises(TooFewRows):
        Dataset({"v": [1.0]}).split(0.5)


@settings(deadline=None, max_examples=50)
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=2, max_size=60),
    fraction=st.floats(min_value=0.01, max_value=0.99),
)
def test_split_concat_round_trip(values, fraction):
    d = Dataset({"v": values})
    head, tail = d.split(fraction)
    assert head.row_count + tail.row_count == d.row_count
    assert Dataset.concat([head, tail]) == d


def test_select_preserves_row_count(toy_series):
    assert toy_series.select(["V"]).row_count == toy_series.row_count
    assert toy_series.select(["V"]).column("V").tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_column_kind_inference():
    d = Dataset(
        {
            "i": [1, 2],
            "f": [1, 2.5],
            "b": [True, False],
            "nb": [np.bool_(True), np.bool_(False)],
            "n": [np.int8(-3), np.float32(0.5)],
            "u": [np.uint64(2**64 - 1), np.int64(7)],
            "t": [[1.0], [2.0, 3.0]],
        }
    )
    assert set(ColumnKind) == {ColumnKind.FLOAT64, ColumnKind.LIST_FLOAT64}
    for name in ("i", "f", "b", "nb", "n", "u"):
        assert d.column_kind(name) is ColumnKind.FLOAT64
        assert d.column(name).dtype == np.float64
    assert d.column_kind("t") is ColumnKind.LIST_FLOAT64
    assert d.column("i").tolist() == [1.0, 2.0]
    assert d.column("b").tolist() == d.column("nb").tolist() == [1.0, 0.0]
    assert d.column("n").tolist() == [-3.0, 0.5]
    assert d.column("u").tolist() == [float(2**64 - 1), 7.0]
    for array in (np.array([True, False]), np.array([1, 0], dtype=np.int16), np.array([1, 0], dtype=np.uint8)):
        assert Dataset({"a": array}).column("a").tolist() == [1.0, 0.0]


@pytest.mark.parametrize("values", [[True, 1], [1.0, False], [np.bool_(False), 2]])
def test_booleans_mixed_with_numbers_are_refused(values):
    with pytest.raises(ValueError, match="column values must be numbers, booleans, or numeric traces"):
        Dataset({"a": values})


@pytest.mark.parametrize(
    "cell", [["1.5", 2.0], [True, 1.5], [1.0, None], np.array([1.5, "x"], dtype=object)],
    ids=["string", "bool-number-mix", "none", "object-array"],
)
def test_trace_cells_follow_the_scalar_rule(cell):
    with pytest.raises(ValueError, match="column values must be numbers, booleans, or numeric traces"):
        Dataset({"t": [[1.0], cell]})


def test_trace_cells_of_booleans_or_numeric_arrays():
    d = Dataset({"t": [[True, False], np.array([1, 2], dtype=np.int16), (np.float32(0.5),)]})
    assert [cell.tolist() for cell in d.column("t")] == [[1.0, 0.0], [1.0, 2.0], [0.5]]


def test_construction_errors():
    with pytest.raises(ValueError):
        Dataset({"a": [1.0, float("nan")]})
    with pytest.raises(ValueError):
        Dataset([("a", [1.0]), ("a", [2.0])])
    with pytest.raises(ValueError):
        Dataset({"a": [1.0, 2.0], "b": [1.0]})
    Dataset({"a": [1.0, float("nan")]}, allow_nan=True)  # explicit opt-in


@pytest.mark.parametrize(
    "values, dtype",
    [
        ([2**1024], "float64"),
        ([-(2**1024)], "float64"),
        ([DBL_MAX_INT + 2**970], "float64"),  # the first integer that rounds past the largest double
        ([1, -DBL_MAX_INT - 2**970], "float64"),
        ([1.0, 10**400], "float64"),
        ([[1.0, 10**400]], "float64"),
    ],
)
def test_integers_out_of_range_are_a_value_error(values, dtype):
    with pytest.raises(ValueError, match=f"integer out of the {dtype} range"):
        Dataset({"a": values})


@pytest.mark.parametrize("values", [[2**63], [-(2**63) - 1], [2**64 + 1, 3], [DBL_MAX_INT + 2**970 - 1]])
def test_integers_beyond_int64_convert_as_float_does(values):
    column = Dataset({"a": values}).column("a")
    assert column.tobytes() == np.array([float(v) for v in values]).tobytes()


def test_uint64_arrays_within_int64_keep_their_values():
    values = [0, 2**53, 2**63 - 1, 2**63, 2**64 - 1]
    column = Dataset({"a": np.array(values, dtype=np.uint64)}).column("a")
    assert column.dtype == np.float64
    assert column.tolist() == [float(v) for v in values]


def test_columns_are_immutable():
    d = Dataset({"a": [1.0, 2.0]})
    col = d.column("a")
    with pytest.raises(ValueError):
        col[0] = 99.0
    source = np.array([1.0, 2.0])
    Dataset({"a": source})
    source[0] = 99.0  # mutating the source array must not affect the dataset


def test_concat_requires_matching_schema():
    a = Dataset({"x": [1.0]})
    b = Dataset({"y": [1.0]})
    with pytest.raises(ValueError):
        Dataset.concat([a, b])
