import codecs
import csv
import json
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpslearn import (
    Dataset,
    DatasetStream,
    Explode,
    LinearModel,
    Select,
    SlidingWindow,
    Standardize,
    TransformChain,
    fit_linear,
    load_csv,
    load_json,
    write_csv,
)
from cpslearn import dataset as dataset_module
from cpslearn import remote
from cpslearn.config import run_config
from cpslearn.dataset import (
    EmptyFile,
    InconsistentKeys,
    InvalidFraction,
    NonFiniteValue,
    ParseError,
    RaggedRows,
    TooFewRows,
    TraceColumn,
    UnknownColumn,
)
from cpslearn.errors import PipelineError
from conftest import DBL_MAX_INT, concat_rows


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


def parsed_csv(path) -> Dataset:
    """``load_csv`` without its memo: the file's bytes, parsed afresh."""
    return dataset_module._parse_csv(path.read_bytes().removeprefix(codecs.BOM_UTF8), path)


def test_load_csv_deterministic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n0.1,2\n3,4.5\n")
    first, second = parsed_csv(path), parsed_csv(path)
    assert first is not second
    assert first == second


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
    """1-3 columns of one length, each all ints, all booleans or all finite floats."""
    rows = draw(st.integers(0, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = st.sampled_from([st.integers(-(10**300), 10**300), st.booleans(), finite])
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


def reference_load_csv(path) -> Dataset:
    """Oracle: the parser every CSV once went through, csv.reader + float() per cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise EmptyFile(f"no rows in {path}")

    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(f"row {i} has {len(row)} cells, expected {width}")

    names = rows[0]
    parsed = [np.empty(len(rows) - 1, dtype=np.float64) for _ in range(width)]
    for i in range(1, len(rows)):
        for j, cell in enumerate(rows[i]):
            message = f"cell {cell!r} at row {i}, column {names[j]!r} is not a finite number"
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(message, row=i, column=names[j]) from None
            if not math.isfinite(value):
                raise ParseError(message, row=i, column=names[j])
            parsed[j][i - 1] = value
    return Dataset(list(zip(names, parsed)))


def csv_outcome(load, path):
    """Names and column bytes, or the exception's type, message, row and column."""
    try:
        d = load(path)
    except Exception as exc:  # the oracle compares whatever either parser raises
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return d.column_names, [d.column(name).tobytes() for name in d.column_names]


# Cells numpy's C parser and float() might read differently, or not at all.
ODD_CELLS = ["", "_", "1_000", "nan", "-inf", "1e400", '"1"', '"', " 1", "1 ", "\t",
             "1.5\x1c", "\xa0", "\u0661", "e", "1e", "+-1", ".", "1.2.3"]


@st.composite
def csv_files(draw):
    """A header row, then comma-separated rows: numeric cells, line feeds and a rectangle in
    about half the files, odd cells, other line ends, blank lines and ragged rows in the rest."""
    width = draw(st.integers(1, 4))
    plain = draw(st.booleans())
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    numeric = st.text("0123456789+-.eE", max_size=6)  # often no number at all
    if plain:
        cell = draw(st.sampled_from([finite, st.one_of(finite, numeric)]))
    else:
        cell = st.one_of(st.floats().map(repr), numeric, st.sampled_from(ODD_CELLS))
    # "1" + j: a file written without a header row has its first data row read as names
    lines = [",".join(draw(st.sampled_from(["t", "V", '"x"', "a b", "1"])) + str(j) for j in range(width))]
    for _ in range(draw(st.integers(0, 6))):
        cells = width if plain else width + draw(st.sampled_from([0, 0, 0, 1, -1]))
        lines.append(",".join(draw(st.lists(cell, min_size=cells, max_size=cells))))
    if lines and not plain and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")  # a blank line
    endings = st.just("\n") if plain else st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(endings) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    return text


@settings(deadline=None, max_examples=400)
@given(csv_files())
def test_load_csv_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    assert csv_outcome(parsed_csv, path) == csv_outcome(reference_load_csv, path)


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
    assert csv_outcome(parsed_csv, path) == csv_outcome(reference_load_csv, path)


def test_write_csv_files_take_the_fast_path(tmp_path):
    rng = np.random.default_rng(3)
    d = Dataset({"t": rng.uniform(-1e6, 1e6, 50), "V": rng.standard_normal(50), "x": [-0.0, 5e-324] * 25})
    path = tmp_path / "w.csv"
    write_csv(d, path)
    assert b"\r\n" in path.read_bytes()  # csv.writer's default line terminator
    names, values = dataset_module._load_numeric_csv(path.read_bytes())
    assert tuple(names) == d.column_names
    assert [values[:, j].tobytes() for j in range(3)] == [d.column(n).tobytes() for n in d.column_names]
    assert csv_outcome(parsed_csv, path) == csv_outcome(reference_load_csv, path)


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
    assert (dataset_module._load_numeric_csv(data) is not None) == fast
    path = tmp_path / "f.csv"
    path.write_bytes(data)
    assert csv_outcome(parsed_csv, path) == csv_outcome(reference_load_csv, path)


@pytest.mark.parametrize("body", ["0,1\n2,3\n", '"0",1\r\n2,3\r\n'])
def test_load_csv_skips_utf8_byte_order_mark(tmp_path, body):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbft,x\n" + body.encode())
    d = load_csv(path)
    assert d.column_names == ("t", "x")
    assert d.column("x").tolist() == [1.0, 3.0]


def rewrite_keeping_size_and_mtime(path, text: str) -> None:
    """Replace the file's bytes with ``text`` of the same length, and restore its times."""
    before = os.stat(path)
    assert len(text.encode()) == before.st_size
    path.write_text(text)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_mtime_ns == before.st_mtime_ns


def test_load_csv_sees_a_rewrite_of_the_same_size_and_time(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("t,x\n1,2\n3,4\n")
    assert load_csv(path).column("x").tolist() == [2.0, 4.0]
    rewrite_keeping_size_and_mtime(path, "t,x\n1,7\n3,9\n")
    assert load_csv(path).column("x").tolist() == [7.0, 9.0]


@pytest.mark.parametrize("body", ["0.5,1\n2,3e2\n", '"0.5",1\r\n2,3e2\r\n'], ids=["fast", "fallback"])
def test_identical_bytes_give_one_dataset_under_any_path(tmp_path, body):
    data = f"t,x\n{body}".encode()
    paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "bom.csv"]
    paths[0].write_bytes(data)
    paths[1].write_bytes(data)
    paths[2].write_bytes(codecs.BOM_UTF8 + data)
    first = load_csv(paths[0])
    assert all(load_csv(path) is first for path in paths)
    assert first == reference_load_csv(paths[0])


@pytest.mark.parametrize(
    "text, error",
    [("t,x\n1,oops\n", ParseError), ("t,t\n1,2\n", ParseError), ("", EmptyFile), ("t,x\n1,2\n3\n", RaggedRows)],
)
def test_a_failed_load_is_not_kept(tmp_path, text, error):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("t,x\n1,2\n5,6\n")
    bad.write_text(text)
    kept = load_csv(good)
    for _ in range(2):
        with pytest.raises(error):
            load_csv(bad)
    assert load_csv(good) is kept


REPEATED_A = ("column names: repeated names: ['a']", "a")
EMPTY_NAME = ("column names: must not hold an empty name", "")


@pytest.mark.parametrize(
    "text, message, column",
    [("a,b,a\n1,2,3\n", *REPEATED_A), ('"a","b","a"\n1,2,3\n', *REPEATED_A), ('a,b,a\n"1",2,3\n', *REPEATED_A),
     ("a,,y\n1,2,3\n", *EMPTY_NAME), ('a,,y\n"1",2,3\n', *EMPTY_NAME), ('"",a,a\n1,2,3\n', *EMPTY_NAME)],
    ids=["fast", "quoted_header", "fallback", "empty_fast", "empty_fallback", "empty_and_repeated"],
)
def test_load_csv_refuses_a_repeated_column_name(tmp_path, text, message, column):
    """An empty or repeated header name, on both parse paths; a Dataset would refuse the name with a
    ValueError the CLI cannot type."""
    path = tmp_path / "repeated.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert (str(info.value), info.value.column) == (message, column)


def test_a_missing_file_raises_while_a_dataset_is_kept(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("t,x\n1,2\n5,6\n")
    kept = load_csv(good)
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv")
    assert load_csv(good) is kept


def test_run_config_reads_a_csv_rewritten_between_runs(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    cfg = {
        "environment": {"kind": "csv", "path": str(path)},
        "io": {"inputs": ["u"], "outputs": ["y"]},
        "split_fraction": 0.8,
        "learner": {"kind": "linear"},
        "metrics": ["mae", "max_error"],
    }
    # two-digit cells, so both files have one size
    texts = ["u,y\n" + "".join(f"{i},{10 + (slope * i + i % 3) % 90}\n" for i in range(10, 50)) for slope in (2, 3)]
    path.write_text(texts[0])
    reports = [run_config(cfg).report.to_dict()]
    rewrite_keeping_size_and_mtime(path, texts[1])
    reports.append(run_config(cfg).report.to_dict())

    fresh = []
    for text in texts:
        monkeypatch.setattr(dataset_module, "_last_csv", None)
        path.write_text(text)
        fresh.append(run_config(cfg).report.to_dict())
    assert reports == fresh
    assert fresh[0] != fresh[1]


def test_threads_loading_different_files_each_get_their_own(tmp_path):
    paths = []
    for k in range(3):
        paths.append(tmp_path / f"{k}.csv")
        paths[-1].write_text(f"t,x\n0,{k}\n1,{k}\n")
    wrong = []

    def load(path, k):
        for _ in range(300):
            if load_csv(path).column("x").tolist() != [float(k)] * 2:
                wrong.append(k)

    threads = [threading.Thread(target=load, args=(paths[i % 3], i % 3)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def column_chain(column):
    """The column, then each object down its chain of bases."""
    chain = [column]
    while isinstance(chain[-1], np.ndarray):
        chain.append(chain[-1].base)
    return chain


@pytest.mark.parametrize(
    "text, fast", [("t,x\r\n1,2.5\r\n3,-0.0\r\n", True), ('t,x\n1,"2.5"\n3,-0.0\n', False)], ids=["fast", "fallback"]
)
def test_no_array_behind_a_loaded_column_can_be_made_writable(tmp_path, text, fast):
    path = tmp_path / "f.csv"
    path.write_text(text)
    assert (dataset_module._load_numeric_csv(path.read_bytes()) is not None) == fast
    d = load_csv(path)
    for name in d.column_names:
        *arrays, end = column_chain(d.column(name))
        assert isinstance(end, bytes)
        for array in arrays:
            with pytest.raises(ValueError):
                array.setflags(write=True)
    assert d.column("x").tobytes() == np.array([2.5, -0.0]).tobytes()


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
    assert isinstance(d.column("trace"), tuple)
    assert [cell.tolist() for cell in d.column("trace")] == [[10.0, 11.0], [20.0]]
    with pytest.raises(TraceColumn, match="^column 'trace' holds traces, not float64 values$"):
        d.floats(["id", "trace"])


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
    assert [values.dtype for values in d.floats(["i", "b", "big"])] == [np.float64] * 3
    assert d.column("i").tolist() == [1.0, -2.0]
    assert d.column("b").tolist() == [1.0, 0.0]
    assert d.column("big").tolist() == [float(2**63), 1.0]


def test_load_json_trace_cells_of_booleans_become_floats(tmp_path):
    path = tmp_path / "b.json"
    path.write_text('{"t": [[true, false], [1, 2]]}')
    assert [cell.tolist() for cell in load_json(path).column("t")] == [[1.0, 0.0], [1.0, 2.0]]


@pytest.mark.parametrize(
    "text, shown", [('{"a": [1, null]}', "None"), ('{"t": [[1, "x"]]}', "'x'"), ('[{"t": [true, 1]}]', "1")]
)
def test_load_json_errors_name_the_first_offending_value(tmp_path, text, shown):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^column '[at]': .* numeric traces, got {shown}$"):
        load_json(path)


@pytest.mark.parametrize(
    "text, message, column",
    [('{"a": [1, 2], "a": [3, 4]}', *REPEATED_A), ('{"a": [1], "b": [2], "a": [3]}', *REPEATED_A),
     ('[{"a": 1, "a": 2}]', *REPEATED_A), ('[{"b": 1}, {"b": 2, "a": 3, "a": 4}]', *REPEATED_A),
     ('{"a": [1, 2], "": [3, 4]}', *EMPTY_NAME), ('[{"": 1, "b": 2}]', *EMPTY_NAME)],
)
def test_load_json_refuses_a_repeated_key(tmp_path, text, message, column):
    """``json`` would keep the last value of a repeated key and drop a column without a word; an
    empty key is no column name."""
    path = tmp_path / "repeated.json"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_json(path)
    assert (str(info.value), info.value.column) == (message, column)


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
@given(json_documents())
def test_load_json_returns_a_dataset_or_a_pipeline_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("json") / "f.json"
    path.write_text(text)
    try:
        result = load_json(path)
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


@pytest.mark.parametrize("fraction", ["0.5", None, [0.5], math.nan])
def test_split_refuses_a_fraction_that_is_not_a_number(fraction):
    with pytest.raises(InvalidFraction, match="^split fraction must be a number in"):
        Dataset({"v": [1.0, 2.0, 3.0]}).split(fraction)


@settings(deadline=None, max_examples=50)
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=2, max_size=60),
    fraction=st.floats(min_value=0.01, max_value=0.99),
)
def test_split_concat_round_trip(values, fraction):
    d = Dataset({"v": values})
    head, tail = d.split(fraction)
    assert head.row_count + tail.row_count == d.row_count
    assert concat_rows([head, tail]) == d


def test_select_preserves_row_count(toy_series):
    assert toy_series.select(["V"]).row_count == toy_series.row_count
    assert toy_series.select(["V"]).column("V").tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("start, stop", [(-3, -1), (2, -1), (-5, 3), (0, -10)])
@pytest.mark.parametrize("columns", [{"v": np.arange(10.0)}, {}], ids=["column", "no-column"])
def test_slice_rows_refuses_negative_bounds(columns, start, stop):
    d = Dataset(columns, row_count=10)
    with pytest.raises(ValueError, match=f"^row bounds must be non-negative integers, got start={start}, stop={stop}$"):
        d.slice_rows(start, stop)


@pytest.mark.parametrize("start, stop", [(True, 3), (0, True), (np.True_, 3), (1.5, 3), (0, 2.0), ("1", 3), (0, None)])
def test_slice_rows_refuses_bounds_that_are_not_integers(start, stop):
    with pytest.raises(ValueError, match=f"^row bounds must be non-negative integers, got start={start!r}, "):
        Dataset({"v": np.arange(10.0)}).slice_rows(start, stop)


def test_slice_rows_takes_numpy_integers():
    assert Dataset({"v": np.arange(10.0)}).slice_rows(np.int64(1), np.int32(3)).column("v").tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "start, stop, rows",
    [(2, 5, [2.0, 3.0, 4.0]), (8, 20, [8.0, 9.0]), (12, 20, []), (5, 2, []), (0, 0, [])],
)
def test_slice_rows_clamps_stop_to_row_count_and_start_to_stop(start, stop, rows):
    part = Dataset({"v": np.arange(10.0)}).slice_rows(start, stop)
    assert part.row_count == len(rows)
    assert part.column("v").tolist() == rows


# Values whose bits a copy through arithmetic would change: -0.0, a subnormal, a huge value.
SOURCE = {
    "a": np.array([0.5, 5e-324, -0.0, 1e150, -2.5, 3.0]),
    "s": np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
    "t": tuple(np.array(cell) for cell in ([1.0], [], [-0.0, 2.0], [3.0], [4.0, 5e-324], [6.0])),
    "w": tuple(np.array([float(i), -0.0]) for i in range(6)),
}
COUNTS = [len(cell) for cell in SOURCE["t"]]


def repeated(values, counts):
    if isinstance(values, tuple):
        return tuple(cell for cell, k in zip(values, counts) for _ in range(k))
    return np.repeat(values, counts)


def standardized(values):
    return (values - np.mean(values)) / np.std(values)


# Each way a Dataset hands out columns: (output datasets, expected columns of each).
CONSTRUCTION_PATHS = {
    "Dataset": lambda d: [(d, SOURCE)],
    "select": lambda d: [(d.select(["w", "a"]), {"w": SOURCE["w"], "a": SOURCE["a"]})],
    "slice_rows": lambda d: [(d.slice_rows(1, 4), {n: v[1:4] for n, v in SOURCE.items()})],
    "split": lambda d: [(part, {n: v[rows] for n, v in SOURCE.items()})
                        for part, rows in zip(d.split(0.5), [slice(0, 3), slice(3, 6)])],
    "DatasetStream": lambda d: [(batch, {n: v[start:start + 4] for n, v in SOURCE.items()})
                                for batch, start in zip(iter(DatasetStream(d, 4).next_batch, None), [0, 4])],
    "Select": lambda d: [(Select(["t", "s"]).apply(d), {"t": SOURCE["t"], "s": SOURCE["s"]})],
    "SlidingWindow": lambda d: [(SlidingWindow(2).apply(d), {
        f"{n}_{step}": v[step:step + 5] for step in (0, 1) for n, v in SOURCE.items()
    })],
    "Explode": lambda d: [(Explode(["t"]).apply(d), {
        "a": repeated(SOURCE["a"], COUNTS), "s": repeated(SOURCE["s"], COUNTS),
        "t": np.concatenate(SOURCE["t"]), "w": repeated(SOURCE["w"], COUNTS),
    })],
    "Standardize": lambda d: [(Standardize(["s"]).fit(d).apply(d), {**SOURCE, "s": standardized(SOURCE["s"])})],
    "TransformChain": lambda d: [(TransformChain([Select(["w", "a"]), SlidingWindow(6)]).apply(d), {
        f"{n}_{step}": SOURCE[n][step:step + 1] for step in range(6) for n in ("w", "a")
    })],
}


def frozen_bits(column, expected) -> bool:
    """Whether ``column`` is read-only and holds the bits of ``expected``, kind included."""
    if isinstance(expected, tuple):
        return (isinstance(column, tuple) and len(column) == len(expected)
                and all(map(frozen_bits, column, expected)))
    return (isinstance(column, np.ndarray) and column.dtype == np.float64 and not column.flags.writeable
            and column.tobytes() == np.asarray(expected, dtype=np.float64).tobytes())


@pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
def test_every_column_handed_out_is_frozen_and_bit_equal_to_its_source(path):
    outputs = CONSTRUCTION_PATHS[path](Dataset(SOURCE))
    assert outputs
    for dataset, expected in outputs:
        assert set(dataset.column_names) == set(expected)
        for name in dataset.column_names:
            assert frozen_bits(dataset.column(name), expected[name]), name


def test_only_values_nothing_can_write_are_shared():
    base = np.array([1.0, 2.0, 3.0])
    view = base[:]
    view.setflags(write=False)  # read-only, but its base is not
    d = Dataset({"a": view, "b": np.frombuffer(np.array([4.0, 5.0, 6.0]).tobytes())})
    base[0] = 7.0
    assert d.column("a").tolist() == [1.0, 2.0, 3.0]
    assert not np.shares_memory(d.column("a"), base)
    window = SlidingWindow(2).apply(d)  # columns of a Dataset are shared, not copied
    assert np.shares_memory(window.column("a_1"), d.column("a"))
    assert np.shares_memory(window.column("b_0"), d.column("b"))


def test_an_empty_column_takes_its_kind_from_its_type():
    """An empty tuple is a trace column, as ``column`` returns one of zero rows; an empty list or array is float64."""
    traces = Dataset({"t": [[1.0]]}).slice_rows(0, 0)
    assert traces.column("t") == ()
    assert Dataset({"t": traces.column("t")}) == traces
    assert repr(Dataset({"t": ()})) == "Dataset(0 rows; t: list[float64])"
    for empty in ([], np.empty(0)):
        assert repr(Dataset({"t": empty})) == "Dataset(0 rows; t: float64)"


@pytest.mark.parametrize("rows", [0, 1, 3])
def test_a_trace_column_never_equals_a_float_column(rows):
    traces = Dataset({"c": [[float(i)] for i in range(3)]}).slice_rows(0, rows)
    floats = Dataset({"c": [float(i) for i in range(rows)]})
    assert traces.row_count == floats.row_count == rows
    assert traces != floats and floats != traces


# Every consumer of float64 columns, each handed a Dataset with a trace column "t".
TRACE_CONSUMERS = {
    "learner": lambda d, tmp_path: fit_linear(d.select(["a", "t"]), d.select(["a"])),
    "target": lambda d, tmp_path: fit_linear(d.select(["a"]), d.select(["t"])),
    "wire": lambda d, tmp_path: remote._encode({"kind": "prediction", "outputs": d}),
    "csv": lambda d, tmp_path: write_csv(d, tmp_path / "t.csv"),
    "standardize-fit": lambda d, tmp_path: Standardize(["a", "t"]).fit(d),
    "standardize-apply": lambda d, tmp_path: Standardize(["t"]).fit(Dataset({"t": [1.0, 2.0]})).apply(d),
}


@pytest.mark.parametrize("consumer", TRACE_CONSUMERS)
def test_every_float_consumer_refuses_a_trace_column_alike(tmp_path, consumer):
    d = Dataset({"a": [1.0, 2.0], "t": [[1.0], [2.0, 3.0]]})
    with pytest.raises(TraceColumn, match="^column 't' holds traces, not float64 values$") as info:
        TRACE_CONSUMERS[consumer](d, tmp_path)
    assert info.value.column == "t"
    assert list(tmp_path.iterdir()) == []


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
    floats = d.floats(["i", "f", "b", "nb", "n", "u"])
    assert [values.dtype for values in floats] == [np.float64] * 6
    assert all(values is d.column(name) for values, name in zip(floats, ["i", "f", "b", "nb", "n", "u"]))
    assert isinstance(d.column("t"), tuple)
    assert [cell.dtype for cell in d.column("t")] == [np.float64] * 2
    with pytest.raises(TraceColumn):
        d.floats(["t"])
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


def csv_with(tmp_path, value: float) -> Dataset:
    """1e400 reaches numpy's parser and falls back; nan and -inf go to csv.reader at once."""
    cell = {math.inf: "1e400", -math.inf: "-inf"}.get(value, "nan")
    path = tmp_path / "f.csv"
    path.write_text(f"t,a\n0,1\n1,{cell}\n")
    return load_csv(path)


def json_with(tmp_path, value: float, records: bool) -> Dataset:
    literal = {math.inf: "Infinity", -math.inf: "-1e400"}.get(value, "NaN")
    path = tmp_path / "f.json"
    path.write_text(f'[{{"a": 1}}, {{"a": {literal}}}]' if records else f'{{"a": [1, {literal}]}}')
    return load_json(path)


def prediction_of(value: float) -> Dataset:
    """A linear model's prediction that overflows to ``value``: 2e308 - 0, 0 - 2e308, or inf - inf."""
    u, v = {math.inf: (2.0, 0.0), -math.inf: (0.0, 2.0)}.get(value, (2.0, 2.0))
    return LinearModel([1e308, -1e308], 0.0, ["u", "v"], "a").predict(Dataset({"u": [u], "v": [v]}))


WAYS_IN = {
    "list": lambda tmp_path, value: Dataset({"a": [1.0, value]}),
    "array": lambda tmp_path, value: Dataset({"a": np.array([1.0, value])}),
    "trace-cell": lambda tmp_path, value: Dataset({"a": [[1.0], [2.0, value]]}),
    "csv": csv_with,
    "json-columns": lambda tmp_path, value: json_with(tmp_path, value, records=False),
    "json-records": lambda tmp_path, value: json_with(tmp_path, value, records=True),
    "wire": lambda tmp_path, value: remote._decode(
        {"kind": "prediction", "outputs": ["a"], "body": 16}, np.array([1.0, value], "<f8").tobytes()
    )[0],
    "linear-model": lambda tmp_path, value: prediction_of(value),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("way", WAYS_IN)
def test_every_way_into_a_dataset_refuses_non_finite_values(tmp_path, way, value):
    with pytest.raises(ParseError if way == "csv" else NonFiniteValue) as info:
        WAYS_IN[way](tmp_path, value)
    assert info.value.column == "a"
    assert str(info.value).count("'a'") == 1
    if way == "csv":
        assert info.value.row == 2


def test_construction_errors():
    with pytest.raises(ValueError):
        Dataset({"a": [1.0, float("nan")]})
    with pytest.raises(ValueError):
        Dataset([("a", [1.0]), ("a", [2.0])])
    with pytest.raises(ValueError):
        Dataset({"a": [1.0, 2.0], "b": [1.0]})


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
